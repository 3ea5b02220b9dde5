#include "net/timesync.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evm::net {

TimeSync::TimeSync(sim::Simulator& sim, TimeSyncParams params)
    : sim_(sim), params_(params) {
  if (params_.period <= params_.jitter_max) {
    throw std::invalid_argument(
        "TimeSync: period must exceed jitter_max, or a reception could still "
        "be pending at the next pulse");
  }
}

void TimeSync::attach(NodeId id, NodeClock& clock,
                      std::function<void(util::Duration)> on_pulse) {
  subscribers_[id] = Subscriber{&clock, std::move(on_pulse)};
}

void TimeSync::detach(NodeId id) { subscribers_.erase(id); }

void TimeSync::start() {
  if (running_) return;
  running_ = true;
  // First pulse immediately so frame 0 starts disciplined.
  util::TimePoint first = sim_.now();
  if (pulses_ > 0) {
    first = std::max(first, last_pulse_ + params_.jitter_max + util::Duration(1));
  }
  next_pulse_ = sim_.schedule_at(first, [this] { emit_pulse(); });
}

void TimeSync::stop() {
  running_ = false;
  sim_.cancel(next_pulse_);
}

util::Duration TimeSync::draw_jitter() {
  // Detection latency: positive, roughly half-normal, hard-capped by the
  // AM receiver circuit's time constant.
  double ns = std::abs(sim_.rng().normal(0.0, static_cast<double>(params_.jitter_sigma.ns())));
  if (ns > static_cast<double>(params_.jitter_max.ns())) {
    ns = static_cast<double>(params_.jitter_max.ns());
  }
  return util::Duration(static_cast<std::int64_t>(ns));
}

void TimeSync::emit_pulse() {
  ++pulses_;
  const util::TimePoint nominal = sim_.now();
  last_pulse_ = nominal;
  for (auto& [id, sub] : subscribers_) {
    (void)id;
    if (sim_.rng().bernoulli(params_.miss_probability)) {
      ++missed_;
      continue;
    }
    const util::Duration jitter = draw_jitter();
    // The node detects the pulse `jitter` late but stamps it with the
    // nominal pulse time, so its clock ends up `jitter` behind truth. The
    // reception takes the sequence number its own event would have taken.
    sub.clock->receive(sim_, nominal + jitter, sim_.reserve_sequence(), nominal);
    if (sub.on_pulse) sub.on_pulse(jitter);
  }
  next_pulse_ = sim_.schedule_after(params_.period, [this] { emit_pulse(); });
}

}  // namespace evm::net
