#include "net/timesync.hpp"

#include <algorithm>
#include <stdexcept>

namespace evm::net {

TimeSync::TimeSync(sim::Simulator& sim, TimeSyncParams params)
    : sim_(sim), params_(params) {
  if (params_.period <= params_.jitter_max) {
    throw std::invalid_argument(
        "TimeSync: period must exceed jitter_max, or a reception could still "
        "be pending at the next pulse");
  }
  if (params_.jitter_max < util::Duration::zero()) {
    throw std::invalid_argument("TimeSync: jitter_max must not be negative");
  }
}

std::vector<TimeSync::Subscriber>::iterator TimeSync::find(NodeId id) {
  return std::lower_bound(
      subscribers_.begin(), subscribers_.end(), id,
      [](const Subscriber& sub, NodeId key) { return sub.id < key; });
}

void TimeSync::attach(NodeId id, NodeClock& clock,
                      std::function<void(util::Duration)> on_pulse) {
  const auto it = find(id);
  if (it != subscribers_.end() && it->id == id) {
    if (it->clock != &clock) it->clock->expect_no_pulse();
    it->clock = &clock;
    it->on_pulse = std::move(on_pulse);
  } else {
    subscribers_.insert(it, Subscriber{id, &clock, std::move(on_pulse)});
  }
}

void TimeSync::detach(NodeId id) {
  const auto it = find(id);
  if (it != subscribers_.end() && it->id == id) {
    NodeClock* clock = it->clock;
    subscribers_.erase(it);
    clock->expect_no_pulse();
  }
}

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
  if (!running_) return;
  running_ = false;
  sim_.cancel(next_pulse_);
  for (Subscriber& sub : subscribers_) sub.clock->expect_no_pulse();
}

void TimeSync::emit_pulse() {
  ++pulses_;
  const util::TimePoint nominal = sim_.now();
  last_pulse_ = nominal;
  next_pulse_ = sim_.schedule_after(params_.period, [this] { emit_pulse(); });
  const util::TimePoint next = nominal + params_.period;
  util::Rng& rng = sim_.rng();
  for (Subscriber& sub : subscribers_) {
    if (rng.bernoulli(params_.miss_probability)) {
      ++missed_;
    } else {
      // Detection latency: positive, roughly half-normal, hard-capped by the
      // AM receiver circuit's time constant. Drawn now, computed when needed.
      const double u1 = rng.next_double();
      const double u2 = rng.next_double();
      const PulseJitter jitter(u1, u2, params_.jitter_sigma, params_.jitter_max);
      // The node detects the pulse `jitter` late but stamps it with the
      // nominal pulse time, so its clock ends up `jitter` behind truth. The
      // reception takes the sequence number its own event would have taken.
      sub.clock->receive(sim_, nominal, sim_.reserve_sequence(), jitter);
      if (sub.on_pulse) sub.on_pulse(jitter.value());
    }
    // Missed or not, the clock learns when the next pulse is due, and its
    // listener plans up to it.
    sub.clock->expect_pulse(next);
  }
}

}  // namespace evm::net
