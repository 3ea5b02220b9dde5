#include "net/timesync.hpp"

#include <cmath>

namespace evm::net {

TimeSync::TimeSync(sim::Simulator& sim, TimeSyncParams params)
    : sim_(sim), params_(params) {}

void TimeSync::attach(NodeId id, NodeClock& clock,
                      std::function<void(util::Duration)> on_pulse) {
  subscribers_[id] = Subscriber{&clock, std::move(on_pulse)};
}

void TimeSync::detach(NodeId id) { subscribers_.erase(id); }

void TimeSync::start() {
  if (running_) return;
  running_ = true;
  // First pulse at the next period boundary so frame 0 starts disciplined.
  sim_.schedule_after(util::Duration::zero(), [this] { emit_pulse(); });
}

void TimeSync::stop() { running_ = false; }

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
  if (!running_) return;
  ++pulses_;
  const util::TimePoint nominal = sim_.now();
  for (auto& [id, sub] : subscribers_) {
    (void)id;
    if (sim_.rng().bernoulli(params_.miss_probability)) {
      ++missed_;
      continue;
    }
    const util::Duration jitter = draw_jitter();
    // The node detects the pulse `jitter` late but stamps it with the
    // nominal pulse time, so its clock ends up `jitter` behind truth.
    Subscriber sub_copy = sub;  // survive unsubscribe during callback
    sim_.schedule_after(jitter, [this, sub_copy, nominal, jitter] {
      sub_copy.clock->discipline(sim_.now(), nominal);
      if (sub_copy.on_pulse) sub_copy.on_pulse(jitter);
    });
  }
  sim_.schedule_after(params_.period, [this] { emit_pulse(); });
}

}  // namespace evm::net
