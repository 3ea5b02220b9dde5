// Out-of-band global time synchronization. The FireFly platform uses a
// passive AM radio receiver tuned to an atomic-clock carrier, which gives
// every node the same pulse within <150 µs. We model the pulse train, the
// per-node reception jitter and occasional missed pulses; nodes discipline
// their drifting crystals from it (see NodeClock).
#pragma once

#include <functional>
#include <map>

#include "net/clock.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace evm::net {

struct TimeSyncParams {
  util::Duration period = util::Duration::seconds(1);
  /// Std-dev of per-node pulse detection latency (AM receiver + ISR).
  util::Duration jitter_sigma = util::Duration::micros(40);
  /// Hard bound on detection latency (circuit time constant).
  util::Duration jitter_max = util::Duration::micros(150);
  /// Probability an individual node misses a pulse entirely.
  double miss_probability = 0.0;
};

class TimeSync {
 public:
  TimeSync(sim::Simulator& sim, TimeSyncParams params = {});

  /// Register a node's clock for disciplining. `on_pulse` (optional) fires
  /// after the clock update with the measured jitter of that reception.
  void attach(NodeId id, NodeClock& clock,
              std::function<void(util::Duration jitter)> on_pulse = {});
  void detach(NodeId id);

  void start();
  void stop();

  const TimeSyncParams& params() const { return params_; }
  std::size_t pulses_emitted() const { return pulses_; }
  std::size_t pulses_missed() const { return missed_; }

 private:
  struct Subscriber {
    NodeClock* clock;
    std::function<void(util::Duration)> on_pulse;
  };

  void emit_pulse();
  util::Duration draw_jitter();

  sim::Simulator& sim_;
  TimeSyncParams params_;
  std::map<NodeId, Subscriber> subscribers_;
  std::size_t pulses_ = 0;
  std::size_t missed_ = 0;
  bool running_ = false;
};

}  // namespace evm::net
