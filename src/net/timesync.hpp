// Out-of-band global time synchronization. The FireFly platform uses a
// passive AM radio receiver tuned to an atomic-clock carrier, which gives
// every node the same pulse within <150 µs. We model the pulse train, the
// per-node reception jitter and occasional missed pulses; nodes discipline
// their drifting crystals from it (see NodeClock).
//
// A pulse is one event. At the pulse it takes, for each attached node in
// ascending id order, the draws it always took from the simulator's shared
// stream: the miss Bernoulli, then the two uniforms of the jitter's normal.
// It reserves the sequence number the reception's own event would have
// taken and hands the clock the nominal instant, that number and the two
// uniforms (PulseJitter). The jitter itself is computed only when a read of
// the clock needs it, or at once for an on_pulse hook; both take it from
// the same draw, so they agree bit for bit. Receptions thus cost no events
// and, unless read, no transcendental maths, yet order exactly as if each
// were one event.
//
// Hot-path note: after the receptions, the pulse announces the next
// pulse's nominal instant to every attached clock, missed pulse or not
// (NodeClock::expect_pulse). Each clock's listener, its node's RtLink,
// then plans every frame that starts before that instant, so frames cost
// no events while pulses come. stop() and detach() tell the clocks that no
// pulse is coming, and their links fall back to one frame event each.
#pragma once

#include <functional>
#include <vector>

#include "net/clock.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace evm::net {

struct TimeSyncParams {
  /// Pulse period; must exceed jitter_max (TimeSync's constructor checks),
  /// so every reception lands before the next pulse.
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
  /// Throws std::invalid_argument unless
  /// params.period > params.jitter_max >= 0.
  TimeSync(sim::Simulator& sim, TimeSyncParams params = {});

  /// Register a node's clock for disciplining; a clock may be attached under
  /// one id only. It learns of the next pulse at the next pulse; a clock
  /// replaced under `id` is told that no pulse is coming. `on_pulse` (optional) fires at the pulse instant, inside
  /// the pulse event and before any reception of that pulse has taken
  /// effect, with the jitter computed from this node's reception draw. It is
  /// not called for a missed pulse and must not call back into this TimeSync.
  void attach(NodeId id, NodeClock& clock,
              std::function<void(util::Duration jitter)> on_pulse = {});
  /// Stop disciplining `id` from the next pulse on; a reception already
  /// handed to its clock still takes effect. The clock is told that no
  /// pulse is coming.
  void detach(NodeId id);

  /// Emit a pulse now, then every period. A restart after stop() waits
  /// until jitter_max after the previous pulse, so that pulse's receptions
  /// have all taken effect first.
  void start();
  /// Cancel the next pulse and tell every clock that no pulse is coming;
  /// start() resumes the train.
  void stop();

  const TimeSyncParams& params() const { return params_; }
  std::size_t pulses_emitted() const { return pulses_; }
  std::size_t pulses_missed() const { return missed_; }

 private:
  struct Subscriber {
    NodeId id;
    NodeClock* clock;
    std::function<void(util::Duration)> on_pulse;
  };

  void emit_pulse();
  /// First subscriber whose id is not below `id`.
  std::vector<Subscriber>::iterator find(NodeId id);

  sim::Simulator& sim_;
  TimeSyncParams params_;
  std::vector<Subscriber> subscribers_;  // sorted by id
  std::size_t pulses_ = 0;
  std::size_t missed_ = 0;
  bool running_ = false;
  sim::EventHandle next_pulse_;
  util::TimePoint last_pulse_;
};

}  // namespace evm::net
