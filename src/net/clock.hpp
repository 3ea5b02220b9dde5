// Per-node local clock with crystal drift. The simulator's clock is "true"
// global time; nodes only observe it through their drifting oscillator plus
// whatever offset correction time-sync gives them. RT-Link's guard slots
// exist exactly because of the error this models.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace evm::net {

class NodeClock {
 public:
  /// drift_ppm: crystal frequency error in parts-per-million (typ. ±10..40
  /// for the 32 kHz crystals on sensor motes).
  explicit NodeClock(double drift_ppm = 0.0) : drift_ppm_(drift_ppm) {}

  double drift_ppm() const { return drift_ppm_; }
  void set_drift_ppm(double ppm) { drift_ppm_ = ppm; }

  /// Local reading at true time `global`.
  util::TimePoint local_time(util::TimePoint global) const {
    resolve();
    const double scaled =
        static_cast<double>((global - epoch_).ns()) * (1.0 + drift_ppm_ * 1e-6);
    return local_epoch_ + util::Duration(static_cast<std::int64_t>(scaled));
  }

  /// Error of the local clock versus true time, in ns.
  util::Duration error(util::TimePoint global) const {
    return local_time(global) - (util::TimePoint::zero() + (global - util::TimePoint::zero()));
  }

  /// Inverse mapping: the true time at which this clock will read `local`.
  /// Used when a node schedules a wakeup for a local-time slot boundary.
  util::TimePoint global_for(util::TimePoint local) const {
    resolve();
    const double scaled =
        static_cast<double>((local - local_epoch_).ns()) / (1.0 + drift_ppm_ * 1e-6);
    return epoch_ + util::Duration(static_cast<std::int64_t>(scaled));
  }

  /// Discipline the clock now: the node believes true time is `reference`
  /// at true time `global`. A reception still pending stays pending.
  void discipline(util::TimePoint global, util::TimePoint reference) {
    resolve();
    epoch_ = global;
    local_epoch_ = reference;
  }

  /// Time-sync reception, applied lazily: the clock disciplines itself to
  /// `reference` at true time `at` as if an event keyed (at, seq) had run,
  /// where `seq` came from sim.reserve_sequence(). Reads resolve it against
  /// sim.has_dispatched(at, seq), so each sees the state that event would
  /// have left; `sim` must therefore outlive the clock's reads. At most one
  /// reception may be pending: a second one before the first has taken
  /// effect throws std::logic_error.
  void receive(const sim::Simulator& sim, util::TimePoint at, std::uint64_t seq,
               util::TimePoint reference) {
    resolve();
    if (pending_seq_ != 0) {
      throw std::logic_error(
          "NodeClock: time-sync reception before the previous one took effect");
    }
    sim_ = &sim;
    pending_at_ = at;
    pending_seq_ = seq;
    pending_reference_ = reference;
  }

 private:
  void resolve() const {
    if (pending_seq_ != 0 && sim_->has_dispatched(pending_at_, pending_seq_)) {
      epoch_ = pending_at_;
      local_epoch_ = pending_reference_;
      pending_seq_ = 0;
    }
  }

  double drift_ppm_;
  mutable util::TimePoint epoch_;        // true time of last discipline
  mutable util::TimePoint local_epoch_;  // local reading assigned at that instant
  // Pending reception (pending_seq_ == 0: none); applied by resolve().
  const sim::Simulator* sim_ = nullptr;
  util::TimePoint pending_at_;
  mutable std::uint64_t pending_seq_ = 0;
  util::TimePoint pending_reference_;
};

}  // namespace evm::net
