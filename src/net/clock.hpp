// Per-node local clock with crystal drift. The simulator's clock is "true"
// global time; nodes only observe it through their drifting oscillator plus
// whatever offset correction time-sync gives them. RT-Link's guard slots
// exist exactly because of the error this models.
//
// A time-sync reception reaches the clock as a draw, not a value: the pulse
// hands over its nominal instant, the sequence number its event would have
// taken, and the two raw uniforms of the node's detection latency
// (PulseJitter). The clock computes that latency, and with it the instant
// the reception lands, only when a read needs it. While the simulator's
// frontier is before the pulse the reception cannot have landed, and once
// the frontier is past nominal + jitter_max it must have, so neither case
// needs the latency. Only a read inside that window, or the first read of
// the state the reception left, computes it, once. A reception superseded
// by the next pulse's before any read never computes it at all.
//
// Frame planning (RT-Link's hot path): each pulse also tells every attached
// clock the next pulse's nominal instant, missed pulse or not. Until then
// the mapping can change only when the pending reception lands, so a
// clock's listener (its node's RtLink) plans every frame that starts before
// that instant at once, through mapping_at(), instead of taking one event
// per frame. A drift change or a discipline() moves the mapping now, and a
// pulse train that stops leaves the listener nothing to plan up to; the
// clock tells its listener in each case.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace evm::net {

/// Detection latency of one time-sync pulse reception: the magnitude of a
/// normal with std-dev `sigma`, capped at `max` (>= 0). It is held as the
/// two uniforms of its Box-Muller draw and computed from them on the first
/// value() call only. A default-constructed one is zero.
class PulseJitter {
 public:
  PulseJitter() = default;
  PulseJitter(double u1, double u2, util::Duration sigma, util::Duration max)
      : u1_(u1), u2_(u2), sigma_(sigma), max_(max), ns_(-1) {}

  /// Upper bound of value(), known without computing it.
  util::Duration max() const { return max_; }

  util::Duration value() const {
    if (ns_ < 0) {
      double ns = std::abs(
          util::Rng::normal_from(u1_, u2_, 0.0, static_cast<double>(sigma_.ns())));
      if (ns > static_cast<double>(max_.ns())) ns = static_cast<double>(max_.ns());
      ns_ = static_cast<std::int64_t>(ns);
    }
    return util::Duration(ns_);
  }

 private:
  double u1_ = 0.0;
  double u2_ = 0.0;
  util::Duration sigma_;
  util::Duration max_;
  mutable std::int64_t ns_ = 0;  // -1 until computed
};

/// Told by a NodeClock whenever what it can promise about its mapping
/// changes: a pulse announced the next one, the announced pulse will not
/// come, or the mapping moved now (a drift change or a discipline()).
class ClockListener {
 public:
  virtual void on_clock_change() = 0;

 protected:
  ~ClockListener() = default;
};

/// A local/true time mapping frozen at one instant: the clock reads
/// `local_epoch` at true time `epoch` and runs at `rate` from there.
struct ClockMapping {
  util::TimePoint epoch;
  util::TimePoint local_epoch;
  double rate;

  util::TimePoint local_time(util::TimePoint global) const {
    const double scaled = static_cast<double>((global - epoch).ns()) * rate;
    return local_epoch + util::Duration(static_cast<std::int64_t>(scaled));
  }
  util::TimePoint global_for(util::TimePoint local) const {
    const double scaled = static_cast<double>((local - local_epoch).ns()) / rate;
    return epoch + util::Duration(static_cast<std::int64_t>(scaled));
  }
};

class NodeClock {
 public:
  /// drift_ppm: crystal frequency error in parts-per-million (typ. ±10..40
  /// for the 32 kHz crystals on sensor motes).
  explicit NodeClock(double drift_ppm = 0.0) : drift_ppm_(drift_ppm) {}

  double drift_ppm() const { return drift_ppm_; }
  void set_drift_ppm(double ppm) {
    drift_ppm_ = ppm;
    notify();
  }

  /// The one listener told of every change (nullptr clears it); it must
  /// stay valid until cleared.
  void set_listener(ClockListener* listener) { listener_ = listener; }
  /// The listener needs no word of a pulse announced for `t` or earlier
  /// (RtLink: it has planned every frame that starts before `t`).
  void set_quiet_until(util::TimePoint t) { quiet_until_ = t; }

  /// Local reading at true time `global`.
  util::TimePoint local_time(util::TimePoint global) const {
    return current().local_time(global);
  }

  /// Error of the local clock versus true time, in ns.
  util::Duration error(util::TimePoint global) const {
    return local_time(global) - (util::TimePoint::zero() + (global - util::TimePoint::zero()));
  }

  /// Inverse mapping: the true time at which this clock will read `local`.
  /// Used when a node schedules a wakeup for a local-time slot boundary.
  util::TimePoint global_for(util::TimePoint local) const {
    return current().global_for(local);
  }

  /// The mapping that will be in force at true time `at`, as far as the
  /// clock knows now: the pending reception counts only if it lands
  /// strictly before `at`. At `at` <= now it is the mapping in force now.
  ClockMapping mapping_at(util::TimePoint at) const {
    const ClockMapping now = current();
    if (pending_seq_ != 0 && at > pending_nominal_ && at > sim_->now()) {
      const util::TimePoint lands = pending_nominal_ + pending_jitter_.value();
      if (lands < at) return ClockMapping{lands, pending_nominal_, now.rate};
    }
    return now;
  }

  /// Discipline the clock now: the node believes true time is `reference`
  /// at true time `global`. A reception still pending stays pending.
  void discipline(util::TimePoint global, util::TimePoint reference) {
    settle();
    epoch_base_ = global;
    epoch_jitter_ = PulseJitter();
    local_epoch_ = reference;
    notify();
  }

  /// TimeSync's announcement, at each pulse, of the next pulse's nominal
  /// instant; until then only the pending reception moves the mapping. The
  /// next pulse the clock hears must be that one, unless expect_no_pulse()
  /// comes first (TimeSync keeps to this). The listener hears of it only if
  /// it falls after the quiet_until instant.
  void expect_pulse(util::TimePoint next) {
    next_pulse_ = next;
    if (next > quiet_until_) notify();
  }
  /// No pulse is coming: the train stopped or this clock was detached.
  void expect_no_pulse() {
    next_pulse_ = kNoPulse;
    notify();
  }
  /// Whether a pulse is announced, and its nominal instant.
  bool expects_pulse() const { return next_pulse_ != kNoPulse; }
  util::TimePoint next_pulse() const { return next_pulse_; }

  /// Time-sync reception of the pulse at `nominal`, applied lazily: the
  /// clock disciplines itself to `nominal` at true time
  /// nominal + jitter.value(), as if an event keyed (that instant, seq) had
  /// run, where `seq` came from sim.reserve_sequence(). Reads resolve it
  /// against sim.has_dispatched(), so each sees the state that event would
  /// have left; `sim` must therefore outlive the clock's reads. At most one
  /// reception may be pending: a second one before the first has taken
  /// effect throws std::logic_error.
  void receive(const sim::Simulator& sim, util::TimePoint nominal, std::uint64_t seq,
               const PulseJitter& jitter) {
    settle();
    if (pending_seq_ != 0) {
      throw std::logic_error(
          "NodeClock: time-sync reception before the previous one took effect");
    }
    sim_ = &sim;
    pending_nominal_ = nominal;
    pending_seq_ = seq;
    pending_jitter_ = jitter;
  }

 private:
  /// Whether the pending reception has taken effect. A frontier before the
  /// pulse, or past the latest instant the reception can land, decides it
  /// without computing the jitter.
  bool landed() const {
    if (!sim_->has_dispatched(pending_nominal_, 0)) return false;
    if (sim_->has_dispatched(pending_nominal_ + pending_jitter_.max(), ~0ull)) return true;
    return sim_->has_dispatched(pending_nominal_ + pending_jitter_.value(), pending_seq_);
  }

  /// Adopt a pending reception that has taken effect; its jitter stays
  /// uncomputed until epoch() needs it.
  void settle() const {
    if (pending_seq_ != 0 && landed()) {
      epoch_base_ = pending_nominal_;
      epoch_jitter_ = pending_jitter_;
      local_epoch_ = pending_nominal_;
      pending_seq_ = 0;
    }
  }

  util::TimePoint epoch() const { return epoch_base_ + epoch_jitter_.value(); }
  double rate() const { return 1.0 + drift_ppm_ * 1e-6; }
  /// The mapping in force now.
  ClockMapping current() const {
    settle();
    return ClockMapping{epoch(), local_epoch_, rate()};
  }
  void notify() {
    if (listener_ != nullptr) listener_->on_clock_change();
  }

  // A pulse is only ever announced a positive period after a pulse.
  static constexpr util::TimePoint kNoPulse = util::TimePoint::zero();

  double drift_ppm_;
  // True time of the last discipline is epoch_base_ + epoch_jitter_ (the
  // jitter is zero unless a reception did it); local_epoch_ is the local
  // reading assigned at that instant.
  mutable util::TimePoint epoch_base_;
  mutable PulseJitter epoch_jitter_;
  mutable util::TimePoint local_epoch_;
  // Pending reception (pending_seq_ == 0: none); adopted by settle().
  const sim::Simulator* sim_ = nullptr;
  util::TimePoint pending_nominal_;
  mutable std::uint64_t pending_seq_ = 0;
  PulseJitter pending_jitter_;
  util::TimePoint next_pulse_ = kNoPulse;
  util::TimePoint quiet_until_;
  ClockListener* listener_ = nullptr;
};

}  // namespace evm::net
