// CC2420-class radio model: a state machine whose state residency times are
// integrated into charge consumption. MAC protocols drive the state machine;
// the Medium decides what a listening radio actually hears.
//
// Deferred changes: a MAC that knows its radio's next transitions ahead of
// time (RT-Link's listen/sleep timeline) hands them over with defer()
// instead of scheduling one event each. A change is keyed (at, seq) with seq
// from Simulator::reserve_sequence(), and every read or mutation of the
// radio first applies the changes whose key has_dispatched() says an event
// would already have run, in key order, each at its own instant. So every
// observer sees exactly the state, charge and time-in-state that one event
// per change gave. The Medium applies a cell's pending changes before it
// reads the cell's listening bitmask.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace evm::net {

enum class RadioState : std::uint8_t { kOff = 0, kIdleListen, kRx, kTx };

inline const char* to_string(RadioState s) {
  switch (s) {
    case RadioState::kOff: return "OFF";
    case RadioState::kIdleListen: return "IDLE";
    case RadioState::kRx: return "RX";
    case RadioState::kTx: return "TX";
  }
  return "?";
}

/// Electrical parameters. Defaults follow the CC2420 datasheet values the
/// FireFly / RT-Link papers use for their lifetime analysis.
struct RadioParams {
  double bits_per_second = 250'000.0;
  double tx_current_ma = 17.4;    // 0 dBm transmit
  double rx_current_ma = 18.8;    // receive / listen
  double idle_current_ma = 18.8;  // CC2420 draws RX current while listening
  double off_current_ma = 0.001;  // deep sleep (radio + mote sleep floor)
  double voltage = 3.0;
  util::Duration turnaround = util::Duration::micros(192);  // state switch
};

class Medium;  // forward

/// A state change applied lazily (see the file comment).
enum class DeferredChange : std::uint8_t {
  kListen,  // -> kIdleListen
  kSleep,   // -> kOff, unless transmitting
  kOff,     // -> kOff
};

class Radio {
 public:
  Radio(sim::Simulator& sim, Medium& medium, NodeId id, RadioParams params = {});

  NodeId id() const { return id_; }
  const RadioParams& params() const { return params_; }
  RadioState state() const {
    resolve();
    return state_;
  }

  /// Change state; accumulates charge for the time spent in the old state.
  void set_state(RadioState next);

  /// True when the radio is powered and able to detect energy on the channel.
  bool listening() const {
    resolve();
    return is_listening(state_);
  }

  /// Apply `change` as if an event keyed (at, seq) ran it, where `seq` came
  /// from Simulator::reserve_sequence(). It takes effect only if `*gate` is
  /// true at that instant (the MAC's running flag: a stopped MAC's stale
  /// changes are no-ops). One gate per radio; `gate` must stay valid while
  /// changes are pending (clear_deferred() releases it).
  void defer(util::TimePoint at, std::uint64_t seq, DeferredChange change,
             const bool* gate);
  /// Drop the pending change keyed `seq`; false if it already took effect
  /// (or never existed).
  bool withdraw(std::uint64_t seq);
  /// Drop every pending change whose seq is `seq` or later.
  void withdraw_from(std::uint64_t seq);
  /// Apply what has taken effect, then drop every change still pending.
  void clear_deferred();
  /// Apply every pending change whose key has passed. Every accessor does
  /// this itself; the Medium calls it for radios its bitmasks summarise.
  void resolve() const {
    if (!deferred_.empty() && sim_.has_dispatched(deferred_.front().at,
                                                  deferred_.front().seq)) {
      apply_deferred();
    }
  }

  /// Begin transmitting `packet`. The radio enters kTx for the airtime and
  /// returns to kIdleListen when done, then invokes `on_done`. Returns false
  /// if the radio is off or already transmitting.
  bool transmit(const Packet& packet, std::function<void()> on_done = {});
  /// Transmit a raw preamble/wakeup burst of the given length (B-MAC LPL).
  bool transmit_carrier(util::Duration length, std::function<void()> on_done = {});

  bool transmitting() const {
    resolve();
    return state_ == RadioState::kTx;
  }

  /// Upper layer (MAC) packet delivery hook.
  void set_receive_handler(std::function<void(const Packet&)> handler) {
    receive_handler_ = std::move(handler);
  }
  /// Carrier/energy detection hook (B-MAC wakes on this).
  void set_carrier_handler(std::function<void()> handler) {
    carrier_handler_ = std::move(handler);
  }

  /// Clear-channel assessment: energy from any in-range transmitter?
  bool channel_busy() const;

  // --- Medium-facing API -----------------------------------------------
  void deliver(const Packet& packet);
  void notify_carrier();

  // --- Energy accounting -------------------------------------------------
  /// Total charge drawn so far, in milliamp-hours.
  double consumed_mah() const;
  /// Average current since t=0 (or since reset), mA.
  double average_current_ma(util::TimePoint now) const;
  /// Time spent per state, for duty-cycle verification.
  util::Duration time_in(RadioState s) const {
    resolve();
    return state_time_[static_cast<int>(s)];
  }
  void reset_energy(util::TimePoint now);

  std::size_t tx_count() const { return tx_count_; }

 private:
  struct Deferred {
    util::TimePoint at;
    std::uint64_t seq;
    DeferredChange change;
  };

  static bool is_listening(RadioState s) {
    return s == RadioState::kIdleListen || s == RadioState::kRx;
  }
  double current_for(RadioState s) const;
  /// Charge the time in the current state up to `at`.
  void accumulate(util::TimePoint at) const;
  /// Enter `next` at instant `at` (>= the last transition), charging the
  /// time spent in the old state.
  void enter(RadioState next, util::TimePoint at) const;
  /// Apply, in key order, the deferred changes whose key has passed.
  void apply_deferred() const;

  sim::Simulator& sim_;
  Medium& medium_;
  NodeId id_;
  RadioParams params_;
  // State and its accounting are mutable: const reads apply deferred
  // changes first, exactly as the events they replace would have.
  mutable RadioState state_ = RadioState::kOff;
  mutable util::TimePoint last_transition_;
  util::TimePoint energy_epoch_;
  mutable double consumed_ma_ns_ = 0.0;  // integral of current over ns
  mutable util::Duration state_time_[4] = {};
  mutable std::vector<Deferred> deferred_;  // ascending (at, seq)
  const bool* gate_ = nullptr;
  std::function<void(const Packet&)> receive_handler_;
  std::function<void()> carrier_handler_;
  std::size_t tx_count_ = 0;
};

}  // namespace evm::net
