// RT-Link: the time-synchronized TDMA link protocol the EVM rides on
// (Rowe, Mangharam, Rajkumar — IEEE SECON 2006). Time is divided into fixed
// frames of N slots; each slot has exactly one licensed transmitter, so
// communication is collision-free provided every node's clock error stays
// inside the guard interval. Nodes sleep in every slot they neither transmit
// in nor need to listen to — that is where the lifetime advantage over
// B-MAC / S-MAC comes from.
//
// Hot-path note (ROADMAP items 1 and 2): the slot table is a flat vector
// indexed by slot, and each node caches a *merged timeline* of its frame —
// one entry per TX slot plus one per listen/sleep transition, not one per
// slot. The timeline is rebuilt when `RtLinkSchedule::version()` moves,
// which pins down the documented contract: schedule mutations take effect
// at the next frame boundary.
//
// Only two kinds of action are events. Each node-frame is one (the frame
// boundary), and so is each TX slot that may pop a packet. At the frame
// boundary every timeline action reserves the sequence number its event
// would have taken, in timeline order. Listen starts and sleeps only change
// this node's radio, so they go to Radio::defer keyed (instant, seq), and
// every read of the radio applies them as the events would have. A TX
// slot's guard-delayed pop is keyed (slot start + guard, seq). It is a real
// event when the queue holds a packet at the frame boundary. Otherwise it is
// a deferred kOff (what an empty pop does), and send() promotes it to a real
// event under the same key if a packet arrives before that key passes.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/clock.hpp"
#include "net/mac.hpp"
#include "net/timesync.hpp"
#include "obs/trace_recorder.hpp"

namespace evm::net {

/// Global slot schedule shared by every RT-Link node in one network. The
/// EVM's "network time-slot assignment" parametric operation mutates this
/// at runtime; nodes pick the change up at their next frame boundary.
class RtLinkSchedule {
 public:
  RtLinkSchedule(int slots_per_frame, util::Duration slot_length,
                 util::Duration guard = util::Duration::micros(200));

  int slots_per_frame() const { return slots_per_frame_; }
  util::Duration slot_length() const { return slot_length_; }
  util::Duration guard() const { return guard_; }
  util::Duration frame_length() const { return slot_length_ * slots_per_frame_; }

  /// License `node` to transmit in `slot` (replacing any previous owner).
  /// Slots outside [0, slots_per_frame) are ignored — they never run.
  void assign_tx(int slot, NodeId node);
  void clear_slot(int slot);
  /// Transmitter of `slot`, or kInvalidNode.
  NodeId tx_of(int slot) const {
    return slot >= 0 && slot < slots_per_frame_ ? tx_[slot] : kInvalidNode;
  }
  /// All slots licensed to `node`, ascending.
  std::vector<int> slots_of(NodeId node) const;

  /// Restrict who listens in `slot`. Without an entry, every node listens
  /// (safe default; costs energy — see bench_mac_lifetime's ablation).
  void set_listeners(int slot, std::set<NodeId> listeners);
  bool should_listen(int slot, NodeId node) const;

  /// Monotonic version, bumped on every mutation; nodes re-read the
  /// schedule (rebuild their cached timelines) when the version changes.
  std::uint64_t version() const { return version_; }

 private:
  int slots_per_frame_;
  util::Duration slot_length_;
  util::Duration guard_;
  std::vector<NodeId> tx_;  // indexed by slot; kInvalidNode = unassigned
  std::map<int, std::set<NodeId>> listeners_;
  std::uint64_t version_ = 0;
};

class RtLink final : public Mac {
 public:
  RtLink(sim::Simulator& sim, Radio& radio, NodeClock& clock,
         RtLinkSchedule& schedule, std::size_t queue_capacity = 32);
  /// Drops the radio changes still deferred (they read running_).
  ~RtLink() override;

  void start() override;
  void stop() override;
  util::Status send(Packet packet) override;

  /// The shared slot schedule (the EVM's parametric slot-assignment
  /// operation mutates it through this).
  RtLinkSchedule& schedule_ref() { return schedule_; }

  /// End-to-end worst-case queueing delay for one packet given the node's
  /// current slot allocation: one full frame if a single slot is owned.
  util::Duration worst_case_access_delay() const;

  std::size_t frames_run() const { return frames_; }

  /// TX slots in which this node actually keyed its transmitter (a packet
  /// was popped and sent). Idle licensed slots — slept through — don't
  /// count, so slots_used() / (frames_run() * owned slots) is the node's
  /// real slot utilisation.
  std::size_t slots_used() const { return slots_used_; }

  /// Opt-in event tracing (nullptr disables): a "frame" instant at each
  /// frame boundary and a "tx" span covering each used TX slot. Recording
  /// never perturbs slot decisions.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  /// One scheduled state change inside a frame, at `slot` slot-lengths past
  /// the frame boundary (kSleep entries may sit at slots_per_frame: the
  /// trailing frame edge).
  struct SlotAction {
    enum Kind : std::uint8_t {
      kTx,           // guard-delayed pop-and-transmit
      kListenStart,  // first slot of a listen run: radio on
      kSleep,        // listen run ended: radio off (unless mid-transmit)
    };
    int slot;
    Kind kind;
  };
  /// A TX slot's pop deferred as an idle kOff at its frame boundary, kept
  /// so send() can promote it to a real event under the same key.
  struct IdlePop {
    util::TimePoint at;
    std::uint64_t seq;
    int slot;
  };

  void begin_frame();
  /// Recompute the merged timeline from the schedule if its version moved.
  void refresh_timeline();
  /// A TX slot's pop, `guard` into the slot: transmit the next queued
  /// packet, or sleep through the slot.
  void pop(int slot);

  NodeClock& clock_;
  RtLinkSchedule& schedule_;
  obs::TraceRecorder* trace_ = nullptr;
  std::size_t frames_ = 0;
  std::size_t slots_used_ = 0;
  std::vector<SlotAction> timeline_;      // per-frame actions, ascending slot
  std::vector<IdlePop> idle_pops_;
  std::uint64_t timeline_version_ = ~0ull;
  sim::EventHandle frame_event_;
};

}  // namespace evm::net
