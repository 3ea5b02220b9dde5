// RT-Link: the time-synchronized TDMA link protocol the EVM rides on
// (Rowe, Mangharam, Rajkumar — IEEE SECON 2006). Time is divided into fixed
// frames of N slots; each slot has exactly one licensed transmitter, so
// communication is collision-free provided every node's clock error stays
// inside the guard interval. Nodes sleep in every slot they neither transmit
// in nor need to listen to — that is where the lifetime advantage over
// B-MAC / S-MAC comes from.
//
// Hot-path note (ROADMAP items 1, 2 and 4): the slot table is a flat vector
// indexed by slot, and each node derives a *merged timeline* of its frame
// once, at start(): one entry per TX slot plus one per listen/sleep
// transition, not one per slot. The schedule is frozen from the first
// start() on, so the timeline never changes while the MAC runs.
//
// Frames cost no events while time sync runs. A frame depends only on the
// clock mapping at its boundary (half a slot before its first slot), the
// timeline and the queue, and the mapping changes only when a time-sync
// reception lands or the drift changes. So at each pulse, which tells the
// clock when the next pulse is due, the node plans every frame whose
// boundary falls before that instant, each through the mapping that will be
// in force at its boundary. A drift change or a discipline() withdraws the
// frames whose boundary has not come and plans them again; a stop()
// withdraws them. A node whose clock expects no pulse (time sync stopped,
// detached or not started) plans one frame per frame event instead.
//
// Planning a frame reserves, in timeline order, the sequence number each
// action's event would have taken. Listen starts and sleeps only change
// this node's radio, so they go to Radio::defer keyed (instant, seq), and
// every read of the radio applies them as the events would have. A TX
// slot's guard-delayed pop is keyed (slot start + guard, seq) and deferred
// as an idle kOff (what an empty pop does). Whenever the queue holds a
// packet, the earliest pop still to come is a real event under its key:
// send() promotes it, and so does a pop that leaves the queue non-empty.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/clock.hpp"
#include "net/mac.hpp"
#include "net/timesync.hpp"
#include "obs/trace_recorder.hpp"

namespace evm::net {

/// One state change inside a frame, at `slot` slot-lengths past the frame's
/// first slot (kSleep entries may sit at slots_per_frame: the trailing
/// frame edge).
struct SlotAction {
  enum Kind : std::uint8_t {
    kTx,           // guard-delayed pop-and-transmit
    kListenStart,  // first slot of a listen run: radio on
    kSleep,        // listen run ended: radio off (unless mid-transmit)
  };
  int slot;
  Kind kind;

  friend bool operator==(const SlotAction&, const SlotAction&) = default;
};

/// Global slot schedule shared by every RT-Link node in one network. It is
/// frozen by the first timeline_of() call, which RtLink::start() makes:
/// from then on assign_tx and set_listeners throw std::logic_error.
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
  /// Transmitter of `slot`, or kInvalidNode.
  NodeId tx_of(int slot) const {
    return slot >= 0 && slot < slots_per_frame_ ? tx_[slot] : kInvalidNode;
  }

  /// Restrict who listens in `slot`. Without an entry, every node listens
  /// (safe default; costs every node that slot's listen energy).
  void set_listeners(int slot, std::set<NodeId> listeners);
  bool should_listen(int slot, NodeId node) const;

  /// `node`'s merged frame timeline, ascending slot: a kTx per owned slot,
  /// a kListenStart where a listen run begins and a kSleep where one ends.
  /// A run flowing into the node's own TX slot has no kSleep (the radio
  /// stays up through the guard), and a run reaching the frame edge has
  /// one at slots_per_frame only if slot 0 neither listens nor transmits.
  /// Freezes the schedule.
  std::vector<SlotAction> timeline_of(NodeId node);

 private:
  /// Maximal run of assigned slots sharing one listener rule: nullptr for
  /// "everyone but the owner listens", else a one-slot run's listener set.
  struct Run {
    int begin;
    int end;
    const std::set<NodeId>* listeners;
  };
  void freeze();
  void check_not_frozen() const;

  int slots_per_frame_;
  util::Duration slot_length_;
  util::Duration guard_;
  std::vector<NodeId> tx_;  // indexed by slot; kInvalidNode = unassigned
  std::map<int, std::set<NodeId>> listeners_;
  bool frozen_ = false;
  std::vector<Run> runs_;                       // ascending, built by freeze()
  std::vector<std::pair<NodeId, int>> owned_;   // (owner, slot), sorted
};

class RtLink final : public Mac, private ClockListener {
 public:
  /// Registers with `clock` as its listener until destroyed.
  RtLink(sim::Simulator& sim, Radio& radio, NodeClock& clock,
         RtLinkSchedule& schedule, std::size_t queue_capacity = 32);
  /// Drops the radio changes still deferred (they read running_).
  ~RtLink() override;

  void start() override;
  void stop() override;
  util::Status send(Packet packet) override;

  /// Frames whose boundary has come.
  std::size_t frames_run() const;

  /// TX slots in which this node actually keyed its transmitter (a packet
  /// was popped and sent). Idle licensed slots — slept through — don't
  /// count, so slots_used() / (frames_run() * owned slots) is the node's
  /// real slot utilisation.
  std::size_t slots_used() const { return slots_used_; }

  /// Opt-in event tracing (nullptr disables): a "frame" instant at each
  /// frame boundary, recorded when the frame is planned, and a "tx" span
  /// covering each used TX slot. Recording never perturbs slot decisions.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  /// A TX slot's pop deferred as an idle kOff, kept so it can be promoted
  /// to a real event under the same key.
  struct IdlePop {
    util::TimePoint at;
    std::uint64_t seq;
    int slot;
  };
  /// A frame planned ahead of its boundary, keyed (boundary, seq); every
  /// key its actions reserved comes after seq.
  struct PlannedFrame {
    util::TimePoint boundary;
    std::uint64_t seq;
  };

  /// The clock announced a pulse, stopped expecting one, or moved its
  /// mapping: plan again from the first frame whose boundary has not come.
  void on_clock_change() override;
  /// Plan from next_boundary_: every frame before the announced pulse, or,
  /// with none announced, the frame due now and a frame event for the next.
  void plan();
  void plan_frame();
  /// Count the planned frames whose boundary has come; withdraw the rest
  /// and rewind next_boundary_ to the first of them.
  void withdraw_unbegun();
  /// With a packet queued and no pop event pending, make the earliest idle
  /// pop still to come a real event under its key.
  void promote_pop();
  /// A TX slot's pop, `guard` into the slot: transmit the next queued
  /// packet, or sleep through the slot.
  void pop(int slot);

  NodeClock& clock_;
  RtLinkSchedule& schedule_;
  obs::TraceRecorder* trace_ = nullptr;
  std::size_t frames_ = 0;  // begun frames, those still in planned_ aside
  std::size_t slots_used_ = 0;
  std::vector<SlotAction> timeline_;  // per-frame actions, ascending slot
  std::vector<IdlePop> idle_pops_;
  std::vector<PlannedFrame> planned_;
  util::TimePoint next_boundary_;  // of the first frame not yet planned
  std::uint64_t pop_seq_ = 0;      // key seq of the pending pop event; 0: none
  sim::EventHandle pop_event_;
  sim::EventHandle frame_event_;
};

}  // namespace evm::net
