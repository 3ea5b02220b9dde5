// Deterministic discrete-event simulator. Everything in the repository —
// radios, MAC protocols, RTOS scheduling, plant integration — is driven by
// one instance of this clock, so a whole hardware-in-loop experiment is a
// pure function of (configuration, seed).
//
// Engine (ROADMAP item 1, round 2): a slot-indexed calendar queue over
// pooled, intrusively linked event nodes. Virtual time is divided into
// ~1 ms slots (kSlotShiftBits); a ring of kRingSlots buckets covers the
// next ~1 s of slots, one singly linked FIFO list per bucket, and events
// beyond the ring horizon wait in a single overflow bucket that is migrated
// forward as the window advances. Only the *current* slot's events sit in a
// tiny binary heap, so schedule and cancel are O(1) and dispatch pays
// O(log current-slot-population) — against the former global binary heap's
// O(log total-pending) per operation plus a hash-set probe per pop.
// Callables live in the node itself (EventFn small-buffer storage), so
// steady-state scheduling performs no heap allocation at all.
//
// Ordering contract (the determinism invariant every consumer leans on):
// events dispatch in strictly ascending (when, sequence) order, where
// sequence is assigned at schedule time — i.e. simultaneous events run in
// insertion order. This is byte-identical to the binary-heap engine it
// replaces; the calendar changes the cost model, never the order.
//
// Lazily applied occurrences share that order. A component may take a
// sequence number with reserve_sequence() instead of scheduling an event,
// and apply its effect on the next read that finds has_dispatched() true
// for that (when, seq) key. Every read then sees exactly the state an event
// scheduled at that point would have left, exact-nanosecond ties included
// (time-sync pulse receptions, see net::NodeClock, and RT-Link's radio
// changes, see net::Radio, work this way). An occurrence that turns out to
// need a real event after all (an RT-Link TX slot that finds a packet
// queued) becomes one through schedule_reserved(), under the key it already
// holds, so promoting it moves nothing in the order.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace evm::sim {

using util::Duration;
using util::TimePoint;

/// One pooled event: schedule target, FIFO tie-break, liveness id, calendar
/// slot, the intrusive bucket link and the callable itself. Nodes are reused
/// through a free list; `id` is re-issued on every schedule, so a stale
/// EventHandle can never cancel the node's next occupant.
struct EventNode {
  TimePoint when;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;  // 0 = not currently a live pending event
  std::uint64_t slot = 0;
  EventNode* next = nullptr;
  bool cancelled = false;
  EventFn fn;
};

/// Handle used to cancel a pending event. Default-constructed handles are
/// inert. A handle names (node, issue id); once the event fires or is
/// cancelled the id no longer matches, so late cancels are safe no-ops even
/// after the node has been recycled for a different event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Simulator;
  EventHandle(EventNode* node, std::uint64_t id) : node_(node), id_(id) {}
  EventNode* node_ = nullptr;
  std::uint64_t id_ = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }
  util::Rng& rng() { return rng_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Accepts any
  /// callable; closures up to EventFn::kInlineBytes are stored inline in the
  /// pooled event node (no heap allocation).
  template <typename F>
  EventHandle schedule_at(TimePoint when, F&& fn) {
    EventNode* node = acquire_node();
    node->fn.emplace(std::forward<F>(fn));
    return enqueue(node, when, next_sequence_++);
  }
  /// Schedule `fn` under a key whose seq came from reserve_sequence(): it
  /// dispatches exactly where an event scheduled at reservation time would
  /// have. Throws std::logic_error if that key has already dispatched or
  /// `seq` was never handed out.
  template <typename F>
  EventHandle schedule_reserved(TimePoint when, std::uint64_t seq, F&& fn) {
    if (seq >= next_sequence_ || has_dispatched(when, seq)) {
      throw std::logic_error(
          "Simulator::schedule_reserved: key already dispatched or never reserved");
    }
    EventNode* node = acquire_node();
    node->fn.emplace(std::forward<F>(fn));
    return enqueue(node, when, seq);
  }
  /// Schedule `fn` to run `delay` from now.
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  /// Cancel a pending event: O(1), no search. Safe to call on fired,
  /// cancelled or default handles. The node is marked dead in place and
  /// reclaimed when its bucket drains (lazy removal keeps cancel free of
  /// list surgery).
  void cancel(EventHandle handle);

  /// Run until the event queue drains or `until` is reached, whichever is
  /// first. Returns the number of events dispatched.
  std::size_t run_until(TimePoint until);
  /// Run until the queue drains (use only for workloads known to terminate).
  std::size_t run_all();
  /// Dispatch exactly one event if present; returns false when queue empty.
  bool step();

  /// Consume the sequence number the next schedule_at would have taken,
  /// without scheduling anything (see the ordering contract above).
  std::uint64_t reserve_sequence() { return next_sequence_++; }
  /// True once an event keyed (when, seq) would already have dispatched.
  /// Compares against the key of the event being dispatched; after step()
  /// against the key of the event it ran, and after run_until(until) or
  /// run_all() against (now, +inf), since those drain every event at now.
  bool has_dispatched(TimePoint when, std::uint64_t seq) const {
    return when < frontier_when_ ||
           (when == frontier_when_ && seq <= frontier_seq_);
  }

  std::size_t pending_events() const { return live_count_; }
  std::size_t dispatched_events() const { return dispatched_; }
  /// High-water mark of live (non-cancelled) pending events over the run so
  /// far — the obs plane's "sim.queue_depth_max" gauge. Calendar-aware
  /// definition: the count spans the current-slot heap, every ring bucket
  /// and the overflow bucket, minus events already cancelled in place, and
  /// is sampled at schedule time exactly as the heap engine sampled it.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  // --- Calendar geometry (exposed for tests and the churn bench) ----------
  /// log2 of the calendar slot width in nanoseconds (~1.05 ms slots).
  static constexpr int kSlotShiftBits = 20;
  /// Ring capacity in slots; events further out wait in the overflow bucket.
  static constexpr std::uint64_t kRingSlots = 1024;
  /// Events currently parked in the far-future overflow bucket (includes
  /// cancelled-in-place nodes until the next migration reclaims them).
  std::size_t overflow_events() const { return overflow_.size(); }

 private:
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  /// Min-heap comparator over (when, seq): true when `a` dispatches after
  /// `b`. Identical tie-break to the retired binary-heap engine.
  struct NodeAfter {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  EventNode* acquire_node();
  void release_node(EventNode* node);
  EventHandle enqueue(EventNode* node, TimePoint when, std::uint64_t seq);
  void push_current(EventNode* node);
  /// Next live event without dispatching it (advances the calendar window
  /// over empty slots and reclaims cancelled nodes in passing).
  EventNode* peek();
  /// Pop `node` (the current heap top) and run it.
  void dispatch(EventNode* node);
  /// Move cur_slot_ to the next populated slot (ring or overflow).
  void advance();
  /// Splice ring bucket `slot` into the current-slot heap.
  void take_bucket(std::uint64_t slot);
  /// Pull overflow events that now fall inside the ring window into their
  /// ring buckets; recompute the overflow minimum.
  void migrate_overflow();
  /// Minimal occupied ring slot strictly after cur_slot_ (bitmap scan).
  std::uint64_t next_ring_slot() const;
  std::uint64_t find_ring_bit(std::uint64_t lo, std::uint64_t hi) const;

  TimePoint now_;
  util::Rng rng_;

  // Calendar state. cur_slot_ is the slot the current heap was filled from;
  // the ring window is (cur_slot_, cur_slot_ + kRingSlots). Invariants:
  // ring buckets only ever hold events of a single slot value each (window
  // arithmetic, see enqueue/migrate); events scheduled into the current or
  // an earlier slot go straight to the current heap, which orders them by
  // (when, seq) regardless of slot.
  std::uint64_t cur_slot_ = 0;
  std::vector<EventNode*> current_;  // binary heap, NodeAfter comparator
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> ring_bits_;  // bucket occupancy bitmap
  std::size_t ring_count_ = 0;            // nodes resident in ring buckets
  std::vector<EventNode*> overflow_;
  std::uint64_t overflow_min_slot_ = ~0ull;

  // Node pool: fixed-size chunks, never freed until destruction, recycled
  // through free_nodes_. Heavy churn therefore reuses storage instead of
  // exercising the allocator.
  std::vector<std::unique_ptr<EventNode[]>> pool_;
  std::vector<EventNode*> free_nodes_;

  std::uint64_t next_sequence_ = 1;
  // Key of the latest dispatch (see has_dispatched); seq ~0 once a run has
  // drained every event at frontier_when_.
  TimePoint frontier_when_;
  std::uint64_t frontier_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t live_count_ = 0;  // pending minus cancelled-in-place
  std::size_t dispatched_ = 0;
  std::size_t max_queue_depth_ = 0;
};

/// RAII installer that points the global logger's timestamps at a simulator.
class ScopedLogClock {
 public:
  explicit ScopedLogClock(const Simulator& sim);
  ~ScopedLogClock();
};

}  // namespace evm::sim
