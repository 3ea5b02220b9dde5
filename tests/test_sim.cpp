#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace evm::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(300), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint(100), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint(200), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint(300));
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint(50), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_at(TimePoint(1000), [&] {
    sim.schedule_after(Duration(500), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, TimePoint(1500));
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(TimePoint(10), [&] { fired = true; });
  sim.cancel(h);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  EventHandle h = sim.schedule_at(TimePoint(10), [] {});
  sim.run_all();
  sim.cancel(h);  // no crash, no effect
  sim.cancel(EventHandle{});
  EXPECT_TRUE(sim.step() == false);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(TimePoint(i * 100), [&] { ++count; });
  }
  sim.run_until(TimePoint(500));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), TimePoint(500));
  sim.run_until(TimePoint(2000));
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint(12345));
  EXPECT_EQ(sim.now(), TimePoint(12345));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(Duration(1), chain);
  };
  sim.schedule_at(TimePoint(0), chain);
  sim.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), TimePoint(99));
}

TEST(Simulator, StepDispatchesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint(1), [&] { ++count; });
  sim.schedule_at(TimePoint(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, DeterministicRngFromSeed) {
  Simulator a(99), b(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
}

// --- Calendar-queue geometry ---------------------------------------------
// The engine is a slot-indexed calendar (ring of per-slot buckets + one
// far-future overflow bucket + a current-slot heap). These tests pin the
// behaviours the geometry could plausibly break: FIFO inside a slot, handle
// safety across node reuse, scheduling into the slot being dispatched, and
// window migration out of the overflow bucket.

// One calendar slot spans 2^kSlotShiftBits ns. Schedule bursts of identical
// timestamps *within one slot* and across its boundary: FIFO must hold
// inside each timestamp group and time order across groups, i.e. dispatch
// order is exactly ascending (when, sequence).
TEST(Simulator, SameSlotEventsDispatchInInsertionOrder) {
  Simulator sim;
  const std::int64_t slot_ns = std::int64_t{1} << Simulator::kSlotShiftBits;
  std::vector<int> order;
  int tag = 0;
  // Three timestamp groups inside slot 0 plus one in slot 1, scheduled
  // round-robin so insertion order disagrees with schedule-call grouping.
  const TimePoint when[] = {TimePoint(10), TimePoint(10), TimePoint(slot_ns / 2),
                            TimePoint(slot_ns + 5), TimePoint(10),
                            TimePoint(slot_ns / 2)};
  std::vector<std::pair<std::int64_t, int>> expected;
  for (const TimePoint& w : when) {
    const int id = tag++;
    expected.emplace_back(w.ns(), id);
    sim.schedule_at(w, [&order, id] { order.push_back(id); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run_all();
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(order[i], expected[i].second) << "position " << i;
  }
}

// A handle outlives its event; the node it names is recycled for a fresh
// event. Cancelling the stale handle must be a no-op — the new occupant
// carries a new issue id — and must not corrupt pending_events().
TEST(Simulator, CancelAfterDispatchCannotKillRecycledNode) {
  Simulator sim;
  bool first_fired = false;
  EventHandle stale = sim.schedule_at(TimePoint(1), [&] { first_fired = true; });
  sim.run_until(TimePoint(2));
  ASSERT_TRUE(first_fired);
  // The pool now recycles the node for the next event.
  bool second_fired = false;
  sim.schedule_at(TimePoint(10), [&] { second_fired = true; });
  sim.cancel(stale);  // stale id: must not touch the recycled node
  sim.cancel(stale);  // and double-cancel stays a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_TRUE(second_fired);
}

// An event that schedules into its own (current) slot — including at the
// very timestamp being dispatched — runs in this pass, after every
// already-pending event of the same timestamp (sequence order).
TEST(Simulator, ScheduleIntoCurrentSlotDispatchesThisPass) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(100), [&] {
    order.push_back(0);
    sim.schedule_at(TimePoint(100), [&] { order.push_back(2); });
    sim.schedule_after(Duration(1), [&] { order.push_back(3); });
  });
  sim.schedule_at(TimePoint(100), [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint(101));
}

// Events beyond the ring window (kRingSlots calendar slots) park in the
// overflow bucket and migrate into the ring as the window advances; order
// across the boundary must be seamless and the bucket must drain to zero.
TEST(Simulator, FarFutureEventsWaitInOverflowAndMigrateInOrder) {
  Simulator sim;
  const std::int64_t slot_ns = std::int64_t{1} << Simulator::kSlotShiftBits;
  const std::int64_t window_ns = slot_ns * static_cast<std::int64_t>(Simulator::kRingSlots);
  std::vector<int> order;
  // Far-future first (3 window-widths out), then near events: the far ones
  // must sit in overflow now and still dispatch last.
  sim.schedule_at(TimePoint(3 * window_ns + 7), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint(3 * window_ns + 7), [&] { order.push_back(4); });
  EXPECT_EQ(sim.overflow_events(), 2u);
  sim.schedule_at(TimePoint(5), [&] { order.push_back(0); });
  sim.schedule_at(TimePoint(window_ns - 1), [&] { order.push_back(1); });
  // In-window cancel and an overflow cancel: both reclaimed lazily, neither
  // dispatches.
  EventHandle dead = sim.schedule_at(TimePoint(2 * window_ns), [&] { order.push_back(99); });
  sim.cancel(dead);
  sim.schedule_at(TimePoint(window_ns + 3), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.overflow_events(), 0u);
}

// Heavy schedule/cancel/dispatch churn recycles nodes through the pool.
// After the storm, the engine must still dispatch a fresh batch in exact
// (when, seq) order with zero residue — recycled nodes carry no stale state.
TEST(Simulator, PoolReuseAfterHeavyChurnStaysOrdered) {
  Simulator sim;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 40; ++i) {
      handles.push_back(sim.schedule_after(Duration(1 + (i * 37) % 97),
                                           [&] { ++fired; }));
    }
    // Cancel every other one, including some twice.
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      sim.cancel(handles[i]);
      sim.cancel(handles[i]);
    }
    sim.run_until(sim.now() + Duration(200));
  }
  EXPECT_EQ(fired, 50 * 20);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The engine is still fully ordered after the churn.
  std::vector<int> order;
  for (int i = 9; i >= 0; --i) {
    sim.schedule_after(Duration(10 + i), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// --- Lazily applied occurrences (reserve_sequence / has_dispatched) -------

TEST(Simulator, ReserveSequenceTakesExactlyOneScheduleSlot) {
  Simulator sim;
  const std::uint64_t first = sim.reserve_sequence();
  sim.schedule_at(TimePoint(10), [] {});
  const std::uint64_t second = sim.reserve_sequence();
  EXPECT_EQ(second, first + 2);  // the event in between took first + 1
  EXPECT_EQ(sim.reserve_sequence(), second + 1);
  EXPECT_EQ(sim.pending_events(), 1u);  // reserving schedules nothing
}

TEST(Simulator, HasDispatchedDuringDispatchOrdersByWhenThenSeq) {
  Simulator sim;
  const TimePoint t(100);
  std::uint64_t lazy = 0;
  std::vector<bool> seen;
  const auto check = [&] { seen.push_back(sim.has_dispatched(t, lazy)); };
  sim.schedule_at(TimePoint(50), check);
  sim.schedule_at(t, check);
  // `lazy` sits between the two events at t, as an event scheduled here would.
  lazy = sim.reserve_sequence();
  sim.schedule_at(t, check);
  sim.schedule_at(TimePoint(150), check);
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<bool>{false, false, true, true}));
}

TEST(Simulator, HasDispatchedAfterStepUsesTheLastEventsKey) {
  Simulator sim;
  const TimePoint t(10);
  EXPECT_FALSE(sim.has_dispatched(TimePoint::zero(), sim.reserve_sequence()));
  sim.schedule_at(t, [] {});
  const std::uint64_t lazy = sim.reserve_sequence();
  sim.schedule_at(t, [] {});
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.has_dispatched(t, lazy));  // the second event at t is next
  ASSERT_TRUE(sim.step());
  EXPECT_TRUE(sim.has_dispatched(t, lazy));
  EXPECT_FALSE(sim.has_dispatched(TimePoint(11), 0));
}

TEST(Simulator, HasDispatchedAfterRunUntilCoversTheWholeHorizon) {
  Simulator sim;
  const TimePoint t(10);
  sim.schedule_at(t, [] {});
  const std::uint64_t lazy = sim.reserve_sequence();
  sim.run_until(TimePoint(9));
  EXPECT_FALSE(sim.has_dispatched(t, lazy));
  sim.run_until(t);
  // Every event at t would have run by now, whatever its sequence number.
  EXPECT_TRUE(sim.has_dispatched(t, lazy));
  EXPECT_TRUE(sim.has_dispatched(t, ~0ull));
  EXPECT_FALSE(sim.has_dispatched(TimePoint(11), 0));
  // A horizon in the past moves nothing back.
  sim.run_until(TimePoint(5));
  EXPECT_TRUE(sim.has_dispatched(t, lazy));
  // Quiet time counts too: nothing was scheduled between 10 and 40.
  sim.run_until(TimePoint(40));
  EXPECT_TRUE(sim.has_dispatched(TimePoint(40), ~0ull));
}

TEST(Simulator, HasDispatchedAfterRunAllCoversNow) {
  Simulator sim;
  const std::uint64_t lazy = sim.reserve_sequence();
  sim.schedule_at(TimePoint(20), [] {});
  const std::uint64_t later = sim.reserve_sequence();
  sim.run_all();
  EXPECT_TRUE(sim.has_dispatched(TimePoint(20), lazy));
  EXPECT_TRUE(sim.has_dispatched(TimePoint(20), later));
  EXPECT_FALSE(sim.has_dispatched(TimePoint(21), later));
}

// schedule_reserved: a key reserved earlier dispatches exactly where an event
// scheduled at reservation time would have, wherever the calendar files it
// (current-slot heap, ring bucket, overflow bucket), ties at `when` included.
TEST(Simulator, ScheduleReservedDispatchesWhereAReservationTimeEventWould) {
  const std::int64_t slot_ns = std::int64_t{1} << Simulator::kSlotShiftBits;
  const std::int64_t window_ns = slot_ns * static_cast<std::int64_t>(Simulator::kRingSlots);
  for (const std::int64_t at : {slot_ns / 2, 5 * slot_ns + 3, 3 * window_ns + 7}) {
    SCOPED_TRACE(at);
    const TimePoint w(at);
    // Reference: the event is scheduled when the key is reserved.
    std::vector<int> eager;
    {
      Simulator sim;
      sim.schedule_at(w, [&] { eager.push_back(1); });
      sim.schedule_at(w - Duration(1), [&] { eager.push_back(0); });
      sim.schedule_at(w, [&] { eager.push_back(2); });
      sim.schedule_at(w, [&] { eager.push_back(3); });
      sim.schedule_at(w + Duration(1), [&] { eager.push_back(4); });
      sim.run_all();
    }
    // Lazy: the same key is reserved, then scheduled once the rest is queued.
    std::vector<int> lazy;
    Simulator sim;
    sim.schedule_at(w, [&] { lazy.push_back(1); });
    sim.schedule_at(w - Duration(1), [&] { lazy.push_back(0); });
    const std::uint64_t seq = sim.reserve_sequence();
    sim.schedule_at(w, [&] { lazy.push_back(3); });
    sim.schedule_at(w + Duration(1), [&] { lazy.push_back(4); });
    sim.schedule_reserved(w, seq, [&] { lazy.push_back(2); });
    EXPECT_EQ(sim.overflow_events(), at > window_ns ? 5u : 0u);
    sim.run_all();
    EXPECT_EQ(lazy, eager);
    EXPECT_EQ(lazy, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

// Promoting a key from inside a dispatch: from an event one nanosecond
// before it, and from the event just ahead of it at the same instant.
TEST(Simulator, ScheduleReservedFromADispatchKeepsTheReservedPlace) {
  Simulator sim;
  const TimePoint w(1000);
  std::vector<int> order;
  std::uint64_t early = 0;
  std::uint64_t tied = 0;
  sim.schedule_at(w - Duration(1), [&] {
    order.push_back(0);
    sim.schedule_reserved(w, early, [&] { order.push_back(1); });
  });
  early = sim.reserve_sequence();
  sim.schedule_at(w, [&] {
    order.push_back(2);
    sim.schedule_reserved(w, tied, [&] { order.push_back(3); });
  });
  tied = sim.reserve_sequence();
  sim.schedule_at(w, [&] { order.push_back(4); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleReservedRejectsADispatchedKey) {
  Simulator sim;
  const TimePoint t(10);
  const std::uint64_t seq = sim.reserve_sequence();
  bool threw_in_dispatch = false;
  // An event after the key at the same instant: the key has passed.
  sim.schedule_at(t, [&] {
    try {
      sim.schedule_reserved(t, seq, [] {});
    } catch (const std::logic_error&) {
      threw_in_dispatch = true;
    }
  });
  sim.step();
  EXPECT_TRUE(threw_in_dispatch);
  EXPECT_THROW(sim.schedule_reserved(t, seq, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_reserved(TimePoint(5), seq, [] {}), std::logic_error);
  // After run_until(t) every key at t has passed, whatever its seq.
  const std::uint64_t late = sim.reserve_sequence();
  sim.run_until(t);
  EXPECT_THROW(sim.schedule_reserved(t, late, [] {}), std::logic_error);
  // A seq that reserve_sequence() never handed out is refused too.
  EXPECT_THROW(sim.schedule_reserved(TimePoint(20), late + 1, [] {}), std::logic_error);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The same seq under a later instant is a key that has not passed.
  bool fired = false;
  sim.schedule_reserved(TimePoint(11), late, [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
}

// --- Trace ---------------------------------------------------------------

TEST(Trace, RecordsAndLooksUp) {
  Trace trace;
  trace.record("level", TimePoint(0), 50.0);
  trace.record("level", TimePoint(1000), 51.0);
  trace.record("level", TimePoint(2000), 52.0);
  EXPECT_EQ(trace.value_at("level", TimePoint(0)), 50.0);
  EXPECT_EQ(trace.value_at("level", TimePoint(1500)), 51.0);  // step-hold
  EXPECT_EQ(trace.value_at("level", TimePoint(5000)), 52.0);
  EXPECT_EQ(trace.last_value("level"), 52.0);
}

TEST(Trace, MinMax) {
  Trace trace;
  trace.record("x", TimePoint(0), 5.0);
  trace.record("x", TimePoint(1), -3.0);
  trace.record("x", TimePoint(2), 9.0);
  EXPECT_EQ(trace.min_value("x"), -3.0);
  EXPECT_EQ(trace.max_value("x"), 9.0);
}

TEST(Trace, MissingSeriesIsZero) {
  Trace trace;
  EXPECT_EQ(trace.value_at("ghost", TimePoint(0)), 0.0);
  EXPECT_EQ(trace.find("ghost"), nullptr);
}

TEST(Trace, PrintTableHasHeaderAndRows) {
  Trace trace;
  trace.record("a", TimePoint(0), 1.0);
  trace.record("a", TimePoint::zero() + Duration::seconds(10), 2.0);
  trace.record("b", TimePoint(0), 3.0);
  std::ostringstream os;
  trace.print_table(os, Duration::seconds(5));
  const std::string out = os.str();
  EXPECT_NE(out.find("time_s"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("b"), std::string::npos);
  // 3 time rows (0, 5, 10) + header.
  int lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
}

TEST(Trace, SeriesNamesAndTotals) {
  Trace trace;
  trace.record("a", TimePoint(0), 1.0);
  trace.record("b", TimePoint(0), 1.0);
  trace.record("b", TimePoint(1), 2.0);
  EXPECT_EQ(trace.series_names().size(), 2u);
  EXPECT_EQ(trace.total_samples(), 3u);
  trace.clear();
  EXPECT_EQ(trace.total_samples(), 0u);
}

}  // namespace
}  // namespace evm::sim
