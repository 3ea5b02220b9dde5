// E12 (extension) — failover robustness under topology churn. Not a paper
// figure, but the paper's §4 promises evaluation under "dramatic topology
// changes"; this regenerates that scenario class: while a primary-fault is
// being detected, random link outages of increasing intensity hit the VC.
// Reports detection->takeover latency and success rate per churn level.
#include <functional>
#include <iomanip>
#include <iostream>
#include <queue>
#include <vector>

#include "harness.hpp"
#include "net/link_dynamics.hpp"
#include "sim/simulator.hpp"
#include "testbed/testbed_builder.hpp"
#include "util/stats.hpp"

using namespace evm;
using TB = testbed::TestbedIds;

namespace {

struct ChurnResult {
  int successes = 0;
  int trials = 0;
  util::Samples takeover_s;
};

ChurnResult run_level(int outages_per_minute, int trials) {
  ChurnResult result;
  result.trials = trials;
  const net::NodeId nodes[] = {TB::kGateway, TB::kSensor, TB::kCtrlA,
                               TB::kCtrlB, TB::kActuator};
  for (int trial = 0; trial < trials; ++trial) {
    testbed::GasPlantTestbedConfig config;
    config.evidence_threshold = 8;
    config.dormant_delay = util::Duration::seconds(5);
    config.seed = 100 + static_cast<std::uint64_t>(trial);
    testbed::TestbedBuilder tb(config);

    // Random 4-second outages across the mesh at the requested rate.
    net::TopologyScript script(tb.sim(), tb.topology());
    util::Rng churn_rng(7000 + static_cast<std::uint64_t>(trial));
    const double horizon_s = 120.0;
    const int outages = static_cast<int>(outages_per_minute * horizon_s / 60.0);
    for (int i = 0; i < outages; ++i) {
      const auto a = nodes[churn_rng.next_below(5)];
      auto b = a;
      while (b == a) b = nodes[churn_rng.next_below(5)];
      const double at_s = churn_rng.uniform(15.0, horizon_s - 10.0);
      script.outage(util::TimePoint::zero() + util::Duration::from_seconds(at_s),
                    a, b, util::Duration::seconds(4));
    }

    tb.start();
    tb.run_until(util::Duration::seconds(20));
    tb.inject_primary_fault(75.0);
    tb.run_until(util::Duration::seconds(120));

    if (tb.service(TB::kCtrlB).mode(testbed::kLtsLevelLoop) ==
            core::ControllerMode::kActive &&
        !tb.head().failovers().empty()) {
      ++result.successes;
      result.takeover_s.add(tb.head().failovers()[0].when.to_seconds() - 20.0);
    }
  }
  return result;
}

// Reference engine for the heap-vs-calendar row below: the retired global
// binary heap (std::priority_queue of heap-allocated std::function events,
// cancellation marks consulted once per pop). Same observable semantics as
// sim::Simulator for this workload, the old cost model — O(log total-pending)
// per operation plus one allocation per event.
class RefHeapQueue {
 public:
  std::uint64_t schedule(std::int64_t when_ns, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    heap_.push(HeapEvent{when_ns, id, std::move(fn)});
    cancelled_.push_back(false);
    return id;
  }
  void cancel(std::uint64_t id) { cancelled_[id] = true; }
  void run_all() {
    while (!heap_.empty()) {
      const HeapEvent& top = heap_.top();
      if (!cancelled_[top.seq]) top.fn();
      heap_.pop();
    }
  }

 private:
  struct HeapEvent {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator<(const HeapEvent& other) const {
      if (when_ns != other.when_ns) return when_ns > other.when_ns;
      return seq > other.seq;  // min-heap, FIFO tie-break
    }
  };
  std::priority_queue<HeapEvent> heap_;
  std::vector<bool> cancelled_;  // dense by seq (stand-in for the hash set)
  std::uint64_t next_id_ = 0;
};

}  // namespace

int main() {
  std::cout << "=== E12 (extension): failover under topology churn ===\n";
  std::cout << "random 4 s link outages across the six-node VC while a\n"
               "wrong-output fault is detected (evidence window ~2 s)\n\n";
  std::cout << "  outages/min   success   takeover latency (s from fault)\n";
  bench::Reporter report("churn");
  for (int churn : {0, 5, 15, 30, 60}) {
    const auto result = run_level(churn, 10);
    std::cout << "  " << std::setw(8) << churn << "      " << std::setw(2)
              << result.successes << "/" << result.trials << "      "
              << (result.takeover_s.empty() ? std::string("-")
                                            : result.takeover_s.summary(" s"))
              << "\n";
    report.scenario("churn_" + std::to_string(churn) + "_per_min")
        .param("outages_per_minute", churn)
        .param("trials", result.trials)
        .param("outage_seconds", 4)
        .metric("successes", result.successes)
        .metric("success_rate",
                static_cast<double>(result.successes) / result.trials)
        .metric("takeover_s", result.takeover_s, "s");
  }
  // Churn cancels thousands of pending retransmit/evidence timers; the
  // calendar engine marks the node dead in place through its handle (O(1),
  // no search, no hash probe). This microbench keeps the cancel path honest:
  // per-op cost must stay flat as the pending set grows.
  std::cout << "\nSimulator cancel path (schedule + cancel + drain):\n";
  bench::print_time_header();
  for (int pending : {1000, 10000}) {
    auto timed = bench::time_scenario(
        report, "cancel_drain_" + std::to_string(pending) + "_pending",
        [pending] {
          sim::Simulator sim(1);
          std::vector<sim::EventHandle> handles;
          handles.reserve(static_cast<std::size_t>(pending));
          for (int i = 0; i < pending; ++i) {
            handles.push_back(
                sim.schedule_after(util::Duration::micros(i), [] {}));
          }
          for (const auto& h : handles) sim.cancel(h);
          sim.run_all();
        },
        10);
    timed.scenario.param("pending_events", pending);
  }

  // Heap-vs-calendar: the identical schedule/cancel/drain storm through a
  // reference build of the retired binary-heap engine and through the
  // calendar queue, timed back to back. The calendar must win — it pools
  // nodes (no per-event allocation), cancels through the handle instead of
  // marking-and-popping, and pays O(1) per schedule instead of O(log n).
  std::cout << "\nHeap vs calendar (schedule + 50% cancel + drain, 20k events):\n";
  bench::print_time_header();
  constexpr int kStormEvents = 20000;
  auto heap_row = bench::time_scenario(
      report, "storm_heap_engine",
      [] {
        RefHeapQueue queue;
        std::vector<std::uint64_t> ids;
        ids.reserve(kStormEvents);
        for (int i = 0; i < kStormEvents; ++i) {
          // Spread over ~20 ms so many slots are in play for the calendar.
          ids.push_back(queue.schedule(static_cast<std::int64_t>(i) * 1000, [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) queue.cancel(ids[i]);
        queue.run_all();
      },
      10);
  heap_row.scenario.param("engine", "binary_heap_reference")
      .param("events", kStormEvents);
  auto cal_row = bench::time_scenario(
      report, "storm_calendar_engine",
      [] {
        sim::Simulator sim(1);
        std::vector<sim::EventHandle> handles;
        handles.reserve(kStormEvents);
        for (int i = 0; i < kStormEvents; ++i) {
          handles.push_back(sim.schedule_after(util::Duration::micros(i), [] {}));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
        sim.run_all();
      },
      10);
  cal_row.scenario.param("engine", "calendar_queue").param("events", kStormEvents);

  std::cout << "\nshape: takeover latency degrades gracefully with churn —\n"
               "lost reports are retried on the next evidence window, and the\n"
               "router re-routes around down links per hop.\n";
  return report.write() ? 0 : 1;
}
