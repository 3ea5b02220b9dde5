#include <gtest/gtest.h>

#include "rtos/scheduler.hpp"

namespace evm::rtos {
namespace {

using util::Duration;
using util::TimePoint;

struct SchedulerFixture : ::testing::Test {
  sim::Simulator sim{2};
  Scheduler scheduler{sim};

  void run_for(Duration d) { sim.run_until(sim.now() + d); }
};

TaskParams periodic(const std::string& name, std::int64_t period_ms,
                    std::int64_t wcet_ms, Priority priority) {
  TaskParams p;
  p.name = name;
  p.period = Duration::millis(period_ms);
  p.wcet = Duration::millis(wcet_ms);
  p.priority = priority;
  return p;
}

TEST_F(SchedulerFixture, PeriodicReleasesAndCompletions) {
  int runs = 0;
  TaskId id = scheduler.add_task(periodic("t", 100, 10, 1), [&] { ++runs; });
  ASSERT_TRUE(scheduler.activate(id));
  run_for(Duration::seconds(1));
  // Releases at 0,100,...,900 -> 10 jobs, each completing 10 ms later.
  EXPECT_EQ(runs, 10);
  EXPECT_EQ(scheduler.task(id)->stats.completions, 10u);
  EXPECT_EQ(scheduler.task(id)->stats.deadline_misses, 0u);
}

TEST_F(SchedulerFixture, PhaseDelaysFirstRelease) {
  int runs = 0;
  TaskParams p = periodic("t", 100, 1, 1);
  p.phase = Duration::millis(550);
  TaskId id = scheduler.add_task(p, [&] { ++runs; });
  (void)scheduler.activate(id);
  run_for(Duration::millis(500));
  EXPECT_EQ(runs, 0);
  run_for(Duration::millis(500));
  EXPECT_EQ(runs, 5);  // releases at 550, 650, 750, 850, 950
}

TEST_F(SchedulerFixture, HigherPriorityPreempts) {
  // Low-priority long task released at 0; high-priority task at 20 ms.
  TaskParams low = periodic("low", 1000, 100, 10);
  TaskParams high = periodic("high", 1000, 10, 1);
  high.phase = Duration::millis(20);
  TimePoint low_done, high_done;
  TaskId low_id = scheduler.add_task(low, [&] { low_done = sim.now(); });
  TaskId high_id = scheduler.add_task(high, [&] { high_done = sim.now(); });
  (void)scheduler.activate(low_id);
  (void)scheduler.activate(high_id);
  run_for(Duration::millis(500));
  EXPECT_EQ(high_done.ms(), 30);           // ran immediately at its release
  EXPECT_EQ(low_done.ms(), 110);           // 100 ms of work + 10 ms preempted
  EXPECT_EQ(scheduler.task(low_id)->stats.preemptions, 1u);
}

TEST_F(SchedulerFixture, EqualPriorityDoesNotPreempt) {
  TaskParams first = periodic("first", 1000, 50, 5);
  TaskParams second = periodic("second", 1000, 10, 5);
  second.phase = Duration::millis(10);
  TimePoint second_done;
  TaskId a = scheduler.add_task(first, [] {});
  TaskId b = scheduler.add_task(second, [&] { second_done = sim.now(); });
  (void)scheduler.activate(a);
  (void)scheduler.activate(b);
  run_for(Duration::millis(200));
  EXPECT_EQ(second_done.ms(), 60);  // waits for the first to finish at 50
  EXPECT_EQ(scheduler.task(a)->stats.preemptions, 0u);
}

TEST_F(SchedulerFixture, ResponseTimeStatistics) {
  TaskParams high = periodic("high", 50, 10, 1);
  TaskParams low = periodic("low", 100, 20, 2);
  TaskId h = scheduler.add_task(high);
  TaskId l = scheduler.add_task(low);
  (void)scheduler.activate(h);
  (void)scheduler.activate(l);
  run_for(Duration::seconds(10));
  // Low's worst response: 10 (high) + 20 (own) + 10 (second high burst at 50)
  // = 40 ms pattern; RTA bound for these params is 40 ms.
  EXPECT_LE(scheduler.task(l)->stats.worst_response.ms(), 40);
  EXPECT_GE(scheduler.task(l)->stats.worst_response.ms(), 30);
  EXPECT_EQ(scheduler.task(l)->stats.deadline_misses, 0u);
}

TEST_F(SchedulerFixture, OverrunCountsMissAndSkips) {
  // wcet > period: every job overruns into the next release.
  TaskParams p = periodic("hog", 50, 80, 1);
  int runs = 0;
  TaskId id = scheduler.add_task(p, [&] { ++runs; });
  (void)scheduler.activate(id);
  run_for(Duration::seconds(1));
  EXPECT_GT(scheduler.task(id)->stats.deadline_misses, 5u);
  EXPECT_EQ(runs, 0);  // skip-next policy aborts unfinished jobs
}

TEST_F(SchedulerFixture, DeactivateStopsReleases) {
  int runs = 0;
  TaskId id = scheduler.add_task(periodic("t", 100, 5, 1), [&] { ++runs; });
  (void)scheduler.activate(id);
  run_for(Duration::millis(350));
  EXPECT_EQ(runs, 4);
  ASSERT_TRUE(scheduler.deactivate(id));
  run_for(Duration::seconds(1));
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(scheduler.task(id)->state, TaskState::kDormant);
}

TEST_F(SchedulerFixture, DeactivateInactiveFails) {
  TaskId id = scheduler.add_task(periodic("t", 100, 5, 1));
  EXPECT_FALSE(scheduler.deactivate(id));
}

TEST_F(SchedulerFixture, ActivateErrorsCarryTheirCodes) {
  EXPECT_EQ(scheduler.activate(42).code(), util::StatusCode::kNotFound);
  TaskId id = scheduler.add_task(periodic("t", 100, 5, 1));
  ASSERT_TRUE(scheduler.activate(id));
  EXPECT_EQ(scheduler.activate(id).code(), util::StatusCode::kAlreadyExists);
}

TEST_F(SchedulerFixture, DeactivateMidJobAbortsItWithoutCompleting) {
  int runs = 0;
  TaskId id = scheduler.add_task(periodic("t", 100, 50, 1), [&] { ++runs; });
  (void)scheduler.activate(id);
  run_for(Duration::millis(10));
  ASSERT_TRUE(scheduler.deactivate(id));
  EXPECT_FALSE(scheduler.running().has_value());
  run_for(Duration::seconds(1));  // the aborted job's end event must not fire
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(scheduler.task(id)->stats.completions, 0u);
  // Only the aborted 10 ms ran, out of 1.01 s.
  EXPECT_NEAR(scheduler.measured_utilization(), 0.010 / 1.010, 1e-9);
}

TEST_F(SchedulerFixture, DeactivatingTheRunningTaskHandsTheCpuOn) {
  // High (prio 1) runs 0-50 ms and holds low (prio 5) back; stopping high
  // at 20 ms lets low start at once and finish its 30 ms at 50 ms.
  TimePoint low_done;
  TaskId high = scheduler.add_task(periodic("high", 1000, 50, 1));
  TaskId low = scheduler.add_task(periodic("low", 1000, 30, 5),
                                  [&] { low_done = sim.now(); });
  (void)scheduler.activate(high);
  (void)scheduler.activate(low);
  run_for(Duration::millis(20));
  ASSERT_EQ(scheduler.running().value_or(kInvalidTask), high);
  ASSERT_TRUE(scheduler.deactivate(high));
  EXPECT_EQ(scheduler.running().value_or(kInvalidTask), low);
  run_for(Duration::millis(100));
  EXPECT_EQ(low_done.ms(), 50);
  EXPECT_EQ(scheduler.task(low)->stats.preemptions, 0u);
}

TEST_F(SchedulerFixture, LateCompletionCountsADeadlineMiss) {
  // Low (deadline 15 ms) waits 20 ms behind high and completes at 30 ms:
  // the job still runs its body, and counts as a miss.
  int low_runs = 0;
  TaskParams low = periodic("low", 1000, 10, 5);
  low.deadline = Duration::millis(15);
  TaskId high = scheduler.add_task(periodic("high", 1000, 20, 1));
  TaskId low_id = scheduler.add_task(low, [&] { ++low_runs; });
  (void)scheduler.activate(high);
  (void)scheduler.activate(low_id);
  run_for(Duration::millis(100));
  EXPECT_EQ(low_runs, 1);
  EXPECT_EQ(scheduler.task(low_id)->stats.completions, 1u);
  EXPECT_EQ(scheduler.task(low_id)->stats.worst_response.ms(), 30);
  EXPECT_EQ(scheduler.task(low_id)->stats.deadline_misses, 1u);
  EXPECT_EQ(scheduler.task(high)->stats.deadline_misses, 0u);
}

TEST_F(SchedulerFixture, UtilizationSums) {
  TaskId a = scheduler.add_task(periodic("a", 100, 25, 1));
  TaskId b = scheduler.add_task(periodic("b", 200, 50, 2));
  EXPECT_DOUBLE_EQ(scheduler.utilization(), 0.0);  // nothing active yet
  (void)scheduler.activate(a);
  (void)scheduler.activate(b);
  EXPECT_DOUBLE_EQ(scheduler.utilization(), 0.5);
}

TEST_F(SchedulerFixture, MeasuredUtilizationTracksLoad) {
  TaskId a = scheduler.add_task(periodic("a", 100, 30, 1));
  (void)scheduler.activate(a);
  run_for(Duration::seconds(10));
  EXPECT_NEAR(scheduler.measured_utilization(), 0.30, 0.02);
}

TEST_F(SchedulerFixture, VariableExecutionTimes) {
  int call = 0;
  TaskId id = scheduler.add_task(
      periodic("var", 100, 50, 1), {},
      [&call]() {
        ++call;
        return Duration::millis(call % 2 == 1 ? 10 : 40);
      });
  (void)scheduler.activate(id);
  run_for(Duration::seconds(1));
  const auto& stats = scheduler.task(id)->stats;
  EXPECT_EQ(stats.completions, 10u);
  EXPECT_EQ(stats.worst_response.ms(), 40);
  EXPECT_EQ(stats.average_response().ms(), 25);
}

// Property: CPU time is conserved — total busy time equals the sum of
// execution demands of completed jobs (plus any in-flight remainder), for
// random task sets under preemption.
class BusyTimeConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusyTimeConservation, BusyTimeMatchesCompletedWork) {
  sim::Simulator sim(GetParam());
  Scheduler scheduler(sim);
  util::Rng rng(GetParam() * 31);

  struct Spec {
    TaskId id;
    Duration wcet;
  };
  std::vector<Spec> specs;
  double total_u = 0.0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t period = rng.uniform_int(50, 300);
    const std::int64_t wcet = rng.uniform_int(1, period / 8);
    total_u += static_cast<double>(wcet) / static_cast<double>(period);
    if (total_u > 0.7) break;
    TaskParams p;
    p.name = "t";
    p.name += std::to_string(i);
    p.period = Duration::millis(period);
    p.wcet = Duration::millis(wcet);
    p.priority = static_cast<Priority>(i);
    const TaskId id = scheduler.add_task(p);
    specs.push_back({id, p.wcet});
    (void)scheduler.activate(id);
  }
  ASSERT_FALSE(specs.empty());
  sim.run_until(util::TimePoint::zero() + Duration::seconds(30));

  // Stop all releases so no job is mid-flight, then compare.
  for (const Spec& s : specs) (void)scheduler.deactivate(s.id);
  std::int64_t expected_busy_ns = 0;
  for (const Spec& s : specs) {
    expected_busy_ns += static_cast<std::int64_t>(
                            scheduler.task(s.id)->stats.completions) *
                        s.wcet.ns();
  }
  const double measured_busy_s =
      scheduler.measured_utilization() * sim.now().to_seconds();
  // Aborted in-flight jobs at deactivate may add < one wcet each.
  double slack_s = 0.0;
  for (const Spec& s : specs) {
    slack_s += s.wcet.to_seconds();
  }
  EXPECT_NEAR(measured_busy_s, static_cast<double>(expected_busy_ns) * 1e-9,
              slack_s + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyTimeConservation,
                         ::testing::Values(3, 6, 9, 12, 15));

TEST_F(SchedulerFixture, RunningAccessor) {
  TaskId id = scheduler.add_task(periodic("t", 100, 50, 1));
  EXPECT_FALSE(scheduler.running().has_value());
  (void)scheduler.activate(id);
  run_for(Duration::millis(10));
  ASSERT_TRUE(scheduler.running().has_value());
  EXPECT_EQ(*scheduler.running(), id);
}

}  // namespace
}  // namespace evm::rtos
