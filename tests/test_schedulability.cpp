#include <gtest/gtest.h>

#include "rtos/scheduler.hpp"
#include "rtos/schedulability.hpp"
#include "util/rng.hpp"

namespace evm::rtos {
namespace {

using util::Duration;

AnalysisTask at(std::int64_t wcet_ms, std::int64_t period_ms, Priority prio) {
  return AnalysisTask{Duration::millis(wcet_ms), Duration::millis(period_ms),
                      Duration::zero(), prio};
}

TEST(LiuLayland, EmptySetSchedulable) {
  EXPECT_TRUE(liu_layland_test({}).schedulable);
}

TEST(LiuLayland, SingleTaskBoundIsOne) {
  EXPECT_TRUE(liu_layland_test({at(99, 100, 0)}).schedulable);
  EXPECT_FALSE(liu_layland_test({at(101, 100, 0)}).schedulable);
}

TEST(LiuLayland, TwoTaskBound) {
  // n=2 bound = 2(2^0.5 - 1) ~ 0.828.
  EXPECT_TRUE(liu_layland_test({at(40, 100, 0), at(40, 100, 1)}).schedulable);
  EXPECT_FALSE(liu_layland_test({at(43, 100, 0), at(43, 100, 1)}).schedulable);
}

TEST(Hyperbolic, TighterThanLiuLayland) {
  // U1 = U2 = 0.41: LL bound 0.828 rejects sum 0.82? No - 0.82 < 0.828 ok.
  // Take U = {0.5, 0.332}: sum = 0.832 > LL bound, but product
  // (1.5)(1.332) = 1.998 <= 2 passes hyperbolic.
  const std::vector<AnalysisTask> tasks = {at(50, 100, 0), at(332, 1000, 1)};
  EXPECT_FALSE(liu_layland_test(tasks).schedulable);
  EXPECT_TRUE(hyperbolic_test(tasks).schedulable);
}

TEST(ResponseTime, ClassicExample) {
  // Textbook set: T1(C=1,T=4), T2(C=2,T=6), T3(C=3,T=13), RM priorities.
  // R1 = 1, R2 = 3, R3 = 3 + 1 + 2 ... fixed point at R3 = 9? Compute:
  // R3: 3 + ceil(R/4)*1 + ceil(R/6)*2; R=3+1+2=6 -> 3+2+2=7... iterate:
  // R=7 -> 3+2*1+2*2=9; R=9 -> 3+3+4=10; R=10 -> 3+3+4=10. Converges at 10.
  std::vector<AnalysisTask> tasks = {at(1, 4, 0), at(2, 6, 1), at(3, 13, 2)};
  const auto result = response_time_analysis(tasks);
  EXPECT_TRUE(result.schedulable);
  EXPECT_EQ(result.response_times[0].ms(), 1);
  EXPECT_EQ(result.response_times[1].ms(), 3);
  EXPECT_EQ(result.response_times[2].ms(), 10);
}

TEST(ResponseTime, ExactAcceptsFullUtilizationHarmonic) {
  // Harmonic periods schedulable up to U = 1.0 (LL rejects at 0.828+).
  std::vector<AnalysisTask> tasks = {at(50, 100, 0), at(100, 200, 1)};
  EXPECT_FALSE(liu_layland_test(tasks).schedulable);
  EXPECT_TRUE(response_time_analysis(tasks).schedulable);
}

TEST(ResponseTime, DetectsUnschedulable) {
  std::vector<AnalysisTask> tasks = {at(60, 100, 0), at(60, 100, 1)};
  const auto result = response_time_analysis(tasks);
  EXPECT_FALSE(result.schedulable);
  EXPECT_GT(result.response_times[1], Duration::millis(100));
}

TEST(ResponseTime, ConstrainedDeadlineChecked) {
  AnalysisTask t = at(30, 100, 0);
  t.deadline = Duration::millis(20);  // tighter than its own wcet
  const auto result = response_time_analysis({t});
  EXPECT_FALSE(result.schedulable);
}

TEST(PriorityAssignment, RateMonotonicOrdersByPeriod) {
  std::vector<AnalysisTask> tasks = {at(1, 300, 0), at(1, 100, 0), at(1, 200, 0)};
  assign_rate_monotonic(tasks);
  EXPECT_EQ(tasks[1].priority, 0);  // shortest period = highest priority
  EXPECT_EQ(tasks[2].priority, 1);
  EXPECT_EQ(tasks[0].priority, 2);
}

TEST(PriorityAssignment, DeadlineMonotonicUsesDeadlines) {
  std::vector<AnalysisTask> tasks = {at(1, 100, 0), at(1, 100, 0)};
  tasks[0].deadline = Duration::millis(80);
  tasks[1].deadline = Duration::millis(40);
  assign_deadline_monotonic(tasks);
  EXPECT_EQ(tasks[1].priority, 0);
  EXPECT_EQ(tasks[0].priority, 1);
}

TEST(ToAnalysis, ConvertsParams) {
  TaskParams p;
  p.wcet = Duration::millis(5);
  p.period = Duration::millis(50);
  p.priority = 3;
  const auto tasks = to_analysis({p});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].wcet.ms(), 5);
  EXPECT_EQ(tasks[0].priority, 3);
}

// --- Property: sufficiency ordering LL => hyperbolic => RTA ----------------

class TestOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TestOrdering, SufficientTestsNeverContradictExact) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<AnalysisTask> tasks;
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < n; ++i) {
      const std::int64_t period = rng.uniform_int(20, 500);
      const std::int64_t wcet = rng.uniform_int(1, std::max<std::int64_t>(period / n, 1));
      tasks.push_back(at(wcet, period, 0));
    }
    assign_rate_monotonic(tasks);
    const bool ll = liu_layland_test(tasks).schedulable;
    const bool hb = hyperbolic_test(tasks).schedulable;
    const bool rta = response_time_analysis(tasks).schedulable;
    if (ll) {
      EXPECT_TRUE(hb) << "LL passed but hyperbolic failed";
    }
    if (hb) {
      EXPECT_TRUE(rta) << "hyperbolic passed but exact RTA failed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestOrdering, ::testing::Values(1, 2, 3, 4, 5));

// All three tests must agree on a clearly schedulable and a clearly
// infeasible set (the kernel admits with exact RTA; bench_schedulability
// compares all three).
enum class Analysis { kLiuLayland, kHyperbolic, kResponseTime };

void PrintTo(Analysis analysis, std::ostream* os) {
  switch (analysis) {
    case Analysis::kLiuLayland: *os << "LiuLayland"; break;
    case Analysis::kHyperbolic: *os << "Hyperbolic"; break;
    case Analysis::kResponseTime: *os << "ResponseTime"; break;
  }
}

AnalysisResult analyze(Analysis analysis, const std::vector<AnalysisTask>& tasks) {
  switch (analysis) {
    case Analysis::kLiuLayland: return liu_layland_test(tasks);
    case Analysis::kHyperbolic: return hyperbolic_test(tasks);
    case Analysis::kResponseTime: return response_time_analysis(tasks);
  }
  return {};
}

class AnalysisExtremes : public ::testing::TestWithParam<Analysis> {};

TEST_P(AnalysisExtremes, AgreeOnExtremes) {
  EXPECT_TRUE(analyze(GetParam(), {at(5, 100, 0)}).schedulable);
  EXPECT_FALSE(analyze(GetParam(), {at(5, 100, 0), at(99, 100, 1)}).schedulable);
}

INSTANTIATE_TEST_SUITE_P(AllTests, AnalysisExtremes,
                         ::testing::Values(Analysis::kLiuLayland, Analysis::kHyperbolic,
                                           Analysis::kResponseTime));

// --- Property: RTA bounds observed response times in simulation -------------

class RtaVsSimulation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaVsSimulation, MeasuredResponseNeverExceedsAnalyticBound) {
  util::Rng rng(GetParam() * 977);
  std::vector<AnalysisTask> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < n; ++i) {
    const std::int64_t period = rng.uniform_int(50, 400);
    const std::int64_t wcet = rng.uniform_int(5, std::max<std::int64_t>(period / (2 * n), 6));
    tasks.push_back(at(wcet, period, 0));
  }
  assign_rate_monotonic(tasks);
  const auto analysis = response_time_analysis(tasks);
  if (!analysis.schedulable) GTEST_SKIP() << "generated set unschedulable";

  sim::Simulator sim(GetParam());
  Scheduler scheduler(sim);
  std::vector<TaskId> ids;
  for (const auto& t : tasks) {
    TaskParams p;
    p.name = "t";
    p.name += std::to_string(ids.size());
    p.period = t.period;
    p.wcet = t.wcet;
    p.priority = t.priority;
    ids.push_back(scheduler.add_task(p));
    (void)scheduler.activate(ids.back());
  }
  sim.run_until(util::TimePoint::zero() + Duration::seconds(60));

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& stats = scheduler.task(ids[i])->stats;
    EXPECT_GT(stats.completions, 0u);
    EXPECT_LE(stats.worst_response.ns(), analysis.response_times[i].ns())
        << "task " << i << " exceeded its RTA bound";
    EXPECT_EQ(stats.deadline_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaVsSimulation,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace evm::rtos
