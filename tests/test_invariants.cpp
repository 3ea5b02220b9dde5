// Unit tests for the runtime invariant monitor (synthetic probe/level/metric
// feeds, no simulator), plus check_scenario integration runs: a clean
// scenario passes every property, and the canonical violating scenario —
// crash every controller replica with no restart — is caught by the
// liveness invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "scenario/invariants.hpp"
#include "scenario/spec.hpp"

namespace evm::scenario {
namespace {

ScenarioSpec parse_spec(const std::string& text) {
  auto json = util::Json::parse(text);
  EXPECT_TRUE(json.ok()) << json.status().to_string();
  auto spec = ScenarioSpec::from_json(*json);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return *spec;
}

ScenarioSpec spec_with_fault() {
  return parse_spec(R"({
    "name": "inv-fault",
    "horizon_s": 40,
    "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
  })");
}

RunMetrics ok_metrics() {
  RunMetrics m;
  m.ok = true;
  m.task_releases = 100;
  m.ctrl_a_mode = "Active";
  m.ctrl_b_mode = "Backup";
  return m;
}

/// One live replica — the spec's first in priority order — that is Active
/// or Backup.
InvariantMonitor::ProbeSample probe(const ScenarioSpec& spec, bool active) {
  InvariantMonitor::ProbeSample s;
  InvariantMonitor::ReplicaProbe replica;
  replica.node = spec.topology().replica_order().front();
  replica.alive = true;
  replica.mode = active ? core::ControllerMode::kActive : core::ControllerMode::kBackup;
  s.replicas.push_back(replica);
  return s;
}

bool has_violation(const InvariantMonitor& monitor, const std::string& id) {
  for (const auto& v : monitor.violations()) {
    if (v.invariant == id) return true;
  }
  return false;
}

// The feeds below run against the fixed bounds: kMaxActiveGapS (25 s) and
// kMaxLevelDevPct (40 %).

TEST(InvariantMonitor, BoundedGapPasses) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  // Active until 5 s, a 24.5 s hole, active again until the end.
  for (double t = 0.5; t <= 5.0; t += 0.5) monitor.on_probe(t, probe(spec, true));
  for (double t = 5.5; t < 29.5; t += 0.5) monitor.on_probe(t, probe(spec, false));
  for (double t = 29.5; t <= 60.0; t += 0.5) monitor.on_probe(t, probe(spec, true));
  monitor.on_finish(ok_metrics());
  EXPECT_TRUE(monitor.ok()) << monitor.to_json().dump();
  EXPECT_NEAR(monitor.max_active_gap_s(), kMaxActiveGapS - 0.5, 1e-9);
}

TEST(InvariantMonitor, ExcessiveGapIsViolation) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  // Active until 5 s, then a 30.5 s hole.
  for (double t = 0.5; t <= 5.0; t += 0.5) monitor.on_probe(t, probe(spec, true));
  for (double t = 5.5; t <= 35.0; t += 0.5) monitor.on_probe(t, probe(spec, false));
  for (double t = 35.5; t <= 60.0; t += 0.5) monitor.on_probe(t, probe(spec, true));
  monitor.on_finish(ok_metrics());
  EXPECT_TRUE(has_violation(monitor, "liveness.active_gap"));
  EXPECT_FALSE(has_violation(monitor, "liveness.active_at_end"));
}

TEST(InvariantMonitor, GapOpenAtRunEndCounts) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  // Goes dark at 28 s and never recovers: the 27 s tail exceeds the bound.
  for (double t = 0.5; t <= 28.0; t += 0.5) monitor.on_probe(t, probe(spec, true));
  for (double t = 28.5; t <= 55.0; t += 0.5) monitor.on_probe(t, probe(spec, false));
  monitor.on_finish(ok_metrics());
  EXPECT_TRUE(has_violation(monitor, "liveness.active_gap"));
  EXPECT_TRUE(has_violation(monitor, "liveness.active_at_end"));
}

TEST(InvariantMonitor, ActiveAtEndNotRequiredWhenDisabled) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantConfig config;
  config.require_active_at_end = false;
  InvariantMonitor monitor(spec, config);
  // Dark for 20 s at the end: inside the gap bound, so only the end-of-run
  // requirement could object.
  monitor.on_probe(20.0, probe(spec, false));
  monitor.on_finish(ok_metrics());
  EXPECT_FALSE(has_violation(monitor, "liveness.active_at_end"));
  EXPECT_TRUE(monitor.ok()) << monitor.to_json().dump();
}

TEST(InvariantMonitor, LevelDeviationIsViolationWithTimestamp) {
  const ScenarioSpec spec = spec_with_fault();  // setpoint 50
  InvariantMonitor monitor(spec);
  monitor.on_level(3.0, 85.0);  // |85 - 50| = 35 <= 40
  EXPECT_TRUE(monitor.ok());
  monitor.on_level(7.0, 95.0);  // |95 - 50| = 45 > 40
  ASSERT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].invariant, "safety.level_deviation");
  EXPECT_DOUBLE_EQ(monitor.violations()[0].at_s, 7.0);
}

TEST(InvariantMonitor, FirstOccurrencePerInvariantIsKept) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  monitor.on_level(7.0, 95.0);
  monitor.on_level(8.0, 97.0);
  monitor.on_level(9.0, 99.0);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor.violations()[0].at_s, 7.0);
}

TEST(InvariantMonitor, CounterRegressionIsViolation) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec, {});
  InvariantMonitor::ProbeSample a = probe(spec, true);
  a.failover_count = 2;
  a.missed_deadlines = 10;
  a.task_releases = 50;
  monitor.on_probe(1.0, a);
  InvariantMonitor::ProbeSample b = probe(spec, true);
  b.failover_count = 1;  // ran backwards
  b.missed_deadlines = 10;
  b.task_releases = 60;
  monitor.on_probe(2.0, b);
  EXPECT_TRUE(has_violation(monitor, "sanity.counter_monotone"));
}

TEST(InvariantMonitor, DeadlineExcessIsViolation) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec, {});
  monitor.on_probe(39.5, probe(spec, true));
  RunMetrics m = ok_metrics();
  m.missed_deadlines = 200;
  m.task_releases = 100;
  monitor.on_finish(m);
  EXPECT_TRUE(has_violation(monitor, "sanity.deadline_excess"));
}

TEST(InvariantMonitor, FailoverWithoutFaultIsViolation) {
  const ScenarioSpec quiet = parse_spec(R"({"name": "inv-quiet", "horizon_s": 40})");
  InvariantMonitor monitor(quiet, {});
  monitor.on_probe(39.5, probe(quiet, true));
  RunMetrics m = ok_metrics();
  m.failover_count = 1;
  monitor.on_finish(m);
  EXPECT_TRUE(has_violation(monitor, "sanity.failover_without_fault"));

  // The same metrics under a spec that *does* inject a fault are fine.
  const ScenarioSpec faulted = spec_with_fault();
  InvariantMonitor monitor2(faulted, {});
  monitor2.on_probe(39.5, probe(faulted, true));
  monitor2.on_finish(m);
  EXPECT_FALSE(has_violation(monitor2, "sanity.failover_without_fault"));
}

TEST(InvariantMonitor, LossyTopologyIsNotFaultFree) {
  // Background loss set in the topology section is a disturbance: a lossy
  // grid may legitimately fail over with no scheduled event.
  const ScenarioSpec lossy = parse_spec(R"({
    "name": "inv-lossy-grid", "horizon_s": 40,
    "topology": {"generator": "grid", "width": 3, "height": 3, "link_loss": 0.2}
  })");
  InvariantMonitor monitor(lossy, {});
  monitor.on_probe(39.5, probe(lossy, true));
  RunMetrics m = ok_metrics();
  m.failover_count = 1;
  monitor.on_finish(m);
  EXPECT_FALSE(has_violation(monitor, "sanity.failover_without_fault"));
}

TEST(InvariantMonitor, FailedRunShortCircuitsToRunError) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec, {});
  monitor.on_probe(5.0, probe(spec, false));
  RunMetrics m;
  m.ok = false;
  m.error = "admission rejected";
  monitor.on_finish(m);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].invariant, "run.error");
  EXPECT_EQ(monitor.violations()[0].detail, "admission rejected");
}

TEST(InvariantMonitor, NonMemberReplicaIsViolationAndNotLiveness) {
  const ScenarioSpec spec = spec_with_fault();
  const auto& members = spec.topology().replica_order();
  net::NodeId outsider = 1;
  while (std::find(members.begin(), members.end(), outsider) != members.end()) ++outsider;
  InvariantMonitor monitor(spec);
  InvariantMonitor::ProbeSample s;
  InvariantMonitor::ReplicaProbe replica;
  replica.node = outsider;
  replica.alive = true;
  replica.mode = core::ControllerMode::kActive;
  s.replicas.push_back(replica);
  // The outsider's Active claim is reported and does not keep the loop
  // alive: the run ends with no live Active replica in the VC.
  monitor.on_probe(1.0, s);
  monitor.on_finish(ok_metrics());
  ASSERT_TRUE(has_violation(monitor, "sanity.nonmember_replica"));
  EXPECT_TRUE(has_violation(monitor, "liveness.active_at_end"));
  EXPECT_NE(monitor.violations()[0].detail.find(std::to_string(outsider)),
            std::string::npos);
}

TEST(InvariantMonitor, CrashedActiveReplicaDoesNotCountAsLive) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  InvariantMonitor::ProbeSample s = probe(spec, true);
  s.replicas[0].alive = false;  // crash-stopped while its mode reads Active
  for (double t = 0.5; t <= 30.0; t += 0.5) monitor.on_probe(t, s);
  monitor.on_finish(ok_metrics());
  EXPECT_TRUE(has_violation(monitor, "liveness.active_gap"));
  EXPECT_TRUE(has_violation(monitor, "liveness.active_at_end"));
  EXPECT_DOUBLE_EQ(monitor.max_active_gap_s(), 30.0);
}

TEST(InvariantMonitor, DeadlineAndReleaseCountersMustNotFall) {
  const ScenarioSpec spec = spec_with_fault();
  for (const bool releases : {false, true}) {
    InvariantMonitor monitor(spec);
    InvariantMonitor::ProbeSample a = probe(spec, true);
    a.missed_deadlines = 10;
    a.task_releases = 50;
    monitor.on_probe(1.0, a);
    InvariantMonitor::ProbeSample b = a;
    if (releases) {
      b.task_releases = 49;
    } else {
      b.missed_deadlines = 9;
    }
    monitor.on_probe(2.0, b);
    ASSERT_TRUE(has_violation(monitor, "sanity.counter_monotone")) << releases;
    EXPECT_NE(monitor.violations()[0].detail.find(releases ? "task_releases"
                                                           : "missed_deadlines"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(monitor.violations()[0].at_s, 2.0);
  }
}

TEST(InvariantMonitor, EndOfRunLevelExcursionIsViolation) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  monitor.on_probe(39.5, probe(spec, true));
  RunMetrics m = ok_metrics();
  m.level_max_dev_pct = kMaxLevelDevPct;  // at the bound: allowed
  monitor.on_finish(m);
  EXPECT_TRUE(monitor.ok());
  InvariantMonitor over(spec);
  over.on_probe(39.5, probe(spec, true));
  m.level_max_dev_pct = kMaxLevelDevPct + 1.0;
  over.on_finish(m);
  ASSERT_EQ(over.violations().size(), 1u);
  EXPECT_EQ(over.violations()[0].invariant, "safety.level_deviation");
  EXPECT_DOUBLE_EQ(over.violations()[0].at_s, -1.0);
}

TEST(InvariantMonitor, ToJsonReportsVerdictGapAndViolations) {
  const ScenarioSpec spec = spec_with_fault();
  InvariantMonitor monitor(spec);
  monitor.on_probe(4.0, probe(spec, false));
  monitor.on_level(5.0, 99.0);
  EXPECT_EQ(monitor.checks_performed(), 2u);
  const util::Json j = monitor.to_json();
  ASSERT_NE(j.find("ok"), nullptr);
  EXPECT_FALSE(j.find("ok")->as_bool(true));
  EXPECT_DOUBLE_EQ(j.find("max_active_gap_s")->as_double(), 4.0);
  const util::Json* list = j.find("violations");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ(list->at(0).find("invariant")->as_string(), "safety.level_deviation");
  EXPECT_DOUBLE_EQ(list->at(0).find("at_s")->as_double(), 5.0);
  EXPECT_FALSE(list->at(0).find("detail")->as_string().empty());
}

TEST(CheckedRun, ToJsonCarriesMetricsAndViolations) {
  CheckedRun run;
  run.metrics = ok_metrics();
  run.metrics.seed = 9;
  EXPECT_TRUE(run.ok());
  EXPECT_TRUE(run.to_json().find("ok")->as_bool(false));
  run.violations.push_back({"run.error", -1.0, "boom"});
  const util::Json j = run.to_json();
  EXPECT_FALSE(run.ok());
  EXPECT_FALSE(j.find("ok")->as_bool(true));
  EXPECT_EQ(j.find("metrics")->find("seed")->as_int(), 9);
  ASSERT_EQ(j.find("violations")->size(), 1u);
  EXPECT_EQ(j.find("violations")->at(0).find("detail")->as_string(), "boom");
}

// --- full-stack check_scenario runs ----------------------------------------

TEST(CheckScenario, CleanFailoverScenarioPassesAllInvariants) {
  const ScenarioSpec spec = parse_spec(R"({
    "name": "inv-clean",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
  })");
  const CheckedRun check = check_scenario(spec, 3, {}, /*check_determinism=*/true);
  EXPECT_TRUE(check.metrics.ok) << check.metrics.error;
  EXPECT_TRUE(check.ok()) << check.to_json().dump();
  EXPECT_GE(check.metrics.failover_count, 1u);
}

TEST(CheckScenario, CrashAllReplicasViolatesLiveness) {
  // The ROADMAP's canonical found-bug condition: every controller replica
  // crash-stops with no restart scheduled, so no live Active replica can
  // end the run.
  const ScenarioSpec spec = parse_spec(R"({
    "name": "inv-crash-all",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "events": [
      {"at_s": 15, "do": "node_crash", "node": "ctrl_a"},
      {"at_s": 20, "do": "node_crash", "node": "ctrl_b"}
    ]
  })");
  const CheckedRun check = check_scenario(spec, 3);
  EXPECT_TRUE(check.metrics.ok) << check.metrics.error;
  ASSERT_FALSE(check.ok());
  bool liveness = false;
  for (const auto& v : check.violations) {
    liveness |= v.invariant == "liveness.active_at_end" ||
                v.invariant == "liveness.active_gap";
  }
  EXPECT_TRUE(liveness) << check.to_json().dump();
}

TEST(CheckScenario, PastHorizonSpecFailsAsRunError) {
  ScenarioSpec spec = spec_with_fault();
  spec.horizon_s = 5.0;  // re-timed programmatically below the fault at 10 s
  const CheckedRun check = check_scenario(spec, 1);
  EXPECT_FALSE(check.metrics.ok);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations[0].invariant, "run.error");
  EXPECT_NE(check.violations[0].detail.find("horizon"), std::string::npos);
}

}  // namespace
}  // namespace evm::scenario
