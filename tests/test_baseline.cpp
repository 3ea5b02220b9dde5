#include <gtest/gtest.h>

#include "scenario/baseline.hpp"
#include "util/json.hpp"

namespace evm::scenario {
namespace {

using util::Json;

/// A minimal campaign report shaped like write_campaign_report's output.
Json make_report(double p99, double slots_per_bcast, double runs_failed,
                 double backups_active = 5) {
  Json report = Json::object();
  report.set("scenario", "unit-scenario");
  Json spec = Json::object();
  spec.set("horizon_s", 120.0);
  report.set("spec", std::move(spec));
  Json campaign = Json::object();
  campaign.set("seeds", 5);
  campaign.set("base_seed", 1);
  report.set("campaign", std::move(campaign));

  Json aggregate = Json::object();
  aggregate.set("runs_ok", 5.0 - runs_failed);
  aggregate.set("runs_failed", runs_failed);
  aggregate.set("failovers_detected", 5);
  aggregate.set("backups_active", backups_active);
  Json latency = Json::object();
  latency.set("p50", p99 * 0.8);
  latency.set("p99", p99);
  aggregate.set("failover_latency_s", std::move(latency));
  Json missed = Json::object();
  missed.set("mean", 2.0);
  aggregate.set("missed_deadlines", std::move(missed));
  Json loss = Json::object();
  loss.set("mean", 0.01);
  aggregate.set("packet_loss_rate", std::move(loss));
  Json rmse = Json::object();
  rmse.set("mean", 0.5);
  aggregate.set("level_rmse_pct", std::move(rmse));
  Json slots = Json::object();
  slots.set("mean", slots_per_bcast);
  aggregate.set("slots_per_broadcast", std::move(slots));
  Json beacons = Json::object();
  beacons.set("mean", 40.0);
  aggregate.set("beacons_suppressed", std::move(beacons));
  report.set("aggregate", std::move(aggregate));
  return report;
}

TEST(Baseline, DottedPathResolvesIntoTheAggregate) {
  const Json report = make_report(8.0, 12.0, 0);
  double value = 0.0;
  EXPECT_TRUE(aggregate_metric(report, "failover_latency_s.p99", value));
  EXPECT_DOUBLE_EQ(value, 8.0);
  EXPECT_TRUE(aggregate_metric(report, "runs_failed", value));
  EXPECT_DOUBLE_EQ(value, 0.0);
  EXPECT_FALSE(aggregate_metric(report, "no_such.metric", value));
}

TEST(Baseline, TimingPathResolvesAgainstTheReportRoot) {
  Json report = make_report(8.0, 12.0, 0);
  Json timing = Json::object();
  timing.set("sim_slots_per_sec", 123456.0);
  report.set("timing", std::move(timing));
  double value = 0.0;
  EXPECT_TRUE(aggregate_metric(report, "timing.sim_slots_per_sec", value));
  EXPECT_DOUBLE_EQ(value, 123456.0);
  // No timing block (hand-built fixtures): cleanly absent, not a crash.
  EXPECT_FALSE(
      aggregate_metric(make_report(8.0, 12.0, 0), "timing.sim_slots_per_sec", value));
}

TEST(Baseline, MinRowGatesAsFloorAndSurvivesRecapture) {
  Json report = make_report(8.0, 12.0, 0);
  Json timing = Json::object();
  timing.set("sim_slots_per_sec", 50000.0);
  report.set("timing", std::move(timing));

  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, report));
  // Hand-install a throughput floor the way a human edits the checked-in
  // file: {"min": ...} instead of expected/tolerances.
  {
    auto parsed = Json::parse(baselines.dump());
    ASSERT_TRUE(parsed.ok());
    baselines = std::move(*parsed);
  }
  Json floor = Json::object();
  floor.set("min", 10000.0);
  Json scenarios = *baselines.find("scenarios");
  Json entry = *scenarios.find("unit-scenario");
  Json metrics = *entry.find("metrics");
  metrics.set("timing.sim_slots_per_sec", std::move(floor));
  entry.set("metrics", std::move(metrics));
  scenarios.set("unit-scenario", std::move(entry));
  baselines.set("scenarios", std::move(scenarios));

  // Above the floor: passes. Below: that row fails.
  const BaselineCheck ok = check_against_baseline(baselines, report);
  EXPECT_TRUE(ok.ok) << format_baseline_table(ok, "unit-scenario");
  Json slow = make_report(8.0, 12.0, 0);
  Json slow_timing = Json::object();
  slow_timing.set("sim_slots_per_sec", 9000.0);
  slow.set("timing", std::move(slow_timing));
  const BaselineCheck tripped = check_against_baseline(baselines, slow);
  EXPECT_FALSE(tripped.ok);
  bool floor_row_failed = false;
  for (const BaselineRow& row : tripped.rows) {
    if (row.metric == "timing.sim_slots_per_sec") {
      EXPECT_TRUE(row.is_min);
      EXPECT_FALSE(row.ok);
      floor_row_failed = true;
    }
  }
  EXPECT_TRUE(floor_row_failed);

  // --update-baselines recaptures expected-value rows but must keep the
  // hand-set floor: it is a promise, not a measurement.
  ASSERT_TRUE(upsert_baseline(baselines, report));
  const Json* kept = baselines.find("scenarios")
                         ->find("unit-scenario")
                         ->find("metrics")
                         ->find("timing.sim_slots_per_sec");
  ASSERT_NE(kept, nullptr);
  ASSERT_NE(kept->find("min"), nullptr);
  EXPECT_DOUBLE_EQ(kept->find("min")->as_double(), 10000.0);
}

TEST(Baseline, UpdateThenCheckRoundTripsClean) {
  const Json report = make_report(8.0, 12.0, 0);
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, report));

  const BaselineCheck check = check_against_baseline(baselines, report);
  EXPECT_TRUE(check.ok) << format_baseline_table(check, "unit-scenario");
  EXPECT_TRUE(check.error.empty());
  EXPECT_GE(check.rows.size(), 8u);
}

TEST(Baseline, RegressionOutsideToleranceFails) {
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));

  // p99 within 30% rel tol: passes. Far outside: fails on that one row.
  EXPECT_TRUE(check_against_baseline(baselines, make_report(9.5, 12.0, 0)).ok);
  const BaselineCheck regressed =
      check_against_baseline(baselines, make_report(20.0, 12.0, 0));
  EXPECT_FALSE(regressed.ok);
  std::size_t failing = 0;
  for (const BaselineRow& row : regressed.rows) {
    if (!row.ok) {
      ++failing;
      EXPECT_TRUE(row.metric == "failover_latency_s.p50" ||
                  row.metric == "failover_latency_s.p99")
          << row.metric;
    }
  }
  EXPECT_GE(failing, 1u);
}

TEST(Baseline, SlotCostRegressionToFloodTripsTheGate) {
  // The tentpole gate: tree-scoped dissemination on the 20-node grid costs
  // ~12 slots per unique datagram; a regression back to flooding costs ~20.
  // The 20% relative tolerance must let the former pass and trip the latter.
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  EXPECT_TRUE(check_against_baseline(baselines, make_report(8.0, 13.0, 0)).ok);
  EXPECT_FALSE(check_against_baseline(baselines, make_report(8.0, 20.0, 0)).ok);
}

TEST(Baseline, FailedRunsAreExact) {
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  EXPECT_FALSE(check_against_baseline(baselines, make_report(8.0, 12.0, 1)).ok);
}

TEST(Baseline, FewerBackupsActiveFails) {
  // A run that ends with the faulty primary still Active keeps every plant
  // metric inside its tolerance; only the exact backups_active count
  // notices that the failover did not stick.
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  EXPECT_TRUE(check_against_baseline(baselines, make_report(8.0, 12.0, 0)).ok);
  const BaselineCheck check =
      check_against_baseline(baselines, make_report(8.0, 12.0, 0, 4));
  EXPECT_FALSE(check.ok);
  bool saw_row = false;
  for (const BaselineRow& row : check.rows) {
    if (row.metric == "backups_active") {
      saw_row = true;
      EXPECT_FALSE(row.ok);
    }
  }
  EXPECT_TRUE(saw_row);
}

TEST(Baseline, MissingScenarioAndShapeMismatchAreErrors) {
  const Json report = make_report(8.0, 12.0, 0);
  Json baselines = Json::object();
  BaselineCheck check = check_against_baseline(baselines, report);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.error.empty());

  ASSERT_TRUE(upsert_baseline(baselines, report));
  // Same scenario, different campaign shape: refuse to compare.
  Json other = make_report(8.0, 12.0, 0);
  Json campaign = Json::object();
  campaign.set("seeds", 2);
  campaign.set("base_seed", 1);
  other.set("campaign", std::move(campaign));
  check = check_against_baseline(baselines, other);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("campaign shape mismatch"), std::string::npos)
      << check.error;

  // A hand-edited entry that lost its campaign capture block must be
  // refused too, not silently compared against an arbitrary-shape run.
  Json no_shape = Json::object();
  no_shape.set("schema", 1);
  Json scenarios = Json::object();
  Json entry = make_baseline_entry(report);
  Json stripped = Json::object();
  for (const auto& [key, value] : entry.members()) {
    if (key != "campaign") stripped.set(key, value);
  }
  scenarios.set("unit-scenario", std::move(stripped));
  no_shape.set("scenarios", std::move(scenarios));
  check = check_against_baseline(no_shape, report);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("campaign"), std::string::npos) << check.error;
}

TEST(Baseline, VanishedMetricIsARegression) {
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  // A report whose runs never detected a failover drops the latency block
  // entirely; the baseline still gates it, so the check must fail loudly.
  Json report = make_report(8.0, 12.0, 0);
  Json aggregate = *report.find("aggregate");
  Json stripped = Json::object();
  for (const auto& [key, value] : aggregate.members()) {
    if (key != "failover_latency_s") stripped.set(key, value);
  }
  report.set("aggregate", std::move(stripped));
  const BaselineCheck check = check_against_baseline(baselines, report);
  EXPECT_FALSE(check.ok);
  bool saw_missing = false;
  for (const BaselineRow& row : check.rows) saw_missing |= row.missing;
  EXPECT_TRUE(saw_missing);
}

TEST(Baseline, TableNamesEveryMetric) {
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  const BaselineCheck check =
      check_against_baseline(baselines, make_report(20.0, 12.0, 0));
  const std::string table = format_baseline_table(check, "unit-scenario");
  EXPECT_NE(table.find("failover_latency_s.p99"), std::string::npos);
  EXPECT_NE(table.find("slots_per_broadcast.mean"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  EXPECT_NE(table.find("baseline check FAILED"), std::string::npos);
}

TEST(Baseline, UpsertPreservesOtherScenarios) {
  Json baselines = Json::object();
  ASSERT_TRUE(upsert_baseline(baselines, make_report(8.0, 12.0, 0)));
  Json second = make_report(5.0, 9.0, 0);
  second.set("scenario", "other-scenario");
  ASSERT_TRUE(upsert_baseline(baselines, second));
  const Json* scenarios = baselines.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  EXPECT_NE(scenarios->find("unit-scenario"), nullptr);
  EXPECT_NE(scenarios->find("other-scenario"), nullptr);
  EXPECT_TRUE(check_against_baseline(baselines, make_report(8.0, 12.0, 0)).ok);
  EXPECT_TRUE(check_against_baseline(baselines, second).ok);
}

}  // namespace
}  // namespace evm::scenario
