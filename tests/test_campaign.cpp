// Direct coverage of the campaign aggregation path: percentile math over
// known sample sets fed through hand-built CampaignResults, the empty- and
// single-seed edge cases, shard merging and its rejections, report files,
// and the shared parallel_for worker pool (all of which test_scenario.cpp
// previously exercised only indirectly, through full simulator runs).
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace evm::scenario {
namespace {

ScenarioSpec minimal_spec() {
  ScenarioSpec spec;
  spec.name = "agg-test";
  spec.horizon_s = 10.0;
  return spec;
}

/// A successful run with the given failover latency and filler metrics
/// derived from it, so every aggregated series has known inputs.
RunMetrics ok_run(std::uint64_t seed, double latency_s) {
  RunMetrics m;
  m.seed = seed;
  m.ok = true;
  m.fault_injected_s = 10.0;
  m.failover_at_s = 10.0 + latency_s;
  m.failover_latency_s = latency_s;
  m.failover_count = 1;
  m.backup_active = true;
  m.missed_deadlines = static_cast<std::uint64_t>(latency_s * 10);
  m.task_releases = 1000;
  m.packet_loss_rate = latency_s / 1000.0;
  m.level_rmse_pct = latency_s / 100.0;
  m.level_max_dev_pct = latency_s / 50.0;
  return m;
}

TEST(CampaignAggregation, PercentilesOverKnownSamples) {
  // Latencies 1..100 in scrambled seed order: the aggregate must sort, so
  // p50/p90/p99 land on the nearest-rank values 50/90/99.
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 100;
  CampaignResult result;
  for (std::uint64_t i = 0; i < 100; ++i) {
    result.runs.push_back(ok_run(1 + i, static_cast<double>((i * 37) % 100 + 1)));
  }
  const util::Json report = campaign_report(minimal_spec(), config, result);

  const util::Json* aggregate = report.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->find("runs_ok")->as_int(), 100);
  EXPECT_EQ(aggregate->find("runs_failed")->as_int(), 0);
  EXPECT_EQ(aggregate->find("failovers_detected")->as_int(), 100);
  EXPECT_EQ(aggregate->find("backups_active")->as_int(), 100);

  const util::Json* latency = aggregate->find("failover_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_int(), 100);
  EXPECT_DOUBLE_EQ(latency->find("min")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(latency->find("p50")->as_double(), 50.0);
  EXPECT_DOUBLE_EQ(latency->find("p90")->as_double(), 90.0);
  EXPECT_DOUBLE_EQ(latency->find("p99")->as_double(), 99.0);
  EXPECT_DOUBLE_EQ(latency->find("max")->as_double(), 100.0);
  EXPECT_DOUBLE_EQ(latency->find("mean")->as_double(), 50.5);

  // The derived series go through the same Samples path.
  const util::Json* rmse = aggregate->find("level_rmse_pct");
  ASSERT_NE(rmse, nullptr);
  EXPECT_DOUBLE_EQ(rmse->find("p50")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(rmse->find("max")->as_double(), 1.0);
}

TEST(CampaignAggregation, EmptyCampaignProducesEmptyAggregates) {
  CampaignConfig config;
  config.seeds = 0;
  const CampaignResult result = run_campaign(minimal_spec(), config);
  EXPECT_TRUE(result.runs.empty());
  EXPECT_EQ(result.ok_count(), 0u);
  EXPECT_TRUE(result.all_ok());  // vacuously

  const util::Json report = campaign_report(minimal_spec(), config, result);
  EXPECT_EQ(report.find("runs")->size(), 0u);
  const util::Json* aggregate = report.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->find("runs_ok")->as_int(), 0);
  EXPECT_EQ(aggregate->find("runs_failed")->as_int(), 0);
  // No failovers recorded at all: the latency summary is omitted entirely
  // rather than emitted full of zeros.
  EXPECT_EQ(aggregate->find("failover_latency_s"), nullptr);
  EXPECT_EQ(aggregate->find("missed_deadlines")->find("count")->as_int(), 0);
}

TEST(CampaignAggregation, SingleSeedCollapsesPercentiles) {
  CampaignConfig config;
  config.base_seed = 9;
  config.seeds = 1;
  CampaignResult result;
  result.runs.push_back(ok_run(9, 2.5));
  const util::Json report = campaign_report(minimal_spec(), config, result);
  const util::Json* latency = report.find("aggregate")->find("failover_latency_s");
  ASSERT_NE(latency, nullptr);
  for (const char* key : {"min", "p50", "p90", "p99", "max", "mean"}) {
    EXPECT_DOUBLE_EQ(latency->find(key)->as_double(), 2.5) << key;
  }
}

TEST(CampaignAggregation, FailedRunsAreExcludedFromAggregates) {
  CampaignConfig config;
  config.seeds = 3;
  CampaignResult result;
  result.runs.push_back(ok_run(1, 4.0));
  RunMetrics bad;
  bad.seed = 2;
  bad.ok = false;
  bad.error = "boom";
  bad.failover_latency_s = 99.0;  // must not leak into the aggregate
  result.runs.push_back(bad);
  result.runs.push_back(ok_run(3, 6.0));

  EXPECT_EQ(result.ok_count(), 2u);
  EXPECT_FALSE(result.all_ok());
  const util::Json report = campaign_report(minimal_spec(), config, result);
  const util::Json* aggregate = report.find("aggregate");
  EXPECT_EQ(aggregate->find("runs_ok")->as_int(), 2);
  EXPECT_EQ(aggregate->find("runs_failed")->as_int(), 1);
  const util::Json* latency = aggregate->find("failover_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(latency->find("max")->as_double(), 6.0);
  EXPECT_DOUBLE_EQ(latency->find("mean")->as_double(), 5.0);
}

TEST(CampaignShards, MergedShardReportsReproduceTheFullCampaign) {
  // Two seed-striding shards of a 5-seed campaign over hand-built metrics:
  // shard reports merged must equal the unsharded report byte for byte
  // (runs verbatim, aggregate recomputed over the union).
  const ScenarioSpec spec = minimal_spec();
  const double latencies[] = {4.0, 2.5, 7.0, 1.0, 5.5};

  CampaignConfig full_config;
  full_config.base_seed = 10;
  full_config.seeds = 5;
  CampaignResult full;
  for (std::uint64_t i = 0; i < 5; ++i) full.runs.push_back(ok_run(10 + i, latencies[i]));
  const util::Json full_report = campaign_report(spec, full_config, full);

  std::vector<util::Json> shard_reports;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config = full_config;
    config.shard_index = shard;
    config.shard_count = 2;
    CampaignResult result;
    for (std::uint64_t i = shard; i < 5; i += 2) {
      result.runs.push_back(ok_run(10 + i, latencies[i]));
    }
    util::Json report = campaign_report(spec, config, result);
    // Shard provenance is recorded...
    EXPECT_EQ(report.find("campaign")->find("shard_count")->as_int(), 2);
    // ...and survives a disk round-trip like the CI merge step does.
    auto reparsed = util::Json::parse(report.dump());
    ASSERT_TRUE(reparsed.ok());
    shard_reports.push_back(std::move(*reparsed));
  }

  auto merged = merge_campaign_reports(shard_reports);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(merged->dump(), full_report.dump());
}

TEST(CampaignShards, MergedTimingSumsWallHonestly) {
  // Shards run concurrently on different machines, so summed shard wall time
  // is CPU-wall, not elapsed: the merged report must publish it as
  // wall_ms_sum and must NOT derive a sim_slots_per_sec from it (dividing by
  // a sum understates throughput by the shard count).
  const ScenarioSpec spec = minimal_spec();
  std::vector<util::Json> shard_reports;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config;
    config.base_seed = 1;
    config.seeds = 4;
    config.shard_index = shard;
    config.shard_count = 2;
    CampaignResult result;
    for (std::uint64_t i = shard; i < 4; i += 2) {
      RunMetrics run = ok_run(1 + i, 2.0);
      run.sim_slots = 100;
      run.wall_setup_ms = 4.0;
      run.wall_run_ms = 20.0;
      run.wall_teardown_ms = 1.0;
      result.runs.push_back(run);
    }
    result.wall_ms = 50.0;  // each shard: 50 ms of its own wall clock
    shard_reports.push_back(campaign_report(spec, config, result));
  }
  auto merged = merge_campaign_reports(shard_reports);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  const util::Json* timing = merged->find("timing");
  ASSERT_NE(timing, nullptr);
  ASSERT_NE(timing->find("wall_ms_sum"), nullptr);
  EXPECT_DOUBLE_EQ(timing->find("wall_ms_sum")->as_double(), 100.0);
  EXPECT_EQ(timing->find("wall_ms"), nullptr);
  EXPECT_EQ(timing->find("sim_slots_per_sec"), nullptr);
  EXPECT_EQ(timing->find("sim_slots")->as_int(), 400);
  // Phase sums are per-run times, so they add across shards like
  // wall_ms_sum, and the run-phase rate derived from them stays honest.
  EXPECT_DOUBLE_EQ(timing->find("setup_ms_sum")->as_double(), 16.0);
  EXPECT_DOUBLE_EQ(timing->find("run_ms_sum")->as_double(), 80.0);
  EXPECT_DOUBLE_EQ(timing->find("teardown_ms_sum")->as_double(), 4.0);
  EXPECT_DOUBLE_EQ(timing->find("run_sim_slots_per_sec")->as_double(),
                   400.0 / 0.08);

  // A single-report merge is just that one invocation: sum == elapsed, so
  // the derived rate is meaningful and kept.
  auto single = merge_campaign_reports({shard_reports[0]});
  ASSERT_TRUE(single.ok());
  const util::Json* single_timing = single->find("timing");
  ASSERT_NE(single_timing, nullptr);
  EXPECT_DOUBLE_EQ(single_timing->find("wall_ms")->as_double(), 50.0);
  ASSERT_NE(single_timing->find("sim_slots_per_sec"), nullptr);
  EXPECT_DOUBLE_EQ(single_timing->find("sim_slots_per_sec")->as_double(),
                   200.0 / 0.05);
}

TEST(CampaignShards, ShardedRunCampaignCoversDisjointSeeds) {
  // The striding itself: 0/2 owns seeds {1,3,5}, 1/2 owns {2,4} of a
  // 5-seed campaign starting at 1 (verified through real runner failures,
  // which echo their seed without needing a full testbed run).
  ScenarioSpec spec = minimal_spec();
  spec.testbed.control_period = util::Duration::micros(10);  // inadmissible
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 5;
  config.shard_count = 2;
  config.shard_index = 0;
  const CampaignResult even = run_campaign(spec, config);
  config.shard_index = 1;
  const CampaignResult odd = run_campaign(spec, config);
  std::vector<std::uint64_t> seeds;
  for (const auto& run : even.runs) seeds.push_back(run.seed);
  for (const auto& run : odd.runs) seeds.push_back(run.seed);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(even.runs.size(), 3u);
  EXPECT_EQ(odd.runs.size(), 2u);
}

TEST(CampaignShards, MergeRejectsMismatchedAndDuplicateReports) {
  const ScenarioSpec spec = minimal_spec();
  CampaignConfig config;
  config.seeds = 1;
  CampaignResult result;
  result.runs.push_back(ok_run(1, 2.0));
  const util::Json report = campaign_report(spec, config, result);

  // Same shard twice: the duplicate seed must be rejected.
  auto duplicate = merge_campaign_reports({report, report});
  EXPECT_FALSE(duplicate.ok());

  // A report of a different scenario must be rejected.
  ScenarioSpec other = minimal_spec();
  other.name = "other-scenario";
  const util::Json other_report = campaign_report(other, config, result);
  auto mismatch = merge_campaign_reports({report, other_report});
  EXPECT_FALSE(mismatch.ok());

  // Shards of another seed range must be rejected, not folded into a report
  // that passes as one campaign: a different base seed, then a different
  // seed count, each holding a seed the first report lacks.
  CampaignConfig shifted = config;
  shifted.base_seed = 101;
  CampaignResult shifted_result;
  shifted_result.runs.push_back(ok_run(101, 2.0));
  CampaignConfig longer = config;
  longer.seeds = 2;
  CampaignResult longer_result;
  longer_result.runs.push_back(ok_run(2, 2.0));
  for (const util::Json& other_range :
       {campaign_report(spec, shifted, shifted_result),
        campaign_report(spec, longer, longer_result)}) {
    auto range_mismatch = merge_campaign_reports({report, other_range});
    ASSERT_FALSE(range_mismatch.ok());
    EXPECT_EQ(range_mismatch.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(range_mismatch.status().message(),
              "cannot merge: shard reports cover different seed ranges");
  }

  EXPECT_FALSE(merge_campaign_reports({}).ok());
}

TEST(SpecHash, StableAcrossRoundTripAndSurfacedInReports) {
  const ScenarioSpec spec = minimal_spec();
  const std::string hash = spec.content_hash();
  EXPECT_EQ(hash.size(), 16u);

  // Round-tripping through JSON preserves it.
  auto reparsed = ScenarioSpec::from_json(spec.to_json());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->content_hash(), hash);

  // A different spec hashes differently.
  ScenarioSpec other = spec;
  other.horizon_s += 1.0;
  EXPECT_NE(other.content_hash(), hash);

  // Reports surface it, and the merged report re-derives the same value.
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 1;
  CampaignResult result;
  RunMetrics run;
  run.seed = 1;
  run.ok = true;
  result.runs.push_back(run);
  const util::Json report = campaign_report(spec, config, result);
  ASSERT_NE(report.find("spec_hash"), nullptr);
  EXPECT_EQ(report.find("spec_hash")->as_string(), hash);
  auto merged = merge_campaign_reports({report});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->find("spec_hash")->as_string(), hash);
}

/// Hand-built reports of every shard of a `seeds`-seed campaign starting at
/// seed 1, one report per shard, and the unsharded report they must merge
/// back into.
struct ShardSet {
  std::vector<util::Json> shards;
  util::Json full;
};

ShardSet shard_set(std::size_t seeds, std::size_t shard_count) {
  const ScenarioSpec spec = minimal_spec();
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = seeds;
  CampaignResult full;
  for (std::uint64_t i = 0; i < seeds; ++i) {
    full.runs.push_back(ok_run(1 + i, static_cast<double>((i * 7) % 11 + 1)));
  }
  ShardSet set;
  set.full = campaign_report(spec, config, full);
  for (std::size_t k = 0; k < shard_count; ++k) {
    CampaignConfig shard = config;
    shard.shard_index = k;
    shard.shard_count = shard_count;
    CampaignResult result;
    for (std::size_t i = k; i < seeds; i += shard_count) result.runs.push_back(full.runs[i]);
    set.shards.push_back(campaign_report(spec, shard, result));
  }
  return set;
}

/// `report` with `key` set to `value` at the top level.
util::Json with_member(util::Json report, const std::string& key, util::Json value) {
  report.set(key, std::move(value));
  return report;
}

/// `report` without its top-level `key`.
util::Json without_member(const util::Json& report, const std::string& key) {
  util::Json out = util::Json::object();
  for (const auto& [k, value] : report.members()) {
    if (k != key) out.set(k, value);
  }
  return out;
}

TEST(CampaignShards, MergeIsIndependentOfReportOrder) {
  // `--merge` takes its inputs in command-line or directory order; every
  // order of three shards must give the same bytes as the direct campaign.
  const ShardSet set = shard_set(7, 3);
  std::vector<std::size_t> order = {0, 1, 2};
  do {
    std::vector<util::Json> inputs;
    for (std::size_t k : order) inputs.push_back(set.shards[k]);
    auto merged = merge_campaign_reports(inputs);
    ASSERT_TRUE(merged.ok()) << merged.status().to_string();
    EXPECT_EQ(merged->dump(), set.full.dump())
        << "order " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(CampaignShards, PartialMergeIsMarkedWithItsRunCount) {
  // A merge that lacks a shard must not pass as the full campaign: it keeps
  // the campaign's seed range but records how many runs it really holds.
  const ShardSet set = shard_set(7, 3);
  auto partial = merge_campaign_reports({set.shards[0], set.shards[2]});
  ASSERT_TRUE(partial.ok()) << partial.status().to_string();
  const util::Json* campaign = partial->find("campaign");
  EXPECT_EQ(campaign->find("base_seed")->as_int(), 1);
  EXPECT_EQ(campaign->find("seeds")->as_int(), 7);
  ASSERT_NE(campaign->find("merged_runs"), nullptr);
  EXPECT_EQ(campaign->find("merged_runs")->as_int(), 5);
  EXPECT_EQ(partial->find("runs")->size(), 5u);

  auto complete = merge_campaign_reports(set.shards);
  ASSERT_TRUE(complete.ok()) << complete.status().to_string();
  EXPECT_EQ(complete->find("campaign")->find("merged_runs"), nullptr);
}

TEST(CampaignShards, MergedReportsMergeAgainIncrementally) {
  // A merged report is itself a valid merge input: re-merging it alone
  // changes nothing, and a partial merge completed with the missing shard
  // equals the direct campaign.
  const ShardSet set = shard_set(7, 3);
  auto partial = merge_campaign_reports({set.shards[0], set.shards[1]});
  ASSERT_TRUE(partial.ok()) << partial.status().to_string();
  auto again = merge_campaign_reports({*partial});
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->dump(), partial->dump());

  auto completed = merge_campaign_reports({*partial, set.shards[2]});
  ASSERT_TRUE(completed.ok()) << completed.status().to_string();
  EXPECT_EQ(completed->dump(), set.full.dump());
}

TEST(CampaignShards, ShardThatOwnsNoSeedsMergesAsANoOp) {
  // More shards than seeds: the surplus shard runs nothing and reports an
  // empty run list, which must neither fail the merge nor change it.
  const ShardSet set = shard_set(2, 3);
  ASSERT_EQ(set.shards[2].find("runs")->size(), 0u);
  auto merged = merge_campaign_reports(set.shards);
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(merged->dump(), set.full.dump());
}

TEST(CampaignShards, OutOfRangeShardIndexOwnsNoSeeds) {
  ScenarioSpec spec = minimal_spec();
  spec.testbed.control_period = util::Duration::micros(10);  // fail fast
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 4;
  config.shard_count = 2;
  config.shard_index = 2;
  EXPECT_TRUE(run_campaign(spec, config).runs.empty());
  config.shard_index = 1;
  EXPECT_EQ(run_campaign(spec, config).runs.size(), 2u);
}

TEST(CampaignShards, MergeRejectsAnEditedSpecEchoOrHash) {
  // spec_hash is what catches a report whose spec echo was edited after it
  // was written: the merge recomputes the hash from the echo.
  const ShardSet set = shard_set(4, 2);
  const std::string expected =
      "cannot merge: report's spec_hash does not match its spec echo";

  auto wrong_hash = merge_campaign_reports(
      {set.shards[0], with_member(set.shards[1], "spec_hash", "0000000000000000")});
  ASSERT_FALSE(wrong_hash.ok());
  EXPECT_EQ(wrong_hash.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(wrong_hash.status().message(), expected);

  ScenarioSpec edited = minimal_spec();
  edited.horizon_s += 5.0;
  const util::Json edited_echo = with_member(set.shards[0], "spec", edited.to_json());
  for (const auto& inputs : {std::vector<util::Json>{edited_echo, set.shards[1]},
                             std::vector<util::Json>{edited_echo}}) {
    auto merged = merge_campaign_reports(inputs);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().message(), expected);
  }
}

TEST(CampaignShards, MergeRejectsSameNameWithADifferentSpec) {
  // The scenario name alone does not identify a campaign: a shard of the
  // same name run with another horizon measured something else.
  const ShardSet set = shard_set(2, 2);
  ScenarioSpec retimed = minimal_spec();
  retimed.horizon_s += 5.0;
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 2;
  config.shard_index = 1;
  config.shard_count = 2;
  CampaignResult result;
  result.runs.push_back(ok_run(2, 3.0));
  auto merged =
      merge_campaign_reports({set.shards[0], campaign_report(retimed, config, result)});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().message(),
            "cannot merge: shard reports describe different campaigns");
}

TEST(CampaignShards, MergeRejectsMalformedReports) {
  const ShardSet set = shard_set(2, 2);
  struct Case {
    util::Json report;
    std::string message;
  };
  const Case cases[] = {
      {without_member(set.shards[0], "spec"), "report lacks 'scenario'/'spec'"},
      {without_member(set.shards[0], "scenario"), "report lacks 'scenario'/'spec'"},
      {without_member(set.shards[0], "runs"), "report lacks a 'runs' array"},
      {with_member(set.shards[0], "runs", util::Json::object()),
       "report lacks a 'runs' array"},
      {util::Json::object(), "report lacks 'scenario'/'spec'"},
  };
  for (const Case& c : cases) {
    auto merged = merge_campaign_reports({c.report});
    ASSERT_FALSE(merged.ok()) << c.message;
    EXPECT_EQ(merged.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(merged.status().message(), c.message);
  }
  // A malformed report after a good one fails the same way.
  auto second = merge_campaign_reports({set.shards[1], without_member(set.shards[0], "runs")});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().message(), "report lacks a 'runs' array");
}

TEST(CampaignShards, ReportsWithoutASpecHashMergeAndGainOne) {
  // Reports written before spec_hash existed carry none; the merge accepts
  // them and derives the hash from the spec echo.
  const ShardSet set = shard_set(4, 2);
  auto merged = merge_campaign_reports(
      {without_member(set.shards[0], "spec_hash"), without_member(set.shards[1], "spec_hash")});
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  ASSERT_NE(merged->find("spec_hash"), nullptr);
  EXPECT_EQ(merged->find("spec_hash")->as_string(), minimal_spec().content_hash());
  EXPECT_EQ(merged->dump(), set.full.dump());
}

TEST(SpecHash, IsTheContentHashOfTheCompactSpecEcho) {
  // merge_campaign_reports recomputes the hash from a report's spec echo,
  // so the spec's own hash must be exactly that, for any spec.
  ScenarioSpec spec = minimal_spec();
  spec.testbed.evidence_threshold = 5;
  for (const ScenarioSpec& s : {minimal_spec(), spec}) {
    EXPECT_EQ(s.content_hash(), util::content_hash(s.to_json().dump_compact()));
  }
  auto parsed = util::Json::parse(spec.to_json().dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(util::content_hash(parsed->dump_compact()), spec.content_hash());
}

std::filesystem::path fresh_dir(const std::string& name) {
  std::string leaf = "evm_test_campaign_";
  leaf += name;
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CampaignReportFile, WritesUnderTheSanitizedScenarioName) {
  const ShardSet set = shard_set(2, 1);
  const std::filesystem::path dir = fresh_dir("write");
  auto path = write_campaign_report(set.full, "grid 20/node.v2", (dir / "nested").string());
  ASSERT_TRUE(path.ok()) << path.status().to_string();
  EXPECT_EQ(std::filesystem::path(*path).filename(), "scenario_grid_20_node_v2.json");

  std::ifstream in(*path);
  std::stringstream text;
  text << in.rdbuf();
  auto reread = util::Json::parse(text.str());
  ASSERT_TRUE(reread.ok()) << reread.status().to_string();
  EXPECT_EQ(reread->dump(), set.full.dump());

  // A name with no usable character still gets a file.
  auto unnamed = write_campaign_report(set.full, "", dir.string());
  ASSERT_TRUE(unnamed.ok());
  EXPECT_EQ(std::filesystem::path(*unnamed).filename(), "scenario_scenario.json");
  std::filesystem::remove_all(dir);
}

TEST(CampaignReportFile, UncreatableDirectoryIsAnError) {
  // A regular file where the directory should go: reported, not thrown.
  const std::filesystem::path dir = fresh_dir("blocked");
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "file") << "x";
  auto path = write_campaign_report(shard_set(1, 1).full, "s", (dir / "file" / "out").string());
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), util::StatusCode::kInternal);
  std::filesystem::remove_all(dir);
}

TEST(CampaignReportFile, ReportDirFollowsEvmBenchOut) {
  const char* saved = std::getenv("EVM_BENCH_OUT");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("EVM_BENCH_OUT", "/tmp/elsewhere", 1);
  EXPECT_EQ(report_dir(), "/tmp/elsewhere");
  ::setenv("EVM_BENCH_OUT", "", 1);  // empty means unset
  EXPECT_EQ(report_dir(), "bench/out");
  ::unsetenv("EVM_BENCH_OUT");
  EXPECT_EQ(report_dir(), "bench/out");
  if (saved != nullptr) ::setenv("EVM_BENCH_OUT", restore.c_str(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(97);
    parallel_for(hits.size(), jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, ZeroCountNeverInvokes) {
  std::atomic<int> calls{0};
  parallel_for(0, 8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// TSan regression hammer: the campaign pattern is "workers fill disjoint
// slots, then the main thread aggregates after join". This test drives that
// pattern hard — many workers, tiny work items (maximal index contention on
// the work-stealing counter), per-slot writes plus shared atomic counters,
// and a logger call from every worker (the logger is a process-wide
// singleton the campaign runners share). Run it under EVM_SANITIZE=thread:
// any unsynchronized access in parallel_for, slot handoff or Logger::write
// fires here long before a full campaign would expose it.
TEST(ParallelFor, ConcurrentMetricAccumulationIsRaceFree) {
  constexpr std::size_t kItems = 512;
  constexpr std::size_t kJobs = 8;  // force real threads even on 1-core CI
  for (int round = 0; round < 4; ++round) {
    std::vector<double> latency(kItems, 0.0);
    std::vector<std::uint64_t> deadline_misses(kItems, 0);
    std::atomic<std::size_t> ok_runs{0};
    std::atomic<std::uint64_t> checksum{0};
    parallel_for(kItems, kJobs, [&](std::size_t i) {
      // Deterministic per-item "metrics", like a ScenarioRunner seeded from
      // the campaign seed + index.
      util::Rng rng(util::Rng::mix(0xc0ffee, i));
      latency[i] = rng.uniform(0.0, 2.0);
      deadline_misses[i] = rng.next_below(7);
      ok_runs.fetch_add(1, std::memory_order_relaxed);
      checksum.fetch_add(deadline_misses[i], std::memory_order_relaxed);
      EVM_TRACE("campaign-test", "slot " << i << " filled");
    });
    ASSERT_EQ(ok_runs.load(), kItems);

    // Aggregation after the join barrier must observe every slot write.
    util::Samples samples;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_GE(latency[i], 0.0);
      samples.add(latency[i]);
      misses += deadline_misses[i];
    }
    EXPECT_EQ(misses, checksum.load());
    EXPECT_EQ(samples.summarize().count, kItems);
  }
}

/// The report minus its "timing" block — the one machine-dependent section
/// (wall-clock throughput). Byte-comparisons across invocations strip it,
/// exactly as the CI shard-merge check does.
util::Json strip_timing(const util::Json& report) {
  util::Json out = util::Json::object();
  for (const auto& [key, value] : report.members()) {
    if (key != "timing") out.set(key, value);
  }
  return out;
}

// The campaign path itself (runner construction, slot writes, report
// aggregation) hammered with more workers than seeds, repeatedly; byte-
// identical reports prove the parallel schedule cannot leak into results.
// Only the wall-clock timing block may differ between rounds.
TEST(ParallelFor, CampaignUnderOversubscribedPoolIsDeterministic) {
  const ScenarioSpec spec = minimal_spec();
  CampaignConfig config;
  config.seeds = 6;
  config.base_seed = 77;
  std::string first;
  for (int round = 0; round < 2; ++round) {
    config.jobs = round == 0 ? 1 : 16;
    const CampaignResult result = run_campaign(spec, config);
    ASSERT_EQ(result.runs.size(), 6u);
    const std::string dumped =
        strip_timing(campaign_report(spec, config, result)).dump();
    if (round == 0) {
      first = dumped;
    } else {
      EXPECT_EQ(dumped, first)
          << "oversubscribed pool changed the campaign report";
    }
  }
}

TEST(CampaignTiming, RealRunsCarryAWallClockTimingBlock) {
  // An inadmissible control period makes every run fail during validation,
  // so the campaign finishes fast — the timing block must appear anyway:
  // wall time is a property of the invocation, not of run success.
  ScenarioSpec spec = minimal_spec();
  spec.testbed.control_period = util::Duration::micros(10);
  CampaignConfig config;
  config.base_seed = 5;
  config.seeds = 2;
  const CampaignResult result = run_campaign(spec, config);
  EXPECT_GT(result.wall_ms, 0.0);

  const util::Json report = campaign_report(spec, config, result);
  const util::Json* timing = report.find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_GT(timing->find("wall_ms")->as_double(), 0.0);
  ASSERT_NE(timing->find("events_dispatched"), nullptr);
  ASSERT_NE(timing->find("sim_slots"), nullptr);
  ASSERT_NE(timing->find("sim_slots_per_sec"), nullptr);
  // Every run stopped in its setup phase, so the phase split has setup
  // time only, and no run-phase rate can be derived.
  ASSERT_NE(timing->find("setup_ms_sum"), nullptr);
  EXPECT_GE(timing->find("setup_ms_sum")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(timing->find("run_ms_sum")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(timing->find("teardown_ms_sum")->as_double(), 0.0);
  EXPECT_EQ(timing->find("run_sim_slots_per_sec"), nullptr);
}

TEST(CampaignTiming, PhaseSplitSumsRunsAndRatesTheRunPhase) {
  CampaignConfig config;
  config.seeds = 2;
  CampaignResult result;
  for (std::uint64_t seed : {1, 2}) {
    RunMetrics run = ok_run(seed, 2.0);
    run.sim_slots = 1000;
    run.wall_setup_ms = 30.0;
    run.wall_run_ms = 50.0;
    run.wall_teardown_ms = 5.0;
    result.runs.push_back(run);
  }
  result.wall_ms = 200.0;
  const util::Json report = campaign_report(minimal_spec(), config, result);
  const util::Json* timing = report.find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_DOUBLE_EQ(timing->find("setup_ms_sum")->as_double(), 60.0);
  EXPECT_DOUBLE_EQ(timing->find("run_ms_sum")->as_double(), 100.0);
  EXPECT_DOUBLE_EQ(timing->find("teardown_ms_sum")->as_double(), 10.0);
  // The blended rate divides by the whole invocation; the run-phase rate
  // by the run phases alone, which set-up cannot dilute.
  EXPECT_DOUBLE_EQ(timing->find("sim_slots_per_sec")->as_double(), 2000.0 / 0.2);
  EXPECT_DOUBLE_EQ(timing->find("run_sim_slots_per_sec")->as_double(),
                   2000.0 / 0.1);
}

TEST(CampaignTiming, HandBuiltResultsStayByteStableWithNoTimingBlock) {
  // Fixture results never ran, so wall_ms == 0 and the machine-dependent
  // block is omitted — this is what keeps every hand-built byte-comparison
  // in this suite (and the shard-merge test above) stable.
  CampaignConfig config;
  config.seeds = 1;
  CampaignResult result;
  result.runs.push_back(ok_run(1, 2.0));
  const util::Json report = campaign_report(minimal_spec(), config, result);
  EXPECT_EQ(report.find("timing"), nullptr);
  EXPECT_EQ(report.dump(), strip_timing(report).dump());
}

TEST(CampaignTiming, ProgressCallbackSeesEveryRunExactlyOnce) {
  ScenarioSpec spec = minimal_spec();
  spec.testbed.control_period = util::Duration::micros(10);  // fail fast
  CampaignConfig config;
  config.base_seed = 30;
  config.seeds = 5;
  config.jobs = 4;  // callback fires on worker threads

  // Atomic tallies, not a mutex: the callback fires on worker threads, and
  // atomics are the sanctioned accumulation primitive under parallel_for.
  std::vector<std::atomic<int>> seed_hits(5);
  std::vector<std::atomic<int>> done_hits(6);  // index by `done` (1..5)
  std::atomic<std::size_t> seen_total{0};
  config.on_run_done = [&](std::size_t done, std::size_t total,
                           const RunMetrics& run) {
    ASSERT_GE(run.seed, 30u);
    ASSERT_LT(run.seed, 35u);
    ASSERT_GE(done, 1u);
    ASSERT_LE(done, 5u);
    seed_hits[run.seed - 30].fetch_add(1);
    done_hits[done].fetch_add(1);
    seen_total.store(total);
  };

  const CampaignResult result = run_campaign(spec, config);
  ASSERT_EQ(result.runs.size(), 5u);
  EXPECT_EQ(seen_total.load(), 5u);

  // Every seed reported exactly once, and the done counter ticked 1..total
  // exactly once each (arrival order is scheduling-dependent, counts never).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seed_hits[i].load(), 1) << "seed " << (30 + i);
    EXPECT_EQ(done_hits[i + 1].load(), 1) << "done " << (i + 1);
  }
}

}  // namespace
}  // namespace evm::scenario
