// Direct coverage of the campaign aggregation path: percentile math over
// known sample sets fed through hand-built CampaignResults, the empty- and
// single-seed edge cases, and the shared parallel_for worker pool (all of
// which test_scenario.cpp previously exercised only indirectly, through
// full simulator runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
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

  EXPECT_FALSE(merge_campaign_reports({}).ok());
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
