// Multi-seed campaign engine: fans one scenario spec out across N seeds on
// a std::thread pool (one isolated Simulator per worker), aggregates the
// per-seed metrics through util::SummaryStats, and emits a bench/out-style
// JSON report with p50/p90/p99 across seeds. Results are ordered by seed,
// never by completion, so a campaign is deterministic regardless of the
// worker count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace evm::scenario {

/// Run `fn(0) .. fn(count - 1)` on `jobs` worker threads (0 picks
/// min(count, hardware_concurrency)); work-stealing over the index, so the
/// job count never affects which indices run, only wall-clock time. `fn`
/// must be safe to call concurrently from different threads for different
/// indices. Shared by the campaign engine (one index per seed) and the
/// scenario fuzzer (one index per generated spec).
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

struct CampaignConfig {
  std::uint64_t base_seed = 1;
  std::size_t seeds = 8;
  /// Worker threads; 0 picks min(seeds, hardware_concurrency). The value
  /// never affects results, only wall-clock time.
  std::size_t jobs = 0;
  /// Seed-striding shard: this invocation runs the seeds whose index i in
  /// [0, seeds) satisfies i % shard_count == shard_index. N CI jobs each
  /// run one shard; merge_campaign_reports folds their reports back into
  /// exactly the single-machine campaign. A shard_index outside
  /// [0, shard_count) owns no seeds and yields an empty result.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Progress heartbeat, invoked once per completed run with (runs done so
  /// far, total runs this invocation owns, that run's metrics). Runs execute
  /// on worker threads, so the callback may fire concurrently for different
  /// runs — it must be thread-safe and cheap. Purely observational: results
  /// are identical with or without it.
  std::function<void(std::size_t done, std::size_t total, const RunMetrics& run)>
      on_run_done;
};

struct CampaignResult {
  /// One entry per seed this invocation ran, in ascending seed order
  /// (base_seed + i without sharding; every shard_count-th seed with).
  std::vector<RunMetrics> runs;

  /// Wall-clock time of the whole run_campaign() invocation (all workers).
  /// Machine-dependent: campaign_report() folds it into a "timing" block
  /// only when it is non-zero, so hand-built results (tests) stay
  /// byte-stable. Never serialized per run.
  double wall_ms = 0.0;

  std::size_t ok_count() const;
  bool all_ok() const { return ok_count() == runs.size(); }
};

/// Run `spec` once per seed in [base_seed, base_seed + seeds).
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignConfig& config);

/// Full report: spec echo, per-seed metrics, and percentile aggregates of
/// failover latency, deadline misses, packet loss and plant error.
util::Json campaign_report(const ScenarioSpec& spec, const CampaignConfig& config,
                           const CampaignResult& result);

/// Fold shard reports (written by `--shard K/N` invocations of the same
/// campaign) into one: runs are concatenated verbatim and re-sorted by
/// seed, the aggregate block is recomputed over the union. Merging every
/// shard of a campaign reproduces the unsharded report's runs exactly.
/// Rejects reports whose scenario name, spec echo or seed range
/// (`campaign.base_seed`/`seeds`) disagree.
util::Result<util::Json> merge_campaign_reports(const std::vector<util::Json>& reports);

/// Directory campaign reports land in: $EVM_BENCH_OUT or "bench/out".
std::string report_dir();

/// Write `<dir>/scenario_<name>.json`; returns the path written.
util::Result<std::string> write_campaign_report(const util::Json& report,
                                                const std::string& scenario_name,
                                                const std::string& dir = report_dir());

}  // namespace evm::scenario
