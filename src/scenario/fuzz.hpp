// Property-based scenario fuzzing. A seeded generator emits random-but-valid
// ScenarioSpecs — random worlds (the Fig. 5 mesh or generated line / grid /
// star topologies with relays) plus fault schedules drawn from every event
// kind, bounded by validity rules (a crash of the last live controller
// always has a restart scheduled, non-controller nodes come back within a
// bounded gap) so that a violated invariant points at an EVM bug, not at an
// unsurvivable scenario. Since the supervision fixes (promotion retry,
// rejoin re-supervision) the generator no longer steers controller crashes
// away from in-flight failovers — the nightly fuzz enforces those fixes.
// Each generated (spec, seed) runs under the InvariantMonitor; on a
// violation a greedy shrinker minimizes the spec while the violation still
// reproduces and the minimal repro is written to bench/out/fuzz_failures/.
// Everything is a pure function of the fuzz seed: two invocations with the
// same --runs/--seed produce byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/invariants.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace evm::scenario {

/// The horizon range the generator draws from. (The event-count cap and
/// the caps on loss and downtime are fixed validity rules in fuzz.cpp.)
struct GeneratorConfig {
  double min_horizon_s = 45.0;
  double max_horizon_s = 75.0;

  util::Json to_json() const;
};

/// Generate a random-but-valid spec; a pure function of `run_seed`.
ScenarioSpec generate_spec(std::uint64_t run_seed, const GeneratorConfig& config);

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t runs = 50;
  /// Worker threads for the campaign pool; 0 picks hardware concurrency.
  /// Never affects results, only wall-clock time.
  std::size_t jobs = 0;
  bool shrink = true;
  /// Replay every run and flag metric divergence (doubles the work).
  bool check_determinism = true;
  GeneratorConfig gen;
};

struct FuzzFailure {
  std::size_t run_index = 0;
  std::uint64_t run_seed = 0;
  ScenarioSpec spec;    // as generated
  ScenarioSpec shrunk;  // minimized repro (== spec when shrinking is off)
  std::size_t shrink_runs = 0;
  /// Violations of the shrunk spec (what the written repro reproduces).
  std::vector<InvariantViolation> violations;
  /// Metrics of the shrunk spec's failing run — including the topology /
  /// dissemination block (mode, slots per broadcast, beacons suppressed) —
  /// so a replayed repro can be diffed field-for-field against what the
  /// campaign saw when it failed.
  RunMetrics metrics;

  /// Full repro document: violations + shrunk spec (under "spec") +
  /// original spec, replayable via load_repro / fuzz_scenarios --replay.
  util::Json to_json() const;
};

struct FuzzResult {
  std::size_t runs = 0;
  std::vector<FuzzFailure> failures;  // ordered by run_index

  bool ok() const { return failures.empty(); }
};

FuzzResult run_fuzz(const FuzzConfig& config);

/// Deterministic report: config echo, run count, every failure.
util::Json fuzz_report(const FuzzConfig& config, const FuzzResult& result);

/// Greedily minimize `spec` while `primary_invariant` still fires for
/// (spec, seed) under the default InvariantConfig: drop events, disable
/// churn, zero background loss, tighten the horizon. Spends at most 200
/// extra runs.
ScenarioSpec shrink_spec(const ScenarioSpec& spec, std::uint64_t seed,
                         const std::string& primary_invariant,
                         std::size_t* runs_used = nullptr);

/// Directory minimized repros land in: <report_dir()>/fuzz_failures.
std::string failure_dir();

/// Write `<dir>/fuzz_run<index>_seed<seed>.json`; returns the path written.
util::Result<std::string> write_failure(const FuzzFailure& failure,
                                        const std::string& dir = failure_dir());

/// A repro loaded back for replay: the (spec, seed) pair to re-run.
struct FuzzRepro {
  ScenarioSpec spec;
  std::uint64_t seed = 1;
};

/// Load a repro document written by write_failure. A bare ScenarioSpec file
/// is also accepted (seed defaults to 1), so promoted scenarios replay too.
/// Keys write_failure does not write are rejected, and `run_seed` must be an
/// integer in [0, 2^48).
util::Result<FuzzRepro> load_repro(const std::string& path);

}  // namespace evm::scenario
