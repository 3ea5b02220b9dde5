// Runtime invariant checking for scenario runs. An InvariantMonitor rides
// along inside a ScenarioRunner and watches the run as it unfolds — liveness
// probes (is any live replica Active?), plant samples streamed off the
// sim::Trace observer, and cumulative counters — then applies end-of-run
// checks to the collected RunMetrics. The properties encode the paper's core
// claim: through node crashes, link churn and burst loss, the control loop
// stays alive (some live replica Active, bounded Active-gap), the plant stays
// regulated (bounded level deviation), and the run is a pure function of
// (spec, seed). The fuzzer treats any violation as a found bug.
#pragma once

#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace evm::scenario {

/// Liveness probe cadence (virtual seconds between samples).
inline constexpr double kProbePeriodS = 0.5;
/// Longest tolerated span with no live Active replica. Covers crash
/// detection + backup promotion; generated specs keep forced gaps (crash of
/// the last live controller until its scheduled restart) well under it.
inline constexpr double kMaxActiveGapS = 25.0;
/// Safety bound: |level - setpoint| above this means the plant escaped
/// regulation (level is a percentage, so 40 around a 50 % setpoint spans
/// nearly the whole vessel).
inline constexpr double kMaxLevelDevPct = 40.0;

struct InvariantConfig {
  /// Require a live Active replica when the run ends.
  bool require_active_at_end = true;
};

/// One violated property. `invariant` is a stable dotted id (e.g.
/// "liveness.active_gap"); `at_s` is the virtual time the violation was
/// detected, -1 for end-of-run checks.
struct InvariantViolation {
  std::string invariant;
  double at_s = -1.0;
  std::string detail;

  util::Json to_json() const;
};

class InvariantMonitor {
 public:
  /// `spec` must outlive the monitor.
  InvariantMonitor(const ScenarioSpec& spec, InvariantConfig config = {});

  /// Periodic liveness/counter probe, fed by ScenarioRunner.
  struct ReplicaProbe {
    net::NodeId node = net::kInvalidNode;
    bool alive = false;  // node not crash-stopped
    core::ControllerMode mode = core::ControllerMode::kDormant;
  };
  struct ProbeSample {
    /// Per-replica states over the VC membership. The monitor derives
    /// liveness from them: a live Active replica must exist within the
    /// replica set the spec's topology declares.
    std::vector<ReplicaProbe> replicas;
    std::size_t failover_count = 0;        // cumulative
    std::uint64_t missed_deadlines = 0;    // cumulative
    std::uint64_t task_releases = 0;       // cumulative
  };
  void on_probe(double t_s, const ProbeSample& sample);

  /// Plant level sample (streamed from the trace observer).
  void on_level(double t_s, double level_pct);

  /// End-of-run checks over the collected metrics.
  void on_finish(const RunMetrics& metrics);

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  /// Longest no-live-Active span observed (diagnostics even when passing).
  double max_active_gap_s() const { return max_gap_s_; }
  /// Total probe / level / end-of-run checks applied so far (the
  /// "scenario.invariant_checks" metric — proof the monitor actually ran).
  std::uint64_t checks_performed() const { return checks_performed_; }

  util::Json to_json() const;

 private:
  /// Record a violation; only the first occurrence per invariant id is kept.
  void add(const std::string& invariant, double at_s, std::string detail);
  /// True when the spec injects no disturbance at all, so fault-dependent
  /// counters must stay zero.
  bool fault_free() const;

  const ScenarioSpec& spec_;
  InvariantConfig config_;
  /// VC replica set derived from the spec's topology; liveness is judged
  /// over exactly these nodes.
  std::vector<net::NodeId> replicas_;
  std::vector<InvariantViolation> violations_;

  bool probed_ = false;
  std::uint64_t checks_performed_ = 0;
  double last_active_s_ = 0.0;  // last probe time with a live Active replica
  double max_gap_s_ = 0.0;
  bool last_live_active_ = false;  // the last probe saw a live Active replica
  ProbeSample last_sample_;
  double last_probe_s_ = 0.0;
};

/// Result of one checked run: the metrics plus every violated invariant.
struct CheckedRun {
  RunMetrics metrics;
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  util::Json to_json() const;
};

/// Run (spec, seed) under an InvariantMonitor. With `check_determinism` the
/// run is replayed and any metric divergence is reported as a
/// "determinism.replay" violation.
CheckedRun check_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                          const InvariantConfig& config = {},
                          bool check_determinism = false);

}  // namespace evm::scenario
