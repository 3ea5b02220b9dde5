#include "scenario/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace evm::scenario {

using util::Json;

namespace {

/// Compact fixed-point formatting for violation details (std::to_string's
/// six decimals read like noise in a repro report).
std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

}  // namespace

Json InvariantViolation::to_json() const {
  Json j = Json::object();
  j.set("invariant", invariant);
  j.set("at_s", at_s);
  j.set("detail", detail);
  return j;
}

InvariantMonitor::InvariantMonitor(const ScenarioSpec& spec, InvariantConfig config)
    : spec_(spec), config_(config), replicas_(spec.topology().replica_order()) {}

void InvariantMonitor::add(const std::string& invariant, double at_s,
                           std::string detail) {
  for (const auto& v : violations_) {
    if (v.invariant == invariant) return;  // keep the first occurrence
  }
  violations_.push_back({invariant, at_s, std::move(detail)});
}

bool InvariantMonitor::fault_free() const {
  const auto& links = spec_.topology().links;
  return spec_.events.empty() && !spec_.churn.enabled &&
         std::all_of(links.begin(), links.end(),
                     [](const testbed::TopologyLink& l) { return l.loss == 0.0; });
}

void InvariantMonitor::on_probe(double t_s, const ProbeSample& sample) {
  ++checks_performed_;
  // Liveness is derived from the VC membership: only nodes in the spec
  // topology's replica set may satisfy it, and a node outside that set
  // claiming Active is a role-table breach (e.g. a mode command leaked to a
  // non-member).
  bool any_live_active = false;
  for (const ReplicaProbe& replica : sample.replicas) {
    const bool member = std::find(replicas_.begin(), replicas_.end(),
                                  replica.node) != replicas_.end();
    if (!member) {
      add("sanity.nonmember_replica", t_s,
          "node " + std::to_string(replica.node) +
              " probed as a replica but is outside the VC membership");
      continue;
    }
    if (replica.alive && replica.mode == core::ControllerMode::kActive) {
      any_live_active = true;
    }
  }

  if (probed_) {
    // Cumulative counters must never run backwards; a decrease means a
    // collection bug (e.g. counters reset by a restart path).
    if (sample.failover_count < last_sample_.failover_count) {
      add("sanity.counter_monotone", t_s,
          "failover_count fell from " + std::to_string(last_sample_.failover_count) +
              " to " + std::to_string(sample.failover_count));
    }
    if (sample.missed_deadlines < last_sample_.missed_deadlines) {
      add("sanity.counter_monotone", t_s,
          "missed_deadlines fell from " + std::to_string(last_sample_.missed_deadlines) +
              " to " + std::to_string(sample.missed_deadlines));
    }
    if (sample.task_releases < last_sample_.task_releases) {
      add("sanity.counter_monotone", t_s,
          "task_releases fell from " + std::to_string(last_sample_.task_releases) +
              " to " + std::to_string(sample.task_releases));
    }
  }

  // Liveness: track the longest span with no live Active replica. The run
  // starts with the primary Active, so t=0 is the initial reference point.
  const double gap = t_s - last_active_s_;
  if (gap > max_gap_s_) max_gap_s_ = gap;
  if (!any_live_active && gap > kMaxActiveGapS) {
    add("liveness.active_gap", t_s,
        "no live Active replica for " + fmt(gap) + " s (bound " +
            fmt(kMaxActiveGapS) + " s)");
  }
  if (any_live_active) last_active_s_ = t_s;

  last_sample_ = sample;
  last_live_active_ = any_live_active;
  last_probe_s_ = t_s;
  probed_ = true;
}

void InvariantMonitor::on_level(double t_s, double level_pct) {
  ++checks_performed_;
  const double dev = std::fabs(level_pct - testbed::kLevelSetpoint);
  if (dev > kMaxLevelDevPct) {
    add("safety.level_deviation", t_s,
        "level " + fmt(level_pct) + " % deviates " + fmt(dev) +
            " % from the " + fmt(testbed::kLevelSetpoint) +
            " % setpoint (bound " + fmt(kMaxLevelDevPct) + " %)");
  }
}

void InvariantMonitor::on_finish(const RunMetrics& metrics) {
  ++checks_performed_;
  if (!metrics.ok) {
    add("run.error", -1.0, metrics.error.empty() ? "run failed" : metrics.error);
    return;  // the other properties are meaningless for an aborted run
  }

  if (probed_) {
    // A gap still open when the run ends counts in full.
    const double end_gap = last_probe_s_ - last_active_s_;
    if (end_gap > max_gap_s_) max_gap_s_ = end_gap;
    if (end_gap > kMaxActiveGapS) {
      add("liveness.active_gap", last_probe_s_,
          "no live Active replica for the final " + fmt(end_gap) +
              " s (bound " + fmt(kMaxActiveGapS) + " s)");
    }
    if (config_.require_active_at_end && !last_live_active_) {
      add("liveness.active_at_end", last_probe_s_,
          "no live Active replica at run end (ctrl_a " + metrics.ctrl_a_mode +
              ", ctrl_b " + metrics.ctrl_b_mode + ")");
    }
  }

  if (metrics.level_max_dev_pct > kMaxLevelDevPct) {
    add("safety.level_deviation", -1.0,
        "worst level excursion " + fmt(metrics.level_max_dev_pct) +
            " % exceeds the " + fmt(kMaxLevelDevPct) + " % bound");
  }

  if (metrics.missed_deadlines > metrics.task_releases) {
    add("sanity.deadline_excess", -1.0,
        std::to_string(metrics.missed_deadlines) + " deadline misses against " +
            std::to_string(metrics.task_releases) + " releases");
  }
  if (fault_free() && metrics.failover_count > 0) {
    add("sanity.failover_without_fault", -1.0,
        std::to_string(metrics.failover_count) +
            " failover action(s) in a fault-free scenario");
  }
}

Json InvariantMonitor::to_json() const {
  Json j = Json::object();
  j.set("ok", ok());
  j.set("max_active_gap_s", max_gap_s_);
  Json list = Json::array();
  for (const auto& v : violations_) list.push(v.to_json());
  j.set("violations", std::move(list));
  return j;
}

Json CheckedRun::to_json() const {
  Json j = Json::object();
  j.set("ok", ok());
  j.set("metrics", metrics.to_json());
  Json list = Json::array();
  for (const auto& v : violations) list.push(v.to_json());
  j.set("violations", std::move(list));
  return j;
}

CheckedRun check_scenario(const ScenarioSpec& spec, std::uint64_t seed,
                          const InvariantConfig& config, bool check_determinism) {
  CheckedRun out;
  InvariantMonitor monitor(spec, config);
  ScenarioRunner runner(spec, seed);
  runner.attach_monitor(&monitor);
  out.metrics = runner.run();
  out.violations = monitor.violations();

  if (check_determinism) {
    // Replay under an identically-configured monitor (probes count toward
    // sim_events, so both runs must be instrumented the same way).
    InvariantMonitor replay_monitor(spec, config);
    ScenarioRunner replay(spec, seed);
    replay.attach_monitor(&replay_monitor);
    const RunMetrics again = replay.run();
    if (again.to_json().dump() != out.metrics.to_json().dump()) {
      out.violations.push_back(
          {"determinism.replay", -1.0,
           "replay of (spec, seed=" + std::to_string(seed) +
               ") produced different metrics"});
    }
  }
  return out;
}

}  // namespace evm::scenario
