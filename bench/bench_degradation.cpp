// E8 — Graceful degradation under successive controller failures (paper
// §1.1 goal 2: "provably minimal QoS degradation without violating safety").
//
// Three controller replicas run the LTS level loop. Failures arrive one at
// a time — a wrong-output fault (caught by the backup's shadow comparison),
// then a crash (caught by heartbeat silence), then a final wrong-output
// fault with no replica left. Per phase we report the active replica, the
// failover latency and the level excursion.
//
// Ablation: with output-deviation detection disabled (silence-only), the
// first fault is never detected and the excursion grows unboundedly — the
// quantitative case for health-assessment transfers.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "harness.hpp"
#include "testbed/testbed_builder.hpp"

using namespace evm;
using TB = testbed::TestbedIds;

namespace {

std::string active_name(testbed::TestbedBuilder& tb) {
  for (auto [id, name] : {std::pair<net::NodeId, const char*>{TB::kCtrlA, "Ctrl-A"},
                          {TB::kCtrlB, "Ctrl-B"},
                          {TB::kCtrlC, "Ctrl-C"}}) {
    if (!tb.node(id).failed() &&
        tb.service(id).mode(testbed::kLtsLevelLoop) ==
            core::ControllerMode::kActive) {
      return name;
    }
  }
  return "(none healthy)";
}

struct PhaseOutcome {
  double err0 = 0, err1 = 0, err2 = 0;  // max |level - 50| per phase
  double t_fo1 = -1, t_fo2 = -1;        // failover times, -1 = none
  std::size_t failovers = 0;
  std::string survivor;
};

PhaseOutcome run_scenario(bool deviation_detection) {
  testbed::GasPlantTestbedConfig config;
  config.topology = testbed::default_fig5_topology(/*third_controller=*/true);
  config.evidence_threshold = deviation_detection ? 8 : (1 << 30);
  config.dormant_delay = util::Duration::seconds(5);
  testbed::TestbedBuilder tb(config);
  tb.start();

  double max_error = 0.0;
  tb.hil().add_step_hook([&] {
    max_error = std::max(max_error,
                         std::fabs(tb.plant().lts_level_percent() - 50.0));
  });
  auto phase_error = [&max_error] {
    const double e = max_error;
    max_error = 0.0;
    return e;
  };

  tb.run_until(util::Duration::seconds(60));
  const double err0 = phase_error();

  // Failure 1: the primary silently computes the wrong output (75 %).
  tb.service(TB::kCtrlA).inject_output_fault(testbed::kLtsLevelLoop, 75.0);
  tb.run_until(util::Duration::seconds(240));
  const double err1 = phase_error();
  const double t_fo1 = tb.head().failovers().empty()
                           ? -1.0
                           : tb.head().failovers()[0].when.to_seconds();
  std::cout << "  t=60s   Ctrl-A outputs 75% instead of ~11.5%";
  if (t_fo1 > 0) {
    std::cout << "; detected, failover at " << std::fixed << std::setprecision(1)
              << t_fo1 << " s -> " << active_name(tb) << "\n";
  } else {
    std::cout << "; NEVER DETECTED (silence-only monitor)\n";
  }

  // Failure 2: the new active crashes outright (silence detector).
  const net::NodeId active2 =
      tb.service(TB::kCtrlB).mode(testbed::kLtsLevelLoop) ==
              core::ControllerMode::kActive
          ? TB::kCtrlB
          : TB::kCtrlA;
  const std::size_t failovers_before_crash = tb.head().failovers().size();
  tb.node(active2).fail();
  tb.run_until(util::Duration::seconds(420));
  const double err2 = phase_error();
  const double t_fo2 =
      tb.head().failovers().size() <= failovers_before_crash
          ? -1.0
          : tb.head().failovers()[failovers_before_crash].when.to_seconds();
  std::cout << "  t=240s  active controller crashed";
  if (t_fo2 > 0) {
    std::cout << "; silence failover at " << t_fo2 << " s -> "
              << active_name(tb) << "\n";
  } else {
    std::cout << "; no failover recorded\n";
  }

  std::cout << "\n  max |level - 50| per phase:\n";
  std::cout << std::setprecision(2);
  std::cout << "    healthy (3 replicas):   " << err0 << " %\n";
  std::cout << "    wrong-output fault:     " << err1 << " %"
            << (t_fo1 < 0 ? "  <- fault running uncorrected" : "") << "\n";
  std::cout << "    crash of successor:     " << err2 << " %\n";
  std::cout << "  failovers: " << tb.head().failovers().size()
            << ", surviving active: " << active_name(tb) << "\n";

  PhaseOutcome outcome;
  outcome.err0 = err0;
  outcome.err1 = err1;
  outcome.err2 = err2;
  outcome.t_fo1 = t_fo1;
  outcome.t_fo2 = t_fo2;
  outcome.failovers = tb.head().failovers().size();
  outcome.survivor = active_name(tb);
  return outcome;
}

void record(bench::Reporter& report, const std::string& name,
            bool deviation_detection, const PhaseOutcome& o) {
  report.scenario(name)
      .param("deviation_detection", deviation_detection)
      .param("replicas", 3)
      .metric("max_level_error_healthy_pct", o.err0)
      .metric("max_level_error_fault1_pct", o.err1)
      .metric("max_level_error_fault2_pct", o.err2)
      .metric("failover1_s", o.t_fo1)
      .metric("failover2_s", o.t_fo2)
      .metric("failovers", o.failovers)
      .metric("fault1_detected", o.t_fo1 >= 0)
      .metric("surviving_active", o.survivor);
}

}  // namespace

int main() {
  std::cout << "=== E8: graceful degradation under successive controller "
               "failures ===\n\n";
  bench::Reporter report("degradation");
  std::cout << "-- detection: silence + output deviation (EVM default) ------\n";
  record(report, "silence_plus_deviation", true, run_scenario(true));
  std::cout << "\n-- ablation: heartbeat-silence detection only ----------------\n";
  record(report, "silence_only", false, run_scenario(false));
  std::cout << "\nshape: with health-assessment transfers each failure costs a\n"
               "bounded excursion and control survives while any replica does;\n"
               "without output comparison a wrong-but-alive primary is fatal.\n";
  return report.write() ? 0 : 1;
}
