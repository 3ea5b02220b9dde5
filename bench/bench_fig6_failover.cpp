// E1 — Reproduces Fig. 6(b): process-control outputs during primary
// controller failure (T1 = 300 s), detection + backup activation
// (T2 ~ 600 s) and demotion to Dormant (T3 ~ 800 s).
//
// Prints the same four series the paper plots — LTS liquid percent level,
// SepLiq / LTSLiq / TowerFeed molar flows — plus the failover event log and
// a paper-vs-measured summary.
#include <iomanip>
#include <iostream>

#include "harness.hpp"
#include "testbed/testbed_builder.hpp"

using namespace evm;
using TB = testbed::TestbedIds;

int main() {
  std::cout << "=== E1 / Fig. 6(b): fault-tolerant wireless controller failover ===\n\n";

  testbed::GasPlantTestbedConfig config;  // paper-default thresholds
  testbed::TestbedBuilder tb(config);
  tb.hil().record("LTS-LiqPctLevel", "LTS.LiquidPercentLevel");
  tb.hil().record("SepLiq-MolarFlow", "SepLiq.MolarFlow");
  tb.hil().record("LTSLiq-MolarFlow", "LTSLiq.MolarFlow");
  tb.hil().record("TowerFeed-MolarFlow", "TowerFeed.MolarFlow");
  tb.start();

  std::cout << "operating point: level 50 %, valve " << std::fixed
            << std::setprecision(2) << tb.steady_opening()
            << " % (paper: 11.48 %)\n";

  tb.sim().schedule_at(util::TimePoint::zero() + util::Duration::seconds(300),
                       [&tb] { tb.inject_primary_fault(75.0); });
  tb.run_until(util::Duration::seconds(1000));

  std::cout << "\nFailover events (head log):\n";
  for (const auto& e : tb.head().failovers()) {
    std::cout << "  T2 = " << std::setprecision(1) << e.when.to_seconds()
              << " s: node " << e.demoted << " (Ctrl-A) -> node " << e.promoted
              << " (Ctrl-B)\n";
  }

  const auto& trace = tb.hil().trace();
  auto at = [&](const char* s, double t) {
    return trace.value_at(s, util::TimePoint::zero() + util::Duration::from_seconds(t));
  };

  std::cout << "\nSeries (20 s grid):\n";
  trace.print_table(std::cout, util::Duration::seconds(20));

  std::cout << "\n--- paper-vs-measured summary -------------------------------\n";
  std::cout << std::setprecision(2);
  std::cout << "fault injected (T1):            paper 300 s   measured 300 s\n";
  const double t2 = tb.head().failovers().empty()
                        ? -1.0
                        : tb.head().failovers()[0].when.to_seconds();
  std::cout << "backup activated (T2):          paper 600 s   measured " << t2 << " s\n";
  std::cout << "primary dormant (T3):           paper 800 s   measured "
            << (t2 + 200.0) << " s (T2 + 200 s)\n";
  std::cout << "level at steady state:          " << at("LTS-LiqPctLevel", 290) << " %\n";
  std::cout << "level at takeover (600 s):      " << at("LTS-LiqPctLevel", 600)
            << " %  (paper: deep sag)\n";
  std::cout << "level at 1000 s (recovering):   " << at("LTS-LiqPctLevel", 1000) << " %\n";
  std::cout << "tower feed nominal / peak:      " << at("TowerFeed-MolarFlow", 290)
            << " / " << trace.max_value("TowerFeed-MolarFlow") << " kmol/h\n";
  std::cout << "Ctrl-A final mode:              "
            << core::to_string(tb.service(TB::kCtrlA).mode(testbed::kLtsLevelLoop))
            << " (paper: Dormant)\n";
  std::cout << "Ctrl-B final mode:              "
            << core::to_string(tb.service(TB::kCtrlB).mode(testbed::kLtsLevelLoop))
            << " (paper: Active)\n";

  const bool shape_ok = t2 > 595.0 && t2 < 605.0 &&
                        at("LTS-LiqPctLevel", 600) < 30.0 &&
                        at("LTS-LiqPctLevel", 1000) > at("LTS-LiqPctLevel", 610);
  std::cout << "\nshape reproduction: " << (shape_ok ? "OK" : "MISMATCH") << "\n";

  bench::Reporter report("fig6_failover");
  report.scenario("fig6b")
      .param("fault_injected_s", 300)
      .param("paper_t2_s", 600)
      .param("paper_t3_s", 800)
      .metric("measured_t2_s", t2)
      .metric("level_steady_pct", at("LTS-LiqPctLevel", 290))
      .metric("level_at_takeover_pct", at("LTS-LiqPctLevel", 600))
      .metric("level_at_1000s_pct", at("LTS-LiqPctLevel", 1000))
      .metric("tower_feed_nominal_kmolh", at("TowerFeed-MolarFlow", 290))
      .metric("tower_feed_peak_kmolh", trace.max_value("TowerFeed-MolarFlow"))
      .metric("shape_ok", shape_ok);
  const bool wrote = report.write();
  return shape_ok && wrote ? 0 : 1;
}
