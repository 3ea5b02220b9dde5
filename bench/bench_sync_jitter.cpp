// E3 — Time-synchronization jitter (paper §2.1: "FireFly nodes are able to
// achieve sub-150 µs jitter by using a passive AM radio receiver").
//
// Collects the pulse-detection jitter distribution over 10,000 sync pulses
// and reports percentiles, plus the residual clock error between two nodes
// (what RT-Link's guard interval must absorb) for several sync periods.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "harness.hpp"
#include "net/clock.hpp"
#include "net/timesync.hpp"
#include "util/stats.hpp"

using namespace evm;
using namespace evm::net;

int main() {
  std::cout << "=== E3: AM-pulse time synchronization jitter ===\n\n";
  bench::Reporter report("sync_jitter");

  // --- jitter distribution over 10^4 pulses -------------------------------
  sim::Simulator sim(2024);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  params.jitter_sigma = util::Duration::micros(40);
  params.jitter_max = util::Duration::micros(150);
  TimeSync sync(sim, params);
  NodeClock clock(25.0);
  util::Samples jitter_us;
  sync.attach(1, clock, [&](util::Duration j) {
    jitter_us.add(static_cast<double>(j.ns()) / 1000.0);
  });
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(1000));

  const bool bound_met = jitter_us.max() <= 150.0;
  std::cout << "pulses observed: " << jitter_us.count() << "\n";
  std::cout << std::fixed << std::setprecision(1);
  std::cout << "detection jitter:  " << jitter_us.summary(" us") << "\n";
  std::cout << "paper bound: < 150 us -> " << (bound_met ? "MET" : "VIOLATED")
            << "\n";
  report.scenario("pulse_detection_jitter")
      .param("pulses", jitter_us.count())
      .param("sync_period_ms", 100)
      .param("jitter_sigma_us", 40)
      .param("jitter_max_us", 150)
      .metric("jitter_us", jitter_us, "us")
      .metric("paper_bound_150us_met", bound_met);

  // --- pairwise clock error vs sync period (drives guard sizing) -----------
  std::cout << "\npairwise clock error (40 ppm vs -40 ppm crystals):\n";
  std::cout << "  sync period     p99 error    max error\n";
  double p99_at_1s = 0.0, max_at_1s = 0.0;
  for (int period_ms : {100, 500, 1000, 5000, 10000}) {
    sim::Simulator s2(99);
    TimeSyncParams p2 = params;
    p2.period = util::Duration::millis(period_ms);
    TimeSync sync2(s2, p2);
    NodeClock a(40.0), b(-40.0), sampler(0.0);
    sync2.attach(1, a);
    sync2.attach(2, b);
    util::Samples errors_us;
    // Sample the pairwise error just before each pulse (worst point): the
    // sampler's on_pulse runs at the pulse instant, before any reception of
    // that pulse takes effect. Its own clock only keeps it a subscriber.
    sync2.attach(3, sampler, [&](util::Duration) {
      const auto now = s2.now();
      errors_us.add(std::fabs(
          static_cast<double>((a.local_time(now) - b.local_time(now)).ns())) /
          1000.0);
    });
    sync2.start();
    s2.run_until(util::TimePoint::zero() + util::Duration::seconds(600));
    std::cout << "  " << std::setw(8) << period_ms << " ms" << std::setw(11)
              << errors_us.percentile(0.99) << " us" << std::setw(10)
              << errors_us.max() << " us\n";
    if (period_ms == 1000) {
      p99_at_1s = errors_us.percentile(0.99);
      max_at_1s = errors_us.max();
    }
    report.scenario("pairwise_clock_error_" + std::to_string(period_ms) + "ms")
        .param("sync_period_ms", period_ms)
        .param("drift_ppm_a", 40)
        .param("drift_ppm_b", -40)
        .metric("error_us", errors_us, "us");
  }
  // The budget is jitter plus 80 ppm relative drift over one period.
  const auto fits = [](double us) { return us <= 200.0 ? "within" : "beyond"; };
  std::cout << "\nRT-Link's 200 us guard vs the 1 s-period error just before a "
               "pulse:\n  p99 " << p99_at_1s << " us is " << fits(p99_at_1s)
            << " it, max " << max_at_1s << " us is " << fits(max_at_1s) << " it.\n";
  return report.write() ? 0 : 1;
}
