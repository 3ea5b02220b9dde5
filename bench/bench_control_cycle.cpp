// E4 — Control-cycle timing (paper §4 objective 5: "Control algorithm
// execution with high-speed operation (1/4 second or less control cycle)
// and with a small latency (<= 1/3 of the control cycle)").
//
// On the six-node HIL testbed, measures the end-to-end data-plane latency
// (sensor publication -> actuation applied at the valve node) for a range
// of RT-Link frame lengths, against the 1/3-cycle bound.
#include <iomanip>
#include <iostream>

#include "harness.hpp"
#include "testbed/testbed_builder.hpp"
#include "util/stats.hpp"

using namespace evm;
using TB = testbed::TestbedIds;

namespace {

util::Samples measure(util::Duration control_period) {
  testbed::GasPlantTestbedConfig config;
  config.control_period = control_period;
  config.evidence_threshold = 1 << 30;  // no failover interference
  testbed::TestbedBuilder tb(config);

  // Latency from the timestamp embedded in the level sample to the moment
  // the actuator node applies a valve command computed from (at latest)
  // that sample. Conservative: actuations lag the newest sample by at most
  // one control period + network legs; we report actuation_time - newest
  // sample timestamp seen at the actuator.
  util::Samples latencies_ms;
  std::int64_t last_sample_ns = -1;

  tb.service(TB::kActuator).set_on_stream([&](const core::SensorDataMsg& msg) {
    if (msg.stream == testbed::kLevelStream) last_sample_ns = msg.timestamp_ns;
  });
  tb.service(TB::kActuator).set_actuation_handler([&](const core::ActuationMsg& msg) {
    (void)tb.node(TB::kActuator).write_actuator(msg.channel, msg.value);
    if (last_sample_ns >= 0) {
      latencies_ms.add(
          static_cast<double>(tb.sim().now().ns() - last_sample_ns) / 1e6);
    }
  });

  tb.start();
  tb.run_until(util::Duration::seconds(120));
  return latencies_ms;
}

}  // namespace

int main() {
  std::cout << "=== E4: control cycle and end-to-end latency ===\n";
  std::cout << "six-node HIL VC over RT-Link (50 ms frame), sensor->controller->"
               "actuator\n\n";
  std::cout << "  cycle      bound(1/3)   p50        p99        max      verdict\n";
  bench::Reporter report("control_cycle");

  bool all_met = true;
  for (int period_ms : {250, 200, 150, 100}) {
    const auto latency = measure(util::Duration::millis(period_ms));
    const double bound = period_ms / 3.0;
    const bool met = latency.percentile(0.99) <= bound;
    all_met = all_met && met;
    std::cout << std::fixed << std::setprecision(1) << "  " << std::setw(4)
              << period_ms << " ms" << std::setw(9) << bound << " ms"
              << std::setw(9) << latency.percentile(0.5) << " ms" << std::setw(9)
              << latency.percentile(0.99) << " ms" << std::setw(9)
              << latency.max() << " ms"
              << "   " << (met ? "MET" : "MISSED") << "  (" << latency.count()
              << " actuations)\n";
    report.scenario("cycle_" + std::to_string(period_ms) + "ms")
        .param("control_period_ms", period_ms)
        .param("latency_bound_ms", bound)
        .param("sim_seconds", 120)
        .metric("latency_ms", latency, "ms")
        .metric("bound_met", met);
  }
  std::cout << "\npaper objective: cycle <= 250 ms with latency <= 1/3 cycle -> "
            << (all_met ? "all configurations MET" : "see MISSED rows") << "\n";
  return report.write() ? 0 : 1;
}
