// Over-the-air reprogramming of a live control loop (paper §1: "runtime
// programmable WSAC networks allow for flexible item-by-item process
// customization"; §3.1.1 op. 8: received code is attested before use).
//
// The gas-plant VC runs its PID at setpoint 50 %. Mid-run, the head
// disseminates a re-tuned PID capsule (setpoint 40 %) to every replica.
// Each node attests the capsule, hot-swaps the algorithm *while keeping the
// controller's VM state*, and the plant settles at the new operating point
// without a restart. A corrupted capsule broadcast is shown bouncing off
// the attestation gate.
//
// Run:  ./reprogramming
#include <iostream>

#include "testbed/testbed_builder.hpp"

using namespace evm;
using TB = testbed::TestbedIds;

int main() {
  testbed::GasPlantTestbedConfig config;
  config.evidence_threshold = 1 << 30;  // failover out of the picture here
  testbed::TestbedBuilder tb(config);
  tb.start();
  tb.run_until(util::Duration::seconds(120));
  std::cout << "t=120s  level " << tb.plant().lts_level_percent()
            << " % at setpoint 50 (algorithm v0 on all replicas)\n";

  // Build the re-tuned capsule: same loop, new setpoint.
  core::FilteredPidSpec spec;
  spec.kp = 2.0;
  spec.ki = 0.02;
  spec.setpoint = 40.0;
  spec.filter_tau_s = 2.0;
  spec.dt_s = config.control_period.to_seconds();
  spec.integral_min = -40.0;
  spec.integral_max = 40.0;
  auto v1 = core::make_filtered_pid(testbed::kLtsLevelLoop, "lts-pid-sp40", spec);
  if (!v1) {
    std::cerr << "capsule build failed: " << v1.status().to_string() << "\n";
    return 1;
  }
  v1->version = 1;

  // First, demonstrate the attestation gate with a corrupted copy.
  vm::Capsule corrupted = *v1;
  corrupted.version = 2;
  corrupted.code[4] = 0x7F;  // invalid opcode
  corrupted.seal();          // CRC is consistent; structure is not
  (void)tb.head().disseminate_algorithm(testbed::kLtsLevelLoop, corrupted);
  tb.run_until(util::Duration::seconds(125));
  std::cout << "t=125s  corrupted v2 broadcast: Ctrl-A still runs v"
            << tb.service(TB::kCtrlA).algorithm_version(testbed::kLtsLevelLoop)
            << " (attestation rejected the update)\n";

  // Now the genuine update.
  (void)tb.head().disseminate_algorithm(testbed::kLtsLevelLoop, *v1);
  tb.run_until(util::Duration::seconds(130));
  std::cout << "t=130s  v1 accepted on Ctrl-A and Ctrl-B (versions "
            << tb.service(TB::kCtrlA).algorithm_version(testbed::kLtsLevelLoop)
            << ", "
            << tb.service(TB::kCtrlB).algorithm_version(testbed::kLtsLevelLoop)
            << ")\n";

  tb.run_until(util::Duration::seconds(700));
  std::cout << "t=700s  level " << tb.plant().lts_level_percent()
            << " % (new setpoint 40, no restart, no failover: failovers="
            << tb.head().failovers().size() << ")\n";

  const bool ok =
      std::abs(tb.plant().lts_level_percent() - 40.0) < 2.0 &&
      tb.service(TB::kCtrlA).algorithm_version(testbed::kLtsLevelLoop) == 1;
  std::cout << (ok ? "\nreprogramming OK" : "\nreprogramming FAILED") << "\n";
  return ok ? 0 : 1;
}
