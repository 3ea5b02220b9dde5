#include "plant/hil.hpp"

namespace evm::plant {

HilHarness::HilHarness(sim::Simulator& sim, GasPlant& plant, Config config)
    : sim_(sim), plant_(plant), config_(config) {}

void HilHarness::start() {
  if (running_) return;
  running_ = true;
  sim_.schedule_after(config_.plant_step, [this] { step_plant(); });
  sim_.schedule_after(config_.record_period, [this] { record_samples(); });
}

void HilHarness::record(const std::string& series, const std::string& variable) {
  (void)plant_.read(variable);  // validate early
  recordings_.emplace_back(series, variable);
}

void HilHarness::step_plant() {
  plant_.step(config_.plant_step.to_seconds());
  ++steps_;
  for (const auto& hook : hooks_) hook();
  sim_.schedule_after(config_.plant_step, [this] { step_plant(); });
}

void HilHarness::record_samples() {
  for (const auto& [series, variable] : recordings_) {
    trace_.record(series, sim_.now(), plant_.read(variable));
  }
  sim_.schedule_after(config_.record_period, [this] { record_samples(); });
}

}  // namespace evm::plant
