// Hardware-in-loop co-simulation harness: steps the plant flowsheet on the
// same virtual clock as the wireless network and RTOS models, and records
// the Fig. 6(b) series into a Trace. The plant integrates at a fixed step
// independent of the controllers' periods, mirroring the paper's separation
// of Unisim time from network time.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "plant/gas_plant.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace evm::plant {

struct HilConfig {
  util::Duration plant_step = util::Duration::millis(100);
  util::Duration record_period = util::Duration::seconds(1);
};

class HilHarness {
 public:
  using Config = HilConfig;

  HilHarness(sim::Simulator& sim, GasPlant& plant, Config config = {});

  /// Begin stepping the plant (and recording, if series were added).
  void start();

  /// Record `variable` into the trace under `series` once per record period.
  void record(const std::string& series, const std::string& variable);
  sim::Trace& trace() { return trace_; }

  /// Run `hook` after every plant step (fault scripts, assertions...).
  void add_step_hook(std::function<void()> hook) {
    hooks_.push_back(std::move(hook));
  }

  std::size_t steps_run() const { return steps_; }

 private:
  void step_plant();
  void record_samples();

  sim::Simulator& sim_;
  GasPlant& plant_;
  Config config_;
  sim::Trace trace_;
  std::vector<std::pair<std::string, std::string>> recordings_;
  std::vector<std::function<void()>> hooks_;
  std::size_t steps_ = 0;
  bool running_ = false;
};

}  // namespace evm::plant
