// The natural-gas processing plant of the paper's Fig. 4: multiple raw feed
// streams -> inlet separator -> gas/gas exchanger -> chiller -> low-
// temperature separator; LTS + separator liquids mix into the tower feed of
// the depropanizer. Variables are exposed through a name registry, which
// the HIL harness records from.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "plant/blocks.hpp"

namespace evm::plant {

struct GasPlantConfig {
  double feed_molar_flow = 100.0;  // kmol/h, combined raw gas feeds
  double feed_temperature = 30.0;  // degC
  double chiller_setpoint = -25.0;
  /// Lumped recycle coupling: a loaded depropanizer returns heat to the
  /// inlet, shifting the inlet separator's effective temperature by
  /// -coupling * (tower_feed - nominal) degC. This is what makes
  /// SepLiq.MolarFlow respond to LTS upsets, as in the paper's Fig. 6(b).
  double recycle_coupling_degc_per_kmolh = 0.03;
  double tower_feed_nominal_kmolh = 45.0;
  LowTempSeparator::Params lts;
};

class GasPlant {
 public:
  using Config = GasPlantConfig;

  explicit GasPlant(Config config = {});

  /// Advance the flowsheet by dt seconds.
  void step(double dt);

  /// Drive the plant to steady state at the current valve opening (used to
  /// initialize experiments at the paper's operating point).
  void settle(double seconds, double dt = 1.0);

  // --- Controlled inputs --------------------------------------------------
  void set_lts_valve(double percent) { lts_.set_valve_opening(percent); }
  double lts_valve() const { return lts_.valve_opening(); }
  void set_feed_flow(double kmol_h) { feed_.molar_flow = kmol_h; }

  // --- Measurements (the Fig. 6(b) series) ----------------------------------
  double lts_level_percent() const { return lts_.level_percent(); }
  double sep_liquid_flow() const { return inlet_sep_.free_liquid().molar_flow; }
  double lts_liquid_flow() const { return lts_.liquid_out().molar_flow; }
  double tower_feed_flow() const { return tower_feed_.molar_flow; }
  double chiller_outlet_temp() const { return chilled_.temperature; }
  double bottoms_flow() const { return depropanizer_.bottoms().molar_flow; }

  /// Steady-state valve opening balancing current liquid inflow at `level`.
  double steady_lts_opening(double level_percent) const;

  // --- Variable registry ------------------------------------------------------
  /// Readable process variables by name.
  double read(const std::string& name) const;
  /// Writable inputs by name ("LTSValve.Opening", "Feed.MolarFlow", ...).
  void write(const std::string& name, double value);
  std::vector<std::string> variable_names() const;

  LowTempSeparator& lts() { return lts_; }
  Chiller& chiller() { return chiller_; }

 private:
  Config config_;
  Stream feed_;
  InletSeparator inlet_sep_{0.12, 0.002, 30.0};
  GasGasExchanger exchanger_{8.0};
  Chiller chiller_;
  LowTempSeparator lts_;
  Mixer mixer_{60.0};
  Depropanizer depropanizer_{0.7, 120.0};

  Stream chilled_;
  Stream tower_feed_;

  std::map<std::string, std::function<double()>> readers_;
  std::map<std::string, std::function<void(double)>> writers_;
  void build_registry();
};

}  // namespace evm::plant
