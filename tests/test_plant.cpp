#include <gtest/gtest.h>

#include <cmath>

#include "plant/gas_plant.hpp"
#include "plant/hil.hpp"
#include "plant/modbus.hpp"
#include "plant/pid.hpp"

namespace evm::plant {
namespace {

// --- PID / filter -----------------------------------------------------------

TEST(Pid, ProportionalOnly) {
  Pid pid({.kp = 2.0, .setpoint = 10.0, .output_min = -100, .output_max = 100});
  EXPECT_DOUBLE_EQ(pid.step(15.0, 1.0), 10.0);   // e=+5 direct acting
  EXPECT_DOUBLE_EQ(pid.step(5.0, 1.0), -10.0);
}

TEST(Pid, ReverseAction) {
  Pid pid({.kp = 2.0, .setpoint = 10.0, .output_min = -100, .output_max = 100,
           .action = -1.0});
  EXPECT_DOUBLE_EQ(pid.step(15.0, 1.0), -10.0);
}

TEST(Pid, IntegralAccumulates) {
  Pid pid({.kp = 0.0, .ki = 1.0, .setpoint = 0.0, .output_min = -100,
           .output_max = 100});
  EXPECT_DOUBLE_EQ(pid.step(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.step(2.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(pid.step(2.0, 1.0), 6.0);
}

TEST(Pid, DerivativeOnErrorChange) {
  Pid pid({.kp = 0.0, .ki = 0.0, .kd = 2.0, .setpoint = 0.0,
           .output_min = -100, .output_max = 100});
  EXPECT_DOUBLE_EQ(pid.step(5.0, 1.0), 0.0);   // first step: no derivative kick
  EXPECT_DOUBLE_EQ(pid.step(8.0, 1.0), 6.0);   // de = 3, kd = 2
}

TEST(Pid, OutputClampedAndAntiWindup) {
  Pid pid({.kp = 1.0, .ki = 10.0, .setpoint = 0.0, .output_min = 0.0,
           .output_max = 10.0});
  for (int i = 0; i < 100; ++i) pid.step(100.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.step(100.0, 1.0), 10.0);
  // Anti-windup: integrator must not have grown unboundedly.
  EXPECT_LT(pid.integrator(), 200.0);
  // Recovery must be prompt once the error flips.
  double out = 10.0;
  for (int i = 0; i < 5 && out > 0.0; ++i) out = pid.step(-100.0, 1.0);
  EXPECT_DOUBLE_EQ(out, 0.0);
}

TEST(Pid, ResetClearsState) {
  Pid pid({.kp = 0.0, .ki = 1.0, .setpoint = 0.0, .output_min = -10,
           .output_max = 10});
  pid.step(5.0, 1.0);
  pid.reset();
  EXPECT_DOUBLE_EQ(pid.integrator(), 0.0);
}

TEST(SecondOrderFilter, InitializesToFirstSample) {
  SecondOrderFilter f(5.0);
  EXPECT_DOUBLE_EQ(f.step(42.0, 0.1), 42.0);
}

TEST(SecondOrderFilter, ConvergesToConstantInput) {
  SecondOrderFilter f(1.0);
  f.step(0.0, 0.1);
  double y = 0.0;
  for (int i = 0; i < 500; ++i) y = f.step(10.0, 0.1);
  EXPECT_NEAR(y, 10.0, 0.01);
}

TEST(SecondOrderFilter, SmoothsFasterInputLessThanSlower) {
  SecondOrderFilter fast(0.5), slow(5.0);
  fast.step(0.0, 0.1);
  slow.step(0.0, 0.1);
  double yf = 0, ys = 0;
  for (int i = 0; i < 10; ++i) {
    yf = fast.step(10.0, 0.1);
    ys = slow.step(10.0, 0.1);
  }
  EXPECT_GT(yf, ys);  // shorter time constant tracks faster
}

TEST(SecondOrderFilter, ResetReinitializesToTheNextSample) {
  SecondOrderFilter f(5.0);
  f.step(0.0, 0.1);
  f.step(10.0, 0.1);
  f.reset(7.0);
  EXPECT_DOUBLE_EQ(f.value(), 7.0);
  // After reset the next sample seeds both stages, as on first use.
  EXPECT_DOUBLE_EQ(f.step(30.0, 0.1), 30.0);
  EXPECT_LT(f.step(0.0, 0.1), 30.0);
}

// --- Blocks --------------------------------------------------------------------

TEST(FirstOrderLag, StepResponseTimeConstant) {
  FirstOrderLag lag(10.0, 0.0);
  double y = 0;
  for (int i = 0; i < 100; ++i) y = lag.step(1.0, 0.1);  // 10 s = 1 tau
  EXPECT_NEAR(y, 0.63, 0.03);
}

TEST(InletSeparator, SplitsFeedConservatively) {
  InletSeparator sep(0.12, 0.002, 30.0);
  Stream feed{100.0, 30.0};
  for (int i = 0; i < 10000; ++i) sep.step(feed, 1.0);
  EXPECT_NEAR(sep.free_liquid().molar_flow, 12.0, 0.1);
  EXPECT_NEAR(sep.overhead_gas().molar_flow + sep.free_liquid().molar_flow,
              100.0, 1e-6);
}

TEST(InletSeparator, ColderFeedCondensesMore) {
  InletSeparator warm(0.12, 0.002, 30.0), cold(0.12, 0.002, 30.0);
  for (int i = 0; i < 10000; ++i) {
    warm.step({100.0, 30.0}, 1.0);
    cold.step({100.0, 10.0}, 1.0);
  }
  EXPECT_GT(cold.free_liquid().molar_flow, warm.free_liquid().molar_flow);
}

TEST(Chiller, DrivesToSetpoint) {
  Chiller chiller(-25.0, 10.0);
  Stream out;
  for (int i = 0; i < 1000; ++i) out = chiller.step({100.0, 30.0}, 1.0);
  EXPECT_NEAR(out.temperature, -25.0, 0.5);
}

TEST(Chiller, FailedChillerWarmsToAmbient) {
  Chiller chiller(-25.0, 10.0);
  for (int i = 0; i < 1000; ++i) chiller.step({100.0, 30.0}, 1.0);
  chiller.set_failed(true);
  Stream out;
  for (int i = 0; i < 1000; ++i) out = chiller.step({100.0, 30.0}, 1.0);
  EXPECT_NEAR(out.temperature, 25.0, 0.5);
}

TEST(LowTempSeparator, MassBalanceAtSteadyState) {
  LowTempSeparator::Params params;
  params.holdup_capacity_kmol = 100.0;
  params.valve_cv = 400.0;
  LowTempSeparator lts(params);
  const Stream feed{80.0, -25.0};
  // Find the steady opening for level 50 and hold it there.
  lts.step(feed, 1.0);
  const double liquid_in = feed.molar_flow - lts.gas_out().molar_flow;
  lts.set_valve_opening(lts.steady_opening(liquid_in, 50.0));
  for (int i = 0; i < 20000; ++i) lts.step(feed, 1.0);
  EXPECT_NEAR(lts.level_percent(), 50.0, 1.0);
  EXPECT_NEAR(lts.liquid_out().molar_flow, liquid_in, 0.5);
}

TEST(LowTempSeparator, OpenValveDrainsClosedValveFills) {
  LowTempSeparator lts({});
  const Stream feed{80.0, -25.0};
  lts.set_valve_opening(100.0);
  for (int i = 0; i < 2000; ++i) lts.step(feed, 1.0);
  EXPECT_LT(lts.level_percent(), 10.0);
  lts.set_valve_opening(0.0);
  for (int i = 0; i < 20000; ++i) lts.step(feed, 1.0);
  EXPECT_GT(lts.level_percent(), 90.0);
}

TEST(LowTempSeparator, LevelStaysInBounds) {
  LowTempSeparator lts({});
  lts.set_valve_opening(0.0);
  for (int i = 0; i < 50000; ++i) lts.step({200.0, -30.0}, 1.0);
  EXPECT_LE(lts.level_percent(), 100.0);
  lts.set_valve_opening(100.0);
  for (int i = 0; i < 50000; ++i) lts.step({0.0, -30.0}, 1.0);
  EXPECT_GE(lts.level_percent(), 0.0);
}

TEST(Mixer, SumsFlowsAndBlendsTemperature) {
  Mixer mixer(0.0);  // no lag
  const Stream out = mixer.step({10.0, 0.0}, {30.0, 40.0}, 1.0);
  EXPECT_DOUBLE_EQ(out.molar_flow, 40.0);
  EXPECT_DOUBLE_EQ(out.temperature, 30.0);  // flow-weighted
}

TEST(Depropanizer, SplitsFeed) {
  Depropanizer column(0.7, 1.0);
  Stream feed{50.0, 20.0};
  for (int i = 0; i < 1000; ++i) column.step(feed, 1.0);
  EXPECT_NEAR(column.bottoms().molar_flow, 35.0, 0.5);
  EXPECT_NEAR(column.overhead().molar_flow, 15.0, 0.5);
  EXPECT_GT(column.bottoms().temperature, feed.temperature);
}

// --- GasPlant -----------------------------------------------------------------

TEST(GasPlant, SettlesToPhysicalState) {
  GasPlant plant;
  plant.settle(2000.0);
  EXPECT_NEAR(plant.chiller_outlet_temp(), -25.0, 1.0);
  EXPECT_GT(plant.sep_liquid_flow(), 5.0);
  EXPECT_GT(plant.tower_feed_flow(), 0.0);
}

TEST(GasPlant, SteadyOpeningBalancesLevel) {
  GasPlant plant;
  plant.settle(2000.0);
  const double opening = plant.steady_lts_opening(50.0);
  plant.lts().set_level_percent(50.0);
  plant.set_lts_valve(opening);
  plant.settle(500.0);
  EXPECT_NEAR(plant.lts_level_percent(), 50.0, 2.0);
}

TEST(GasPlant, MisSetValveDrainsSeparator) {
  GasPlant plant;
  plant.settle(2000.0);
  plant.lts().set_level_percent(50.0);
  plant.set_lts_valve(plant.steady_lts_opening(50.0));
  plant.settle(100.0);
  const double level_before = plant.lts_level_percent();
  plant.set_lts_valve(75.0);  // the paper's fault value
  plant.settle(300.0);
  EXPECT_LT(plant.lts_level_percent(), level_before - 10.0);
  EXPECT_GT(plant.lts_liquid_flow(), 50.0);  // flow spike
}

TEST(GasPlant, VariableRegistryReadsAndWrites) {
  GasPlant plant;
  plant.settle(100.0);
  EXPECT_NO_THROW(plant.read("LTS.LiquidPercentLevel"));
  EXPECT_THROW(plant.read("No.Such.Variable"), std::out_of_range);
  plant.write("LTSValve.Opening", 33.0);
  EXPECT_DOUBLE_EQ(plant.read("LTSValve.Opening"), 33.0);
  EXPECT_THROW(plant.write("LTS.LiquidPercentLevel", 1.0), std::out_of_range);
  EXPECT_GE(plant.variable_names().size(), 8u);
}

TEST(GasPlant, RecycleCouplingMovesSepLiq) {
  GasPlantConfig config;
  config.recycle_coupling_degc_per_kmolh = 0.05;
  GasPlant plant(config);
  plant.settle(2000.0);
  const double sep_before = plant.sep_liquid_flow();
  plant.set_lts_valve(75.0);  // tower feed spikes -> inlet cools -> SepLiq up
  plant.settle(400.0);
  EXPECT_GT(std::fabs(plant.sep_liquid_flow() - sep_before), 0.1);
}

// --- ModBus ----------------------------------------------------------------------

TEST(Modbus, MapsAndReadsRegisters) {
  GasPlant plant;
  plant.settle(100.0);
  ModbusGateway modbus;
  ASSERT_TRUE(modbus.map_plant_variable(0, plant, "LTS.LiquidPercentLevel", false));
  ASSERT_TRUE(modbus.map_plant_variable(100, plant, "LTSValve.Opening", true));
  auto level = modbus.read_register(0);
  ASSERT_TRUE(level.ok());
  EXPECT_GT(*level, 0.0);
  ASSERT_TRUE(modbus.write_register(100, 42.0));
  EXPECT_DOUBLE_EQ(plant.lts_valve(), 42.0);
  EXPECT_EQ(modbus.read_count(), 1u);
  EXPECT_EQ(modbus.write_count(), 1u);
}

TEST(Modbus, UnmappedRegisterErrors) {
  ModbusGateway modbus;
  EXPECT_FALSE(modbus.read_register(9).ok());
  EXPECT_FALSE(modbus.write_register(9, 1.0));
}

TEST(Modbus, ReadOnlyMappingRejectsWrites) {
  GasPlant plant;
  ModbusGateway modbus;
  ASSERT_TRUE(modbus.map_plant_variable(0, plant, "LTS.LiquidPercentLevel", false));
  EXPECT_FALSE(modbus.write_register(0, 1.0));
}

TEST(Modbus, UnknownVariableRejected) {
  GasPlant plant;
  ModbusGateway modbus;
  EXPECT_FALSE(modbus.map_plant_variable(0, plant, "Bogus.Name", false));
}

// --- HIL harness -----------------------------------------------------------------

TEST(HilHarness, StepsPlantOnVirtualClock) {
  sim::Simulator sim(1);
  GasPlant plant;
  HilHarness hil(sim, plant);
  hil.record("level", "LTS.LiquidPercentLevel");
  hil.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(60));
  EXPECT_NEAR(static_cast<double>(hil.steps_run()), 600.0, 2.0);  // 100 ms steps
  EXPECT_GE(hil.trace().total_samples(), 59u);
}

TEST(HilHarness, StepHooksRun) {
  sim::Simulator sim(1);
  GasPlant plant;
  HilHarness hil(sim, plant);
  int hooks = 0;
  hil.add_step_hook([&] { ++hooks; });
  hil.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(5));
  EXPECT_EQ(hooks, 50);
}

TEST(HilHarness, RecordRejectsUnknownVariable) {
  sim::Simulator sim(1);
  GasPlant plant;
  HilHarness hil(sim, plant);
  EXPECT_THROW(hil.record("x", "Not.A.Variable"), std::out_of_range);
}

}  // namespace
}  // namespace evm::plant
