// TestbedBuilder compiles a declarative TopologySpec into a running
// co-simulation: the wireless world (topology, medium, hop-aware RT-Link
// schedule, time sync), the gas plant in hardware-in-loop, one node + EVM
// service per spec entry, and a Virtual Component descriptor derived from
// the spec's roles and membership (sensor publishes to every replica, the
// primary actuates, backups hold health-assessment transfers). The paper's
// evaluation testbed (Fig. 5: a Honeywell-Unisim-style natural gas plant in
// hardware-in-loop with six FireFly-class nodes) is the default world, so
// TestbedBuilder{} builds it; a 20-node multi-hop grid is the same code fed
// a different `topology`.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/control_programs.hpp"
#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "plant/hil.hpp"
#include "testbed/topology_spec.hpp"

namespace evm::testbed {

struct GasPlantTestbedConfig {
  std::uint64_t seed = 7;
  /// World to build.
  TopologySpec topology = default_fig5_topology();
  /// Control cycle (paper objective 5: 1/4 second or less).
  util::Duration control_period = util::Duration::millis(250);
  /// Consecutive deviating cycles before the backup reports. The paper's
  /// scenario takes T2 - T1 = 300 s to act; at 4 Hz that is 1200 cycles.
  std::uint32_t evidence_threshold = 1200;
  /// T3 - T2: demoted primary parks Dormant after this long as Backup.
  util::Duration dormant_delay = util::Duration::seconds(200);
  /// Head-side supervision window for a freshly promoted replica. Multi-hop
  /// worlds with long control periods need more than the 2 s default.
  util::Duration promotion_timeout = util::Duration::seconds(2);
  /// Head liveness beacon period. The succession window is this times
  /// core::kBeaconLossThreshold (5); it must out-wait a few TDMA frames
  /// or members elect a rogue head every frame. Worlds whose frame exceeds
  /// ~1 s (hundreds of nodes) must raise it.
  util::Duration head_beacon_period = util::Duration::seconds(1);
  /// Broadcast dissemination scheme (see DisseminationMode).
  DisseminationMode dissemination = DisseminationMode::kAuto;
};

inline constexpr core::FunctionId kLtsLevelLoop = 1;
/// LTS level setpoint (percent) the controllers regulate to.
inline constexpr double kLevelSetpoint = 50.0;
inline constexpr std::uint8_t kLevelStream = 0;
inline constexpr std::uint8_t kValveChannel = 0;

class TestbedBuilder {
 public:
  /// Compile `config` (whose `topology` names the world) into the sim.
  /// Throws std::runtime_error on an invalid topology (ScenarioRunner turns
  /// that into a run error). The world is moved into topology_spec().
  explicit TestbedBuilder(GasPlantTestbedConfig config = {});

  /// Settle the plant at its steady operating point, start every node, the
  /// time sync, the MACs and the HIL harness.
  void start();

  /// Inject the paper's fault: the initial primary keeps running but emits
  /// `wrong_value` (Fig. 6(b): 75 instead of 11.48).
  void inject_primary_fault(double wrong_value);
  void clear_primary_fault();

  /// Run the co-simulation until absolute virtual time `until`.
  void run_until(util::Duration until);

  sim::Simulator& sim() { return sim_; }
  plant::GasPlant& plant() { return plant_; }
  plant::HilHarness& hil() { return *hil_; }
  net::Topology& topology() { return topology_; }
  const TopologySpec& topology_spec() const { return topo_; }
  net::Medium& medium() { return *medium_; }
  net::RtLinkSchedule& schedule() { return *schedule_; }
  core::Node& node(net::NodeId id) { return *nodes_.at(id); }
  core::EvmService& service(net::NodeId id) { return *services_.at(id); }
  core::EvmService& head() { return service(topo_.gateway()); }
  const core::VcDescriptor& descriptor() const { return descriptor_; }
  /// The resolved dissemination mode (kAuto collapsed to what was built);
  /// never kAuto after construction.
  DisseminationMode dissemination_mode() const { return dissemination_; }
  /// topology_spec().multi_hop(), as found at build time: routers relay
  /// broadcasts only in multi-hop worlds.
  bool multi_hop() const { return multi_hop_; }

  /// The steady-state valve opening computed at initialization (the paper's
  /// 11.48 % figure for their operating point).
  double steady_opening() const { return steady_opening_; }

  /// Opt-in event tracing (nullptr disables). Fans the recorder out to the
  /// medium, every node (MAC + router) and every EVM service, and names each
  /// node's track after its role-table name so Perfetto shows "gw", "ctrl_a"
  /// instead of bare ids. Recording never perturbs the run.
  void set_trace_recorder(obs::TraceRecorder* trace);

  /// Snapshot the built world's counters into `metrics` (the README's
  /// "Observability" table documents every name). Purely reads existing
  /// counters, so calling it never perturbs the run; same run, same numbers.
  void collect_metrics(obs::Metrics& metrics);

  /// Task releases and deadline misses, summed over every node's kernel.
  struct TaskTotals {
    std::uint64_t releases = 0;
    std::uint64_t deadline_misses = 0;
  };
  TaskTotals task_totals();

 private:
  void build_descriptor();
  void build_nodes();
  net::NodeId initial_primary() const;

  GasPlantTestbedConfig config_;
  TopologySpec topo_;
  sim::Simulator sim_;
  net::Topology topology_;
  std::unique_ptr<net::Medium> medium_;
  std::unique_ptr<net::RtLinkSchedule> schedule_;
  std::unique_ptr<net::TimeSync> timesync_;
  plant::GasPlant plant_;
  std::unique_ptr<plant::HilHarness> hil_;
  core::VcDescriptor descriptor_;
  std::unique_ptr<net::DisseminationTreeCache> tree_cache_;
  DisseminationMode dissemination_ = DisseminationMode::kAuto;
  bool multi_hop_ = false;
  std::map<net::NodeId, std::unique_ptr<core::Node>> nodes_;
  std::map<net::NodeId, std::unique_ptr<core::EvmService>> services_;
  double steady_opening_ = 0.0;
  bool started_ = false;
};

}  // namespace evm::testbed
