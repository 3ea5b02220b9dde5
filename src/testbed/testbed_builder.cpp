#include "testbed/testbed_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace evm::testbed {

namespace {

/// The gas plant every testbed runs: a small holdup so a mis-set valve
/// drains the separator on the few-hundred-second timescale of the paper's
/// Fig. 6(b), and a valve coefficient chosen so the steady opening lands at
/// the paper's 11.48 %.
constexpr plant::GasPlantConfig kPlant = [] {
  plant::GasPlantConfig c;
  c.lts.holdup_capacity_kmol = 30.0;
  c.lts.valve_cv = 433.6;
  return c;
}();

}  // namespace

TestbedBuilder::TestbedBuilder(GasPlantTestbedConfig config)
    : config_(std::move(config)), topo_(std::move(config_.topology)),
      sim_(config_.seed), plant_(kPlant) {
  if (util::Status valid = topo_.validate(); !valid) {
    throw std::runtime_error("invalid topology: " + valid.to_string());
  }
  topology_ = topo_.to_topology();
  medium_ = std::make_unique<net::Medium>(sim_, topology_);

  // Hop-aware TDMA plan: base slots ordered by hop count from the gateway
  // plus a second slot for the chatty nodes. On the Fig. 5 mesh this is the
  // paper's 10-slot x 5 ms frame, keeping worst-case link access at
  // 50 ms << the 250 ms control cycle.
  const SchedulePlan plan = plan_schedule(topo_, config_.dissemination);
  schedule_ = std::make_unique<net::RtLinkSchedule>(
      static_cast<int>(plan.slots.size()), plan.slot_length);
  for (std::size_t slot = 0; slot < plan.slots.size(); ++slot) {
    schedule_->assign_tx(static_cast<int>(slot), plan.slots[slot]);
  }

  net::TimeSyncParams sync;
  sync.period = util::Duration::seconds(1);
  timesync_ = std::make_unique<net::TimeSync>(sim_, sync);

  plant::HilConfig hil_config;
  hil_config.plant_step = util::Duration::millis(100);
  hil_config.record_period = util::Duration::seconds(1);
  hil_ = std::make_unique<plant::HilHarness>(sim_, plant_, hil_config);

  build_descriptor();
  build_nodes();
}

net::NodeId TestbedBuilder::initial_primary() const {
  const auto replicas = topo_.replica_order();
  return replicas.empty() ? net::kInvalidNode : replicas.front();
}

void TestbedBuilder::build_descriptor() {
  descriptor_.id = 1;
  descriptor_.name = "lts-level-vc";
  descriptor_.head = topo_.gateway();
  descriptor_.members = topo_.members();

  core::ControlFunction loop;
  loop.id = kLtsLevelLoop;
  loop.name = "lts-level";
  loop.sensor_stream = kLevelStream;
  loop.actuator_channel = kValveChannel;
  loop.task.name = "lts-pid";
  loop.task.period = config_.control_period;
  loop.task.wcet = util::Duration::millis(2);
  loop.task.priority = 8;
  loop.output_min = 0.0;
  loop.output_max = 100.0;
  loop.deviation_threshold = 10.0;
  loop.evidence_threshold = config_.evidence_threshold;
  loop.silence_threshold = 8;

  core::FilteredPidSpec pid;
  pid.kp = 2.0;
  pid.ki = 0.02;
  pid.kd = 0.0;
  pid.setpoint = kLevelSetpoint;
  pid.action = 1.0;  // level above setpoint -> open the drain valve further
  pid.output_min = 0.0;
  pid.output_max = 100.0;
  pid.integral_min = -40.0;
  pid.integral_max = 40.0;
  pid.filter_tau_s = 2.0;
  pid.dt_s = config_.control_period.to_seconds();
  pid.sensor_channel = kLevelStream;
  pid.actuator_channel = kValveChannel;
  auto capsule = core::make_filtered_pid(kLtsLevelLoop, "lts-level-pid", pid);
  if (!capsule) {
    throw std::runtime_error("PID capsule assembly failed: " +
                             capsule.status().to_string());
  }
  loop.algorithm = *capsule;
  descriptor_.functions[kLtsLevelLoop] = loop;

  const std::vector<net::NodeId> replicas = topo_.replica_order();
  descriptor_.replicas[kLtsLevelLoop] = replicas;

  // Object transfer relationships (Fig. 1c / §3.1.2): the sensor publishes
  // directionally to every replica; the primary actuates directionally;
  // backups hold health-assessment transfers over the primary.
  const net::NodeId sensor = topo_.primary_sensor();
  const net::NodeId actuator = topo_.primary_actuator();
  const net::NodeId primary = initial_primary();
  for (net::NodeId replica : replicas) {
    descriptor_.transfers.push_back(
        {sensor, replica, core::TransferType::kDirectional, {}, {}});
  }
  descriptor_.transfers.push_back(
      {primary, actuator, core::TransferType::kDirectional, {}, {}});
  for (net::NodeId replica : replicas) {
    if (replica == primary) continue;
    descriptor_.transfers.push_back({replica, primary,
                                     core::TransferType::kHealthAssessment,
                                     util::Duration::zero(),
                                     core::FaultResponse::kTriggerBackup});
  }
}

void TestbedBuilder::build_nodes() {
  core::FailoverPolicy policy;
  policy.dormant_delay = config_.dormant_delay;
  policy.promotion_timeout = config_.promotion_timeout;
  // The backstop silence detector must out-wait legitimate heartbeat gaps,
  // which grow with the control period and hop count.
  policy.active_silence_timeout =
      std::max(util::Duration::seconds(5), config_.promotion_timeout * 3);
  policy.head_beacon_period = config_.head_beacon_period;

  // Broadcast data/heartbeat planes only reach one hop; worlds with relays
  // need the routers to carry them across. The default (kAuto) is scoped
  // dissemination over the gateway-rooted spanning tree pruned to the
  // role nodes — multicast cost follows the tree size; kFlood keeps the
  // every-node re-broadcast as the comparison baseline. The multi-hop
  // verdict is kept for collect-time readers.
  multi_hop_ = topo_.multi_hop();
  dissemination_ = config_.dissemination;
  if (dissemination_ == DisseminationMode::kAuto) {
    dissemination_ = multi_hop_ ? DisseminationMode::kTree
                                : DisseminationMode::kFlood;
  }
  // Single-hop worlds never relay broadcasts regardless of the mode; the
  // tree cache is only built (and consulted) where relaying happens.
  if (multi_hop_ && dissemination_ == DisseminationMode::kTree) {
    tree_cache_ = std::make_unique<net::DisseminationTreeCache>(
        topology_, topo_.gateway(), topo_.dissemination_targets());
  }

  std::size_t index = 0;
  for (const TopologyNode& entry : topo_.nodes) {
    core::NodeConfig config;
    config.id = entry.id;
    // Spread crystal drifts across the fleet; the pattern repeats every six
    // nodes so large worlds stay inside the time-sync guard band.
    config.clock_drift_ppm = -30.0 + 12.0 * static_cast<double>(index % 6);
    ++index;
    nodes_[entry.id] = std::make_unique<core::Node>(sim_, *medium_, *schedule_,
                                                    *timesync_, config);
    if (multi_hop_) {
      if (tree_cache_ != nullptr) {
        nodes_[entry.id]->router().enable_tree_dissemination(tree_cache_.get());
      } else {
        nodes_[entry.id]->router().enable_flooding();
      }
      nodes_[entry.id]->mac().set_unicast_priority(true);
    }
    services_[entry.id] =
        std::make_unique<core::EvmService>(*nodes_[entry.id], descriptor_, policy);
  }

  for (const TopologyNode& entry : topo_.nodes) {
    // Sensor nodes sample the LTS level (in HIL, straight from the plant
    // model — physically this is the ADC reading the level transmitter).
    if (entry.role == NodeRole::kSensor) {
      nodes_[entry.id]->bind_sensor(
          kLevelStream, [this] { return plant_.lts_level_percent(); });
    }
    // Actuator nodes drive the LTS drain valve.
    if (entry.role == NodeRole::kActuator) {
      nodes_[entry.id]->bind_actuator(
          kValveChannel, [this](double percent) { plant_.set_lts_valve(percent); });
      const net::NodeId id = entry.id;
      services_[id]->set_actuation_handler([this, id](const core::ActuationMsg& msg) {
        (void)nodes_[id]->write_actuator(msg.channel, msg.value);
      });
    }
  }

  // Gateway monitors the plant through the ModBus register map (Fig. 5).
  (void)hil_->modbus().map_plant_variable(0, plant_, "LTS.LiquidPercentLevel", false);
  (void)hil_->modbus().map_plant_variable(1, plant_, "SepLiq.MolarFlow", false);
  (void)hil_->modbus().map_plant_variable(2, plant_, "LTSLiq.MolarFlow", false);
  (void)hil_->modbus().map_plant_variable(3, plant_, "TowerFeed.MolarFlow", false);
  (void)hil_->modbus().map_plant_variable(100, plant_, "LTSValve.Opening", true);
}

void TestbedBuilder::start() {
  if (started_) return;
  started_ = true;

  // Bring the plant to its operating point: settle the thermal transients,
  // compute the balancing valve opening (the paper's 11.48 % equivalent),
  // then pin level and valve at the operating point.
  plant_.settle(600.0);
  steady_opening_ = plant_.steady_lts_opening(kLevelSetpoint);
  plant_.set_lts_valve(steady_opening_);
  plant_.lts().set_level_percent(kLevelSetpoint);
  plant_.settle(120.0);

  timesync_->start();
  hil_->start();

  for (auto& [id, service] : services_) {
    (void)id;
    util::Status status = service->start();
    if (!status) {
      throw std::runtime_error("service start failed: " + status.to_string());
    }
  }
  // The sensor node publishes the level stream once per control period.
  util::Status pub = services_[topo_.primary_sensor()]->add_sensor_publisher(
      kLevelStream, kLevelStream, config_.control_period);
  if (!pub) throw std::runtime_error("sensor publisher failed: " + pub.to_string());

  // Bumpless start: pre-seed every controller replica's PID state at the
  // operating point so the experiment opens in regulation, not bootstrap.
  for (net::NodeId id : topo_.replica_order()) {
    auto& svc = *services_[id];
    (void)svc.seed_function_slot(kLtsLevelLoop, core::kPidSlotIntegral,
                                 steady_opening_);
    (void)svc.seed_function_slot(kLtsLevelLoop, core::kPidSlotFilter1,
                                 kLevelSetpoint);
    (void)svc.seed_function_slot(kLtsLevelLoop, core::kPidSlotFilter2,
                                 kLevelSetpoint);
    (void)svc.seed_function_slot(kLtsLevelLoop, core::kPidSlotInit, 1.0);
  }
}

void TestbedBuilder::set_trace_recorder(obs::TraceRecorder* trace) {
  if (trace != nullptr) {
    for (const TopologyNode& entry : topo_.nodes) {
      trace->set_track(entry.id, topo_.node_name(entry.id));
    }
  }
  medium_->set_trace(trace);
  for (auto& [id, node] : nodes_) {
    (void)id;
    node->set_trace(trace);
  }
  for (auto& [id, service] : services_) {
    (void)id;
    service->set_trace(trace);
  }
}

void TestbedBuilder::collect_metrics(obs::Metrics& metrics) {
  metrics.counter("sim.events_dispatched").add(sim_.dispatched_events());
  metrics.gauge("sim.queue_depth_max")
      .set(static_cast<double>(sim_.max_queue_depth()));

  metrics.counter("net.medium.deliveries").add(medium_->delivered_count());
  metrics.counter("net.medium.collisions").add(medium_->collision_count());
  metrics.counter("net.medium.losses").add(medium_->loss_count());

  auto& frames = metrics.counter("net.rtlink.frames_run");
  auto& slots = metrics.counter("net.rtlink.slots_used");
  auto& slots_hist = metrics.histogram("net.rtlink.slots_used_per_node");
  auto& mac_enqueued = metrics.counter("net.mac.enqueued");
  auto& mac_drops = metrics.counter("net.mac.queue_drops");
  auto& listen_ns = metrics.counter("net.radio.listen_ns");
  auto& tx_ns = metrics.counter("net.radio.tx_ns");
  for (auto& [id, node] : nodes_) {
    (void)id;
    const net::Radio& radio = node->radio();
    listen_ns.add(static_cast<std::uint64_t>(
        (radio.time_in(net::RadioState::kIdleListen) +
         radio.time_in(net::RadioState::kRx))
            .ns()));
    tx_ns.add(static_cast<std::uint64_t>(radio.time_in(net::RadioState::kTx).ns()));
    frames.add(node->mac().frames_run());
    slots.add(node->mac().slots_used());
    slots_hist.record(static_cast<double>(node->mac().slots_used()));
    mac_enqueued.add(node->mac().stats().enqueued);
    mac_drops.add(node->mac().stats().queue_drops);
  }

  auto& originated = metrics.counter("net.route.broadcasts_originated");
  auto& relays = metrics.counter("net.route.broadcast_relays");
  auto& forwarded = metrics.counter("net.route.forwarded");
  auto& probe_suppressed = metrics.counter("net.route.beacon_relays_suppressed");
  for (auto& [id, node] : nodes_) {
    (void)id;
    originated.add(node->router().broadcasts_originated());
    relays.add(node->router().broadcast_relays());
    forwarded.add(node->router().forwarded_count());
    probe_suppressed.add(node->router().beacon_relays_suppressed());
  }

  auto& failovers = metrics.counter("core.service.failovers");
  auto& successions = metrics.counter("core.service.head_successions");
  for (auto& [id, service] : services_) {
    (void)id;
    failovers.add(service->failovers().size());
    successions.add(service->head_successions());
  }

  const TaskTotals tasks = task_totals();
  metrics.counter("rtos.task_releases").add(tasks.releases);
  metrics.counter("rtos.deadline_misses").add(tasks.deadline_misses);
}

TestbedBuilder::TaskTotals TestbedBuilder::task_totals() {
  TaskTotals totals;
  for (auto& [id, node] : nodes_) {
    (void)id;
    auto& scheduler = node->kernel().scheduler();
    for (rtos::TaskId task : scheduler.task_ids()) {
      const rtos::Tcb* tcb = scheduler.task(task);
      if (tcb == nullptr) continue;
      totals.releases += tcb->stats.releases;
      totals.deadline_misses += tcb->stats.deadline_misses;
    }
  }
  return totals;
}

void TestbedBuilder::inject_primary_fault(double wrong_value) {
  services_[initial_primary()]->inject_output_fault(kLtsLevelLoop, wrong_value);
}

void TestbedBuilder::clear_primary_fault() {
  services_[initial_primary()]->clear_output_fault(kLtsLevelLoop);
}

void TestbedBuilder::run_until(util::Duration until) {
  sim_.run_until(util::TimePoint::zero() + until);
}

}  // namespace evm::testbed
