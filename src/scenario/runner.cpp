#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "core/modes.hpp"
#include "scenario/invariants.hpp"
#include "util/rng.hpp"

namespace evm::scenario {

using util::Json;

namespace {

constexpr const char* kLevelVariable = "LTS.LiquidPercentLevel";

util::TimePoint at(double seconds) {
  return util::TimePoint::zero() + util::Duration::from_seconds(seconds);
}

/// Stable per-link stream seed so burst chains are independent of the order
/// events appear in and of each other.
std::uint64_t link_seed(std::uint64_t seed, net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return seed * 0x100000001b3ULL + (static_cast<std::uint64_t>(a) << 16 | b);
}

}  // namespace

Json RunMetrics::to_json() const {
  Json j = Json::object();
  j.set("seed", static_cast<std::int64_t>(seed));
  j.set("ok", ok);
  if (!error.empty()) j.set("error", error);
  j.set("fault_injected_s", fault_injected_s);
  j.set("failover_at_s", failover_at_s);
  j.set("failover_latency_s", failover_latency_s);
  j.set("failover_count", failover_count);
  j.set("head_successions", head_successions);
  j.set("backup_active", backup_active);
  j.set("missed_deadlines", static_cast<std::int64_t>(missed_deadlines));
  j.set("task_releases", static_cast<std::int64_t>(task_releases));
  j.set("packets_delivered", packets_delivered);
  j.set("packets_lost", packets_lost);
  j.set("packets_collided", packets_collided);
  j.set("packet_loss_rate", packet_loss_rate);
  j.set("dissemination", dissemination);
  j.set("bcast_datagrams", bcast_datagrams);
  j.set("bcast_transmissions", bcast_transmissions);
  j.set("slots_per_broadcast", slots_per_broadcast);
  j.set("beacons_suppressed", beacons_suppressed);
  j.set("level_rmse_pct", level_rmse_pct);
  j.set("level_max_dev_pct", level_max_dev_pct);
  j.set("final_level_pct", final_level_pct);
  j.set("ctrl_a_mode", ctrl_a_mode);
  j.set("ctrl_b_mode", ctrl_b_mode);
  j.set("sim_events", sim_events);
  j.set("topology_mutations", topology_mutations);
  j.set("sim_slots", static_cast<std::int64_t>(sim_slots));
  // wall_* fields are deliberately absent: machine-dependent wall time
  // would break the byte-identical (spec, seed) -> JSON contract.
  return j;
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

ScenarioRunner::~ScenarioRunner() = default;

RunMetrics ScenarioRunner::run() {
  const obs::Stopwatch total;
  RunMetrics metrics;
  metrics.seed = seed_;
  try {
    obs::Stopwatch phase;
    if (util::Status valid = spec_.validate(); !valid) {
      metrics.ok = false;
      metrics.error = valid.message();
      if (monitor_ != nullptr) monitor_->on_finish(metrics);
      metrics_.counter("scenario.invariant_checks")
          .add(monitor_ != nullptr ? monitor_->checks_performed() : 0);
      phases_.add("setup", phase.elapsed_ms());
      metrics.wall_setup_ms = phases_.ms("setup");
      metrics.wall_ms = total.elapsed_ms();
      return metrics;
    }
    testbed::GasPlantTestbedConfig config = spec_.testbed;
    config.seed = seed_;
    testbed_ = std::make_unique<testbed::TestbedBuilder>(std::move(config));
    script_ = std::make_unique<net::TopologyScript>(testbed_->sim(),
                                                    testbed_->topology());

    testbed_->hil().record(kLevelVariable, kLevelVariable);
    for (const auto& variable : spec_.record) {
      if (variable != kLevelVariable) testbed_->hil().record(variable, variable);
    }

    schedule_events();
    schedule_churn();

    if (monitor_ != nullptr) {
      // Stream plant samples into the monitor as the HIL harness records
      // them, and kick off the periodic liveness probe.
      testbed_->hil().trace().set_observer(
          [this](const std::string& series, util::TimePoint t, double value) {
            if (series == kLevelVariable) monitor_->on_level(t.to_seconds(), value);
          });
      const double first = std::min(kProbePeriodS, spec_.horizon_s);
      testbed_->sim().schedule_at(at(first), [this] { probe_once(); });
    }

    if (recorder_ != nullptr) testbed_->set_trace_recorder(recorder_);

    testbed_->start();
    phases_.add("setup", phase.elapsed_ms());
    phase.reset();

    testbed_->run_until(util::Duration::from_seconds(spec_.horizon_s));
    phases_.add("run", phase.elapsed_ms());
    phase.reset();

    metrics = collect();
    phases_.add("teardown", phase.elapsed_ms());
  } catch (const std::exception& e) {
    metrics = RunMetrics{};
    metrics.seed = seed_;
    metrics.ok = false;
    metrics.error = e.what();
  }
  if (monitor_ != nullptr) monitor_->on_finish(metrics);
  // The monitor's count lands after on_finish so the end-of-run checks are
  // included; the counter exists (at 0) even for unmonitored runs so the
  // snapshot shape is stable.
  metrics_.counter("scenario.invariant_checks")
      .add(monitor_ != nullptr ? monitor_->checks_performed() : 0);
  metrics.wall_setup_ms = phases_.ms("setup");
  metrics.wall_run_ms = phases_.ms("run");
  metrics.wall_teardown_ms = phases_.ms("teardown");
  metrics.wall_ms = total.elapsed_ms();
  return metrics;
}

const sim::Trace& ScenarioRunner::trace() const {
  static const sim::Trace kEmpty;
  return testbed_ ? testbed_->hil().trace() : kEmpty;
}

void ScenarioRunner::schedule_events() {
  auto& tb = *testbed_;
  fault_injected_s_ = spec_.first_fault_s();
  for (const auto& e : spec_.events) {
    const util::TimePoint when = at(e.at_s);
    switch (e.kind) {
      case EventKind::kPrimaryFault:
        tb.sim().schedule_at(when, [&tb, value = e.value] {
          tb.inject_primary_fault(value);
        });
        break;
      case EventKind::kClearPrimaryFault:
        tb.sim().schedule_at(when, [&tb] { tb.clear_primary_fault(); });
        break;
      case EventKind::kNodeCrash:
        tb.sim().schedule_at(when, [&tb, node = e.node] { tb.node(node).fail(); });
        break;
      case EventKind::kNodeRestart:
        tb.sim().schedule_at(when, [&tb, node = e.node] { tb.node(node).recover(); });
        break;
      case EventKind::kLinkDown:
        script_->link_down(when, e.a, e.b);
        break;
      case EventKind::kLinkUp:
        script_->link_up(when, e.a, e.b);
        break;
      case EventKind::kLinkOutage:
        script_->outage(when, e.a, e.b, util::Duration::from_seconds(e.duration_s));
        break;
      case EventKind::kLinkLoss:
        script_->set_loss(when, e.a, e.b, e.value);
        break;
      case EventKind::kBurstLoss:
        tb.sim().schedule_at(when, [&tb, e, seed = seed_] {
          tb.medium().set_burst_loss(e.a, e.b, e.burst, link_seed(seed, e.a, e.b));
        });
        break;
      case EventKind::kClearBurstLoss:
        tb.sim().schedule_at(when, [&tb, e] {
          tb.medium().clear_burst_loss(e.a, e.b);
        });
        break;
      case EventKind::kClockDrift:
        tb.sim().schedule_at(when, [&tb, node = e.node, ppm = e.value] {
          tb.node(node).clock().set_drift_ppm(ppm);
        });
        break;
      case EventKind::kTrafficBurst:
        for (int i = 0; i < e.count; ++i) {
          const util::TimePoint fire =
              when + util::Duration::from_seconds(e.interval_ms * i / 1e3);
          tb.sim().schedule_at(fire, [&tb, node = e.node] {
            tb.service(node).publish_sensor(testbed::kLevelStream,
                                            tb.plant().lts_level_percent());
          });
        }
        break;
    }
  }
}

void ScenarioRunner::schedule_churn() {
  if (!spec_.churn.enabled || spec_.churn.outages_per_minute <= 0.0) return;
  const ChurnSpec& churn = spec_.churn;
  // Outages strike pairs of VC members (relays included in multi-hop worlds
  // through their membership); the draw order makes churn a pure function
  // of (seed, salt, membership).
  const std::vector<net::NodeId> nodes = testbed_->topology_spec().members();
  if (nodes.size() < 2) return;

  const double window_end = spec_.horizon_s - churn.end_margin_s;
  if (window_end <= churn.start_s) return;
  // Seeded from (run seed, salt): each campaign seed explores a distinct but
  // reproducible outage pattern. The count comes from the placement window,
  // not the horizon, so the configured rate holds even when the CLI
  // shortens the horizon.
  util::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + churn.rng_salt);
  const int outages = static_cast<int>(std::lround(
      churn.outages_per_minute * (window_end - churn.start_s) / 60.0));
  for (int i = 0; i < outages; ++i) {
    const net::NodeId a = nodes[rng.next_below(nodes.size())];
    net::NodeId b = a;
    while (b == a) b = nodes[rng.next_below(nodes.size())];
    const double at_s = rng.uniform(churn.start_s, window_end);
    script_->outage(at(at_s), a, b, util::Duration::from_seconds(churn.outage_s));
  }
}

void ScenarioRunner::probe_once() {
  auto& tb = *testbed_;
  const testbed::TopologySpec& topo = tb.topology_spec();
  InvariantMonitor::ProbeSample sample;
  // Per-replica states over the VC membership; the monitor derives the
  // liveness verdict from them. A replica counts toward liveness only when
  // its node is up: a crashed controller whose service state still reads
  // Active cannot drive the valve, which is exactly the gap the liveness
  // invariant is after.
  for (net::NodeId id : topo.replica_order()) {
    InvariantMonitor::ReplicaProbe replica;
    replica.node = id;
    replica.alive = !tb.node(id).failed();
    replica.mode = tb.service(id).mode(testbed::kLtsLevelLoop);
    sample.replicas.push_back(replica);
  }
  for (net::NodeId id : topo.node_ids()) {
    sample.failover_count += tb.service(id).failovers().size();
  }
  const testbed::TestbedBuilder::TaskTotals tasks = tb.task_totals();
  sample.missed_deadlines = tasks.deadline_misses;
  sample.task_releases = tasks.releases;
  const double now_s = tb.sim().now().to_seconds();
  monitor_->on_probe(now_s, sample);
  if (now_s + kProbePeriodS <= spec_.horizon_s) {
    tb.sim().schedule_after(util::Duration::from_seconds(kProbePeriodS),
                            [this] { probe_once(); });
  }
}

RunMetrics ScenarioRunner::collect() {
  auto& tb = *testbed_;
  const testbed::TopologySpec& topo = tb.topology_spec();
  // The deterministic observability snapshot (see ScenarioRunner::metrics())
  // comes first: the report's counter sums read from it.
  tb.collect_metrics(metrics_);
  auto counter = [this](const char* name) { return metrics_.counter(name).value; };

  RunMetrics m;
  m.seed = seed_;
  m.ok = true;
  m.fault_injected_s = fault_injected_s_;

  // Failover actions may be logged by the original head or, after a head
  // crash, by its successor — merge every node's log in time order.
  std::vector<core::FailoverEvent> failovers;
  for (net::NodeId id : topo.node_ids()) {
    const auto& events = tb.service(id).failovers();
    failovers.insert(failovers.end(), events.begin(), events.end());
  }
  m.head_successions = counter("core.service.head_successions");
  std::stable_sort(failovers.begin(), failovers.end(),
                   [](const auto& x, const auto& y) { return x.when < y.when; });
  m.failover_count = failovers.size();
  if (!failovers.empty()) {
    m.failover_at_s = failovers.front().when.to_seconds();
    if (m.fault_injected_s >= 0.0) {
      m.failover_latency_s = m.failover_at_s - m.fault_injected_s;
    }
  }

  m.missed_deadlines = counter("rtos.deadline_misses");
  m.task_releases = counter("rtos.task_releases");

  m.dissemination = tb.multi_hop()
                        ? testbed::to_string(tb.dissemination_mode())
                        : "single_hop";
  m.bcast_datagrams = counter("net.route.broadcasts_originated");
  m.bcast_transmissions = m.bcast_datagrams + counter("net.route.broadcast_relays");
  m.beacons_suppressed = counter("net.route.beacon_relays_suppressed");
  if (m.bcast_datagrams > 0) {
    m.slots_per_broadcast = static_cast<double>(m.bcast_transmissions) /
                            static_cast<double>(m.bcast_datagrams);
  }

  m.packets_delivered = counter("net.medium.deliveries");
  m.packets_lost = counter("net.medium.losses");
  m.packets_collided = counter("net.medium.collisions");
  const std::size_t offered =
      m.packets_delivered + m.packets_lost + m.packets_collided;
  if (offered > 0) {
    m.packet_loss_rate =
        static_cast<double>(m.packets_lost + m.packets_collided) /
        static_cast<double>(offered);
  }

  const sim::Series* level = tb.hil().trace().find(kLevelVariable);
  if (level != nullptr && !level->samples.empty()) {
    double sum_sq = 0.0;
    for (const auto& [t, value] : level->samples) {
      const double dev = value - testbed::kLevelSetpoint;
      sum_sq += dev * dev;
      m.level_max_dev_pct = std::max(m.level_max_dev_pct, std::fabs(dev));
    }
    m.level_rmse_pct =
        std::sqrt(sum_sq / static_cast<double>(level->samples.size()));
    m.final_level_pct = level->samples.back().second;
  }

  // Replica modes in priority order: "ctrl_a" = the initial primary,
  // "ctrl_b" = the first backup (the historical Fig. 5 report keys).
  const std::vector<net::NodeId> replicas = topo.replica_order();
  m.ctrl_a_mode = core::to_string(
      replicas.empty() ? core::ControllerMode::kDormant
                       : tb.service(replicas[0]).mode(testbed::kLtsLevelLoop));
  m.ctrl_b_mode = core::to_string(
      replicas.size() < 2 ? core::ControllerMode::kDormant
                          : tb.service(replicas[1]).mode(testbed::kLtsLevelLoop));
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    if (tb.service(replicas[i]).mode(testbed::kLtsLevelLoop) ==
        core::ControllerMode::kActive) {
      m.backup_active = true;
    }
  }

  m.sim_events = counter("sim.events_dispatched");
  m.topology_mutations = script_->events_applied();
  const std::int64_t slot_ns = tb.schedule().slot_length().ns();
  if (slot_ns > 0) {
    m.sim_slots = static_cast<std::uint64_t>(
        util::Duration::from_seconds(spec_.horizon_s).ns() / slot_ns);
  }
  return m;
}

}  // namespace evm::scenario
