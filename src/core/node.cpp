#include "core/node.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace evm::core {

Node::Node(sim::Simulator& sim, net::Medium& medium, net::RtLinkSchedule& schedule,
           net::TimeSync& timesync, NodeConfig config)
    : sim_(sim), config_(config), topology_(medium.topology()),
      clock_(config.clock_drift_ppm) {
  radio_ = std::make_unique<net::Radio>(sim, medium, config_.id, config_.radio);
  mac_ = std::make_unique<net::RtLink>(sim, *radio_, clock_, schedule);
  router_ = std::make_unique<net::Router>(*mac_, medium.topology());
  kernel_ = std::make_unique<rtos::Kernel>(sim);
  timesync.attach(config_.id, clock_);
}

void Node::bind_sensor(std::uint8_t channel, std::function<double()> read) {
  sensors_[channel] = std::move(read);
}

void Node::bind_actuator(std::uint8_t channel, std::function<void(double)> write) {
  actuators_[channel] = std::move(write);
}

double Node::read_sensor(std::uint8_t channel) const {
  auto it = sensors_.find(channel);
  if (it == sensors_.end()) return 0.0;
  return it->second();
}

bool Node::write_actuator(std::uint8_t channel, double value) {
  auto it = actuators_.find(channel);
  if (it == actuators_.end()) return false;
  it->second(value);
  return true;
}

bool Node::has_sensor(std::uint8_t channel) const {
  return sensors_.count(channel) > 0;
}

void Node::start() { mac_->start(); }

void Node::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  mac_->set_trace(trace);
  router_->set_trace(trace, &sim_);
}

void Node::fail() {
  if (failed_) return;
  failed_ = true;
  if (trace_ != nullptr) {
    trace_->instant(config_.id, "core.node", "crash", sim_.now());
  }
  mac_->stop();
  stopped_by_failure_.clear();
  for (rtos::TaskId id : kernel_->scheduler().task_ids()) {
    if (kernel_->scheduler().is_active(id)) {
      (void)kernel_->stop_task(id);
      stopped_by_failure_.push_back(id);
    }
  }
  // A crashed radio is, to its neighbours' link estimators, a batch of dead
  // links — mark the node down so multi-hop routing steers around the
  // corpse instead of black-holing unicast traffic through it. Liveness is
  // tracked separately from scripted link state, so link_down/link_up
  // events that fire while the node is dead are not clobbered on recovery.
  topology_.set_node_down(config_.id, true);
  EVM_INFO("node", "node " << config_.id << " crash-stopped");
  if (liveness_observer_) liveness_observer_();
}

void Node::recover() {
  if (!failed_) return;
  failed_ = false;
  if (trace_ != nullptr) {
    trace_->instant(config_.id, "core.node", "restart", sim_.now());
  }
  mac_->start();
  // Resume exactly what the crash interrupted; tasks that were dormant
  // before the crash (e.g. a Dormant replica) stay dormant.
  for (rtos::TaskId id : stopped_by_failure_) (void)kernel_->start_task(id);
  stopped_by_failure_.clear();
  topology_.set_node_down(config_.id, false);
  EVM_INFO("node", "node " << config_.id << " recovered");
  if (liveness_observer_) liveness_observer_();
}

double Node::battery_fraction() const {
  const double used = radio_->consumed_mah();
  return std::max(0.0, 1.0 - used / config_.battery_mah);
}

double Node::projected_lifetime_years() const {
  const double avg_ma = radio_->average_current_ma(sim_.now());
  if (avg_ma <= 0.0) return 1e9;
  const double hours = config_.battery_mah / avg_ma;
  return hours / (24.0 * 365.0);
}

}  // namespace evm::core
