// A FireFly-class node: drifting clock, CC2420-class radio, RT-Link MAC,
// router, nano-RK kernel and the EVM bytecode interpreter, wired together.
// This is the unit the Virtual Component composes across.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "net/radio.hpp"
#include "net/routing.hpp"
#include "net/rtlink.hpp"
#include "net/timesync.hpp"
#include "rtos/kernel.hpp"
#include "vm/interpreter.hpp"

namespace evm::core {

struct NodeConfig {
  net::NodeId id = 0;
  double clock_drift_ppm = 20.0;
  net::RadioParams radio;
  /// Battery capacity for lifetime projections (2x AA ≈ 2500 mAh).
  double battery_mah = 2500.0;
};

class Node {
 public:
  Node(sim::Simulator& sim, net::Medium& medium, net::RtLinkSchedule& schedule,
       net::TimeSync& timesync, NodeConfig config);

  net::NodeId id() const { return config_.id; }
  const NodeConfig& config() const { return config_; }

  sim::Simulator& simulator() { return sim_; }
  net::NodeClock& clock() { return clock_; }
  net::Radio& radio() { return *radio_; }
  net::RtLink& mac() { return *mac_; }
  net::Router& router() { return *router_; }
  rtos::Kernel& kernel() { return *kernel_; }

  /// Bind a physical sensor input / actuator output channel on this node.
  void bind_sensor(std::uint8_t channel, std::function<double()> read);
  void bind_actuator(std::uint8_t channel, std::function<void(double)> write);
  double read_sensor(std::uint8_t channel) const;
  bool write_actuator(std::uint8_t channel, double value);
  bool has_sensor(std::uint8_t channel) const;

  /// Start the MAC (the kernel's tasks start individually).
  void start();

  /// Crash-stop failure: radio silent, all tasks stopped. The EVM's fault
  /// detection sees this as silence.
  void fail();
  /// Restart after a crash: the MAC comes back and every task the crash
  /// stopped resumes, so the node re-joins in its sticky pre-crash state
  /// (the head re-supervises replicas whose mode went stale meanwhile).
  void recover();
  bool failed() const { return failed_; }
  /// Runs at the end of every fail() and recover() that changes state (the
  /// EVM service re-aligns its head-liveness watchdog on these).
  void set_liveness_observer(std::function<void()> observer) {
    liveness_observer_ = std::move(observer);
  }
  net::Topology& topology() { return topology_; }

  /// Opt-in event tracing (nullptr disables). Fans the recorder out to the
  /// MAC and router, and emits "crash" / "restart" instants from fail() /
  /// recover(). Recording never perturbs behaviour.
  void set_trace(obs::TraceRecorder* trace);

  /// Remaining battery fraction given consumption so far.
  double battery_fraction() const;
  /// Projected lifetime at the average current drawn so far.
  double projected_lifetime_years() const;

 private:
  sim::Simulator& sim_;
  NodeConfig config_;
  net::Topology& topology_;
  net::NodeClock clock_;
  std::unique_ptr<net::Radio> radio_;
  std::unique_ptr<net::RtLink> mac_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<rtos::Kernel> kernel_;
  std::map<std::uint8_t, std::function<double()>> sensors_;
  std::map<std::uint8_t, std::function<void(double)>> actuators_;
  std::vector<rtos::TaskId> stopped_by_failure_;
  std::function<void()> liveness_observer_;
  obs::TraceRecorder* trace_ = nullptr;
  bool failed_ = false;
};

}  // namespace evm::core
