// EvmService: the per-node EVM runtime, executing as nano-RK's "super task"
// (paper §2.2 / Fig. 3). It owns the bytecode interpreter instances for the
// control functions this node replicates, the data/control/fault message
// planes, the health monitors (passive observation of the Active replica),
// the plumbing around the head's failover arbiter (core/arbiter.hpp) and
// the migration engine.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/arbiter.hpp"
#include "core/health.hpp"
#include "core/messages.hpp"
#include "core/migration.hpp"
#include "core/modes.hpp"
#include "core/node.hpp"
#include "core/optimizer.hpp"
#include "core/transfers.hpp"
#include "core/virtual_component.hpp"
#include "obs/trace_recorder.hpp"
#include "vm/attestation.hpp"

namespace evm::core {

class EvmService {
 public:
  EvmService(Node& node, VcDescriptor descriptor, FailoverPolicy policy = {});
  ~EvmService();
  EvmService(const EvmService&) = delete;
  EvmService& operator=(const EvmService&) = delete;

  /// Create control tasks for every function this node replicates, start
  /// heartbeats and (if this node is the head) the arbitration state.
  util::Status start();

  Node& node() { return node_; }
  const VcDescriptor& descriptor() const { return descriptor_; }
  /// Current head (succession may move it off descriptor().head).
  net::NodeId head_id() const { return head_id_; }
  bool is_head() const { return node_.id() == head_id_; }
  HeadArbiter& arbiter() { return arbiter_; }

  // --- Observability -------------------------------------------------------
  ControllerMode mode(FunctionId function) const;
  double last_output(FunctionId function) const;
  std::uint32_t cycles_run(FunctionId function) const;
  double stream_value(std::uint8_t stream) const;
  bool has_stream(std::uint8_t stream) const;
  const std::vector<FailoverEvent>& failovers() const { return failovers_; }
  std::size_t fault_reports_sent() const { return fault_reports_sent_; }

  /// Opt-in event tracing (nullptr disables): "head.elect", "promote" and
  /// "failover" instants on this node's track. Recording never perturbs
  /// arbitration decisions.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // --- Gateway-side plumbing ----------------------------------------------
  /// Publish a sensor sample onto the VC data plane (gateway does this each
  /// poll; any node with a local sensor can too).
  void publish_sensor(std::uint8_t stream, double value);
  /// Convenience: a periodic kernel task that samples the node's local
  /// sensor `channel` and publishes it as `stream`.
  util::Status add_sensor_publisher(std::uint8_t stream, std::uint8_t channel,
                                    util::Duration period,
                                    rtos::Priority priority = 4);
  /// Invoked (on the gateway) whenever an actuation message arrives.
  void set_actuation_handler(std::function<void(const ActuationMsg&)> handler) {
    actuation_handler_ = std::move(handler);
  }

  /// Write a value into a function's VM data slot (experiment setup: e.g.
  /// pre-seeding a PID integrator at the plant's steady operating point).
  util::Status seed_function_slot(FunctionId function, std::size_t slot, double value);
  /// Read a function's VM data slot (tests inspect controller state).
  double function_slot(FunctionId function, std::size_t slot) const;

  // --- Fault injection (evaluation hooks) -----------------------------------
  /// Reproduces Fig. 6(b): the node keeps running but computes/actuates a
  /// wrong value (75 % instead of 11.48 %), unaware it is faulty.
  void inject_output_fault(FunctionId function, double wrong_value);
  void clear_output_fault(FunctionId function);

  // --- Mode control ---------------------------------------------------------
  /// Local mode transition (normally driven by head ModeCommands).
  util::Status set_mode(FunctionId function, ControllerMode mode);

  // --- Membership / capacity expansion --------------------------------------
  /// New node announces itself to the head (paper §3.1.1 operation 6).
  void announce_membership();
  /// Head: recompute the function-to-node assignment with the BQP optimizer
  /// and issue migrations + mode commands. Returns the number of functions
  /// moved. `keep_cost` discourages churn (cost of moving an existing task).
  std::size_t rebalance(double keep_cost = 0.05);

  // --- Migration -------------------------------------------------------------
  /// Move a control function's full state (TCB metadata + interpreter data
  /// segment + code capsule) to `dest`, which installs it in `target_mode`.
  /// On commit the local replica goes Dormant (the state moved).
  void migrate_function(FunctionId function, net::NodeId dest,
                        ControllerMode target_mode,
                        std::function<void(const MigrationOutcome&)> on_done);
  /// Copy a function to `dest` without giving up the local replica (§3:
  /// algorithms "spawn automatically, proliferating to nodes capable of
  /// executing them"). The copy installs in `target_mode` (usually Backup).
  void replicate_function(FunctionId function, net::NodeId dest,
                          ControllerMode target_mode,
                          std::function<void(const MigrationOutcome&)> on_done);
  MigrationEngine& migration() { return migration_; }

  // --- Programmable control --------------------------------------------------
  /// Broadcast a new algorithm version for `function`; every replica
  /// attests and hot-swaps it if the version is newer, keeping VM state.
  util::Status disseminate_algorithm(FunctionId function, const vm::Capsule& capsule);
  /// Version of the capsule currently bound to `function` on this node.
  std::uint16_t algorithm_version(FunctionId function) const;

  /// Object-transfer enforcement statistics (stale / out-of-order drops).
  const TransferGuardStats& transfer_stats() const { return guard_.stats(); }

  // --- Hooks ------------------------------------------------------------------
  void set_on_mode_change(std::function<void(FunctionId, ControllerMode)> hook) {
    on_mode_change_ = std::move(hook);
  }
  void set_on_member_joined(std::function<void(const MembershipHelloMsg&)> hook) {
    on_member_joined_ = std::move(hook);
  }
  /// Fires on every data-plane sample received (benches measure data-plane
  /// latency from the timestamp embedded in the message).
  void set_on_stream(std::function<void(const SensorDataMsg&)> hook) {
    on_stream_ = std::move(hook);
  }

  /// Current members as known here (head keeps the authoritative list).
  const std::vector<net::NodeId>& members() const { return descriptor_.members; }

 private:
  struct FunctionRuntime {
    ControllerMode mode = ControllerMode::kDormant;
    rtos::TaskId task = rtos::kInvalidTask;
    std::unique_ptr<vm::Interpreter> interpreter;
    std::uint32_t cycle = 0;
    double computed = 0.0;     // raw VM output of the current cycle
    double last_output = 0.0;  // after fault injection, what was emitted
    std::optional<double> fault_override;
    /// Observation of the current Active replica.
    std::optional<net::NodeId> observed_active;
    std::optional<double> observed_output;
    bool heard_since_last_cycle = false;
    std::map<net::NodeId, HealthMonitor> monitors;
    std::uint32_t last_epoch = 0;
  };

  util::Status install_function(const ControlFunction& function,
                                ControllerMode initial_mode,
                                const std::vector<std::uint8_t>* slot_image);
  void run_control_cycle(FunctionId function);
  void run_health_checks(FunctionId function, FunctionRuntime& rt);
  void on_datagram(const net::Datagram& d);
  void handle_sensor_data(const net::Datagram& d);
  void handle_actuation(const net::Datagram& d);
  void handle_heartbeat(const net::Datagram& d);
  void handle_mode_command(const net::Datagram& d);
  void handle_fault_report(const net::Datagram& d);
  void handle_membership_hello(const net::Datagram& d);
  void handle_head_beacon(const net::Datagram& d);
  /// Piggy-backed beacon gossip: every received frame carrying a beacon tag
  /// counts as head-liveness evidence iff its sequence advanced (the head is
  /// the only sequence source, so stale tags re-circulated by laggards
  /// cannot keep a dead head alive). Also runs the adoption rule explicit
  /// beacons use (lower id wins; higher id only once ours went silent).
  void on_beacon_tag(const net::BeaconTag& tag);
  /// True once the head has been silent for longer than beacon_silence().
  bool head_silent() const;
  /// A member heard its head (or adopted one): restart the liveness clock
  /// and wake a sleeping watchdog.
  void heard_head();
  void check_head_liveness();
  void become_head();

  // --- Head liveness: the evm-beacon task or its watchdog -------------------
  // The head beats from the periodic evm-beacon task (priority 1, 200 us).
  // So does every node on which the service runs another task (a replica,
  // a sensor publisher), because that job can delay the other one. Every
  // other node keeps the task admitted and active for the kernel's
  // books (utilization(), admission, RAM) but parks its first release
  // beyond any run, and runs check_head_liveness() from one watchdog event
  // instead.
  //
  // The watchdog fires only on the instants the task body would have run,
  // origin + k·period + 200 us (origin: start() or the last restart), at
  // the first one past last_beacon_ + beacon_silence(); when it fires early
  // because last_beacon_ moved, it re-arms. After a check that leaves the
  // head silent (the node is off the dissemination tree, or has no
  // successor to adopt) every later check would repeat it, so it sleeps.
  // It wakes when heard_head() runs or the topology's structure changes
  // (the tree is a function of it). A crash cancels it (kDown); the restart
  // re-origins the grid, as the task's own restart does. A node switches
  // to the task, on the same grid and for good, when it wins succession or
  // the service starts another task on it (a sensor publisher, a replica
  // going live).
  enum class Watchdog : std::uint8_t { kTask, kArmed, kAsleep, kDown };
  /// Arm the watchdog at the first grid instant past the silence window.
  void arm_watchdog();
  void on_watchdog();
  void on_liveness_change();
  /// Switch a watchdog node to the real evm-beacon task (no-op otherwise).
  void run_beacon_task();
  /// Act on an arbiter decision in the order the arbiter made it: trace and
  /// log its cause, record its failover, send (or self-apply) its mode
  /// commands and schedule its deadlines.
  void apply(const HeadArbiter::Decision& decision);
  void handle_algorithm_update(const net::Datagram& d);
  void transfer_function(FunctionId function, net::NodeId dest,
                         ControllerMode target_mode, bool deactivate_source,
                         std::function<void(const MigrationOutcome&)> on_done);
  void observe_active_output(FunctionId function, net::NodeId source,
                             double output);
  /// Take a mode command from the head (or self-apply one as the head)
  /// unless its epoch is stale.
  void accept_mode_command(FunctionId function, ControllerMode mode,
                           std::uint32_t epoch);
  bool accept_migrated_function(const MigrationOfferMsg& meta,
                                const std::vector<std::uint8_t>& payload);

  Node& node_;
  VcDescriptor descriptor_;
  obs::TraceRecorder* trace_ = nullptr;
  MigrationEngine migration_;
  TransferGuard guard_;
  HeadArbiter arbiter_;
  std::map<FunctionId, FunctionRuntime> functions_;
  std::map<std::uint8_t, double> streams_;
  std::map<std::uint8_t, std::uint32_t> stream_seq_;
  std::vector<FailoverEvent> failovers_;
  std::function<void(const ActuationMsg&)> actuation_handler_;
  std::function<void(FunctionId, ControllerMode)> on_mode_change_;
  std::function<void(const MembershipHelloMsg&)> on_member_joined_;
  std::function<void(const SensorDataMsg&)> on_stream_;
  std::size_t fault_reports_sent_ = 0;
  net::NodeId head_id_ = net::kInvalidNode;
  util::TimePoint last_beacon_;
  std::size_t head_successions_ = 0;
  rtos::TaskId beacon_task_ = rtos::kInvalidTask;
  Watchdog watchdog_ = Watchdog::kTask;
  util::TimePoint beacon_origin_;
  sim::EventHandle watchdog_event_;
  std::size_t topology_listener_ = 0;
  /// Head: own beacon sequence (bumped once per beacon period, stamped into
  /// every outgoing frame via the router's tag).
  std::uint16_t beacon_seq_sent_ = 0;
  /// Member: freshest beacon sequence observed for the current head.
  std::uint16_t beacon_seq_seen_ = 0;
  /// False until a tag from the *current* head has been seen; whenever
  /// head_id_ moves without a tag in hand (explicit beacon, provisional
  /// succession) this resets, so the first tag of the new head's stream is
  /// accepted instead of being compared against the old head's sequence.
  bool beacon_seq_synced_ = false;
  /// True while head_id_ is a zero-evidence guess (check_head_liveness
  /// adopted the deterministic successor without having heard from it).
  /// While provisional, a piggy-backed tag naming a *lower-id* head
  /// displaces the guess immediately — the lowest-id-wins rule — instead
  /// of waiting out another full silence window. Cleared by any real
  /// evidence (explicit beacon, tag from the believed head, self-election).
  bool head_provisional_ = false;
  bool started_ = false;

 public:
  /// Times this node assumed headship via succession (observability).
  std::size_t head_successions() const { return head_successions_; }
};

}  // namespace evm::core
