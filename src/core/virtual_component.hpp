// Virtual Component model (paper Fig. 1c and §3): "a composition of
// inter-connected communicating physical components defined by object
// transfer relationships", acting as a single entity for control algorithm
// execution. The descriptor is the design-time artifact; the runtime state
// (modes, epochs, membership) lives in EvmService instances and in the
// head's HeadArbiter.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/modes.hpp"
#include "rtos/task.hpp"
#include "vm/program.hpp"

namespace evm::core {

/// The five elementary object transfer types of §3.1.2.
enum class TransferType : std::uint8_t {
  kDisjoint = 0,       // no shared state; may run concurrently anywhere
  kDirectional,        // producer -> consumer (master-slave, pub-sub)
  kBidirectional,      // peer state exchange
  kTemporalConditional,  // consumer only accepts objects younger than max_age
  kCausalConditional,    // consumer requires in-order (causally preceding) objects
  kHealthAssessment,   // observer tracks subject; defines fault response
};

const char* to_string(TransferType type);

/// Response to a confirmed fault on a health-assessment transfer (§3.1.2:
/// "trigger alert, trigger backup, halt and local fail-safe operation").
enum class FaultResponse : std::uint8_t {
  kAlert = 0,
  kTriggerBackup,
  kHalt,
  kFailSafe,
};

const char* to_string(FaultResponse response);

struct ObjectTransfer {
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  TransferType type = TransferType::kDirectional;
  /// kTemporalConditional: max acceptable object age.
  util::Duration max_age = util::Duration::zero();
  /// kHealthAssessment: what the observer does on confirmed fault.
  FaultResponse response = FaultResponse::kTriggerBackup;
};

/// One control function (e.g. "LTS level loop"): its timing, its algorithm
/// capsule, and the plausibility envelope health monitoring checks against.
struct ControlFunction {
  FunctionId id = 0;
  std::string name;
  std::uint8_t sensor_stream = 0;
  std::uint8_t actuator_channel = 0;
  rtos::TaskParams task;
  vm::Capsule algorithm;
  /// Output plausibility bounds (template-free safety envelope).
  double output_min = 0.0;
  double output_max = 100.0;
  /// Max |primary - shadow| before a cycle counts as faulty evidence.
  double deviation_threshold = 5.0;
  /// Consecutive faulty cycles before the backup reports (paper's scenario
  /// tolerates a long confirmation window: T2 - T1 = 300 s).
  std::uint32_t evidence_threshold = 8;
  /// Missing heartbeats before the primary counts as silent.
  std::uint32_t silence_threshold = 4;
};

struct VcDescriptor {
  VcId id = 0;
  std::string name;
  net::NodeId head = net::kInvalidNode;
  std::vector<net::NodeId> members;
  std::map<FunctionId, ControlFunction> functions;
  /// Replica placement per function, in priority order; replicas[f][0] is
  /// the initial primary, the rest start as backups.
  std::map<FunctionId, std::vector<net::NodeId>> replicas;
  std::vector<ObjectTransfer> transfers;

  bool is_member(net::NodeId node) const;
  std::optional<net::NodeId> initial_primary(FunctionId function) const;
  /// Initial mode of `node` for `function` (Active / Backup / Dormant).
  ControllerMode initial_mode(FunctionId function, net::NodeId node) const;
  /// Health-assessment transfers where `observer` watches someone.
  std::vector<ObjectTransfer> health_transfers_from(net::NodeId observer) const;
};

}  // namespace evm::core
