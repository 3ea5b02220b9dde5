#include "core/virtual_component.hpp"

#include <algorithm>

namespace evm::core {

const char* to_string(TransferType type) {
  switch (type) {
    case TransferType::kDisjoint: return "disjoint";
    case TransferType::kDirectional: return "directional";
    case TransferType::kBidirectional: return "bidirectional";
    case TransferType::kTemporalConditional: return "temporal-conditional";
    case TransferType::kCausalConditional: return "causal-conditional";
    case TransferType::kHealthAssessment: return "health-assessment";
  }
  return "?";
}

const char* to_string(FaultResponse response) {
  switch (response) {
    case FaultResponse::kAlert: return "alert";
    case FaultResponse::kTriggerBackup: return "trigger-backup";
    case FaultResponse::kHalt: return "halt";
    case FaultResponse::kFailSafe: return "fail-safe";
  }
  return "?";
}

bool VcDescriptor::is_member(net::NodeId node) const {
  return std::find(members.begin(), members.end(), node) != members.end();
}

std::optional<net::NodeId> VcDescriptor::initial_primary(FunctionId function) const {
  auto it = replicas.find(function);
  if (it == replicas.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

ControllerMode VcDescriptor::initial_mode(FunctionId function, net::NodeId node) const {
  auto it = replicas.find(function);
  if (it == replicas.end()) return ControllerMode::kDormant;
  const auto& order = it->second;
  auto pos = std::find(order.begin(), order.end(), node);
  if (pos == order.end()) return ControllerMode::kDormant;
  return pos == order.begin() ? ControllerMode::kActive : ControllerMode::kBackup;
}

std::vector<ObjectTransfer> VcDescriptor::health_transfers_from(
    net::NodeId observer) const {
  std::vector<ObjectTransfer> out;
  for (const auto& t : transfers) {
    if (t.type == TransferType::kHealthAssessment && t.from == observer) {
      out.push_back(t);
    }
  }
  return out;
}

}  // namespace evm::core
