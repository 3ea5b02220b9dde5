// Scoped dissemination: a shortest-path spanning tree rooted at the VC head
// (the gateway), pruned to the nodes that actually consume broadcast-plane
// traffic — the replica set plus the sensor/actuator/gateway roles. Instead
// of the PR 4 flood, where every node re-broadcasts every unique datagram
// (one RT-Link slot per node per datagram), only the tree's interior nodes
// relay, so multicast cost scales with the tree, not the network. The tree
// is recomputed from the *live* topology — link state AND node liveness, the
// link-estimator view — whenever the topology mutates, which is what closes
// the route-liveness hole: a scripted link_up firing while a node is crashed
// cannot resurrect a dissemination path through the corpse, and losing a
// gateway-adjacent link (or the gateway itself) re-roots the tree instead of
// silently orphaning the subtree.
#pragma once

#include <map>
#include <vector>

#include "net/topology.hpp"

namespace evm::net {

class DisseminationTree {
 public:
  /// Shortest-path tree over the *current* up links between live nodes,
  /// rooted at `root` and pruned to the nodes on root-to-target paths.
  /// Deterministic: BFS discovery order follows the topology's sorted link
  /// set, so equal-length paths always resolve the same way. If `root` is
  /// down or isolated, the tree re-roots at the lowest-id live target that
  /// still has a live link (head succession picks the lowest id too, so the
  /// dissemination structure follows the control plane). Unreachable targets
  /// are simply absent — a partition prunes, it does not throw.
  static DisseminationTree compute(const Topology& topo, NodeId root,
                                   const std::vector<NodeId>& targets);

  NodeId root() const { return root_; }
  bool empty() const { return members_.empty(); }
  std::size_t size() const { return members_.size(); }
  /// Tree members in ascending id order (targets plus path relays).
  const std::vector<NodeId>& members() const { return members_; }
  bool contains(NodeId id) const { return parent_.count(id) > 0; }
  /// Parent toward the root; kInvalidNode for the root and non-members.
  NodeId parent(NodeId id) const;
  /// Tree degree (parent edge + child edges); 0 for non-members.
  int degree(NodeId id) const;
  /// True when `id` should re-broadcast tree-scoped datagrams: an interior
  /// node (degree >= 2). Leaves never relay — their only tree neighbour
  /// already has the datagram (it is either the originator or on the path
  /// the datagram arrived by), so a leaf slot would be pure waste.
  bool forwards(NodeId id) const { return degree(id) >= 2; }
  /// Interior node count: the per-unique-datagram relay cost of the tree
  /// (the originator's own slot comes on top).
  std::size_t forwarder_count() const { return forwarders_; }

 private:
  NodeId root_ = kInvalidNode;
  std::map<NodeId, NodeId> parent_;  // member -> parent (root -> kInvalidNode)
  std::map<NodeId, int> degree_;
  std::vector<NodeId> members_;
  std::size_t forwarders_ = 0;
};

/// Lazy per-world cache: recomputes the tree only when the topology's
/// mutation counter moves. Shared by every Router of one simulation, so a
/// topology event (crash, link flip) costs one recompute, not one per node
/// per datagram.
class DisseminationTreeCache {
 public:
  DisseminationTreeCache(const Topology& topology, NodeId root,
                         std::vector<NodeId> targets)
      : topology_(topology), root_(root), targets_(std::move(targets)) {}

  const DisseminationTree& tree() const {
    if (!valid_ || cached_version_ != topology_.version()) {
      cached_ = DisseminationTree::compute(topology_, root_, targets_);
      cached_version_ = topology_.version();
      valid_ = true;
    }
    return cached_;
  }

 private:
  const Topology& topology_;
  NodeId root_;
  std::vector<NodeId> targets_;
  mutable DisseminationTree cached_;
  mutable std::uint64_t cached_version_ = 0;
  mutable bool valid_ = false;
};

}  // namespace evm::net
