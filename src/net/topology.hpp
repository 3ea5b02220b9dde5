// Wireless topology: which nodes can hear which, and how lossy each link is.
// Links can be reconfigured while the simulation runs — the paper's central
// premise is that topology changes are routine, not exceptional.
//
// Hot-path note: the structural state of record stays in ordered containers
// (deterministic iteration), but per-query work is served from dense flat
// arrays indexed by raw NodeId — a cached adjacency and a cached BFS
// distance field per destination — rebuilt lazily whenever `version()`
// moves. A 300-node broadcast therefore costs O(degree) per transmission
// instead of O(links) per neighbor query, and a unicast forward costs
// O(degree) instead of a fresh O(V+E) BFS. Whole-graph analysis of a static
// world (connectivity, diameter, hop order from the gateway) is not served
// here: testbed::TopologySpec runs it on its own dense graph of the spec.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "net/packet.hpp"

namespace evm::net {

struct LinkState {
  bool up = true;
  /// Independent per-frame loss probability (applied on top of collisions).
  double loss_probability = 0.0;
};

class Topology {
 public:
  /// Register a node; idempotent.
  void add_node(NodeId id);
  /// Forget a node entirely: its links, liveness flag and cache slots go
  /// with it (Medium::detach mirrors radio removal through this). No-op for
  /// unknown ids.
  void remove_node(NodeId id);
  bool has_node(NodeId id) const;
  std::vector<NodeId> nodes() const;

  /// Create/update a symmetric link.
  void set_link(NodeId a, NodeId b, LinkState state);
  void remove_link(NodeId a, NodeId b);
  /// Take a link down / bring it back without forgetting its loss rate.
  void set_link_up(NodeId a, NodeId b, bool up);
  void set_loss(NodeId a, NodeId b, double loss_probability);

  /// Crash-stop liveness, orthogonal to scripted link state: every link of
  /// a down node reads as disconnected (its neighbours' link estimators see
  /// a corpse), but the LinkState itself is untouched, so scripted
  /// link_down/link_up sequences and crash/recover cycles compose without
  /// clobbering each other.
  void set_node_down(NodeId id, bool down);
  bool node_down(NodeId id) const { return down_nodes_.count(id) > 0; }

  std::optional<LinkState> link(NodeId a, NodeId b) const;
  bool connected(NodeId a, NodeId b) const;
  double loss(NodeId a, NodeId b) const;

  /// All nodes with an *up* link from `id` (copy; prefer neighbors_view on
  /// hot paths).
  std::vector<NodeId> neighbors(NodeId id) const;
  /// Same neighbor set, served by reference from the cached adjacency. The
  /// reference is invalidated by the next structural mutation — don't hold
  /// it across anything that can touch the topology.
  const std::vector<NodeId>& neighbors_view(NodeId id) const;

  /// One cell of a node's audible footprint: `cell` names a 64-id block of
  /// NodeId space (id >> 6) and `mask` has bit (n & 63) set for every
  /// neighbor n of the node inside that block. Cells appear in ascending
  /// order and bits ascend within a cell, so iterating (cell, bit) visits
  /// exactly the neighbors_view() sequence — the Medium's spatial onset
  /// scan inherits the adjacency-order RNG contract for free.
  struct CellMask {
    NodeId cell = 0;
    std::uint64_t mask = 0;
  };
  /// The node's audible footprint as cells (empty for down/unknown nodes).
  /// Dense worlds collapse hundreds of per-neighbor visits into a handful
  /// of cell entries. Same invalidation rule as neighbors_view().
  const std::vector<CellMask>& audible_cells_view(NodeId id) const;

  /// Next hop on a shortest path from `source` toward `dest`, if reachable.
  /// Served from a per-destination cached BFS distance field.
  std::optional<NodeId> next_hop(NodeId source, NodeId dest) const;

  /// Monotonic *structural* mutation counter: bumped when connectivity can
  /// change (links added/removed/flipped up or down, node liveness) and NOT
  /// by loss-probability updates or no-op writes. Consumers that derive
  /// structures from the topology (the dissemination tree cache, the
  /// adjacency and route caches below) re-read lazily when the version
  /// moves instead of recomputing per send — and a loss-only churn scenario
  /// never invalidates them.
  std::uint64_t version() const { return version_; }

  /// Structural-change notification: `listener` runs after every version()
  /// bump, once the mutation is complete, in registration order. It must
  /// not mutate the topology. Returns the token remove_listener() takes.
  std::size_t add_listener(std::function<void()> listener);
  /// O(1): the slot stays, empty, so a 1000-node teardown is not quadratic.
  void remove_listener(std::size_t token);

  /// Largest registered NodeId (0 when empty): consumers sizing dense
  /// flat arrays by raw NodeId (Medium's radio table) use this.
  NodeId max_node_id() const { return nodes_.empty() ? 0 : *nodes_.rbegin(); }

  /// Fully connected mesh over the given nodes (convenience for tests).
  static Topology full_mesh(const std::vector<NodeId>& ids, double loss = 0.0);
  /// Star centred on `hub` (the paper's Fig. 5 gateway layout).
  static Topology star(NodeId hub, const std::vector<NodeId>& leaves, double loss = 0.0);
  /// Line topology: ids[0] - ids[1] - ... (multi-hop migration benches).
  static Topology line(const std::vector<NodeId>& ids, double loss = 0.0);

 private:
  static std::pair<NodeId, NodeId> key(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Rebuild adj_ from links_/down_nodes_ when adj_version_ lags version_.
  /// Appends in links_ iteration order, so each cached list is byte-for-byte
  /// the vector the uncached neighbors() scan used to produce.
  void refresh_adjacency() const;
  /// BFS distance field from `dest` (indexed by raw NodeId; -1 unreachable),
  /// cached per destination and rebuilt when the version moves.
  const std::vector<std::int32_t>& distances_from(NodeId dest) const;

  /// Bump version_ and notify the listeners.
  void changed();

  std::set<NodeId> nodes_;
  std::set<NodeId> down_nodes_;
  std::map<std::pair<NodeId, NodeId>, LinkState> links_;
  std::uint64_t version_ = 0;
  std::vector<std::function<void()>> listeners_;  // indexed by token

  // --- Lazily rebuilt flat caches (logically const: pure functions of the
  // structural state above, hence mutable). Vectors only — iteration order
  // is index order, so the caches cannot leak nondeterminism (evm_lint D1
  // note: no unordered containers here).
  struct RouteCache {
    std::uint64_t version = 0;
    std::vector<std::int32_t> dist;
  };
  mutable std::uint64_t adj_version_ = ~0ull;
  mutable std::vector<std::vector<NodeId>> adj_;  // indexed by raw NodeId
  mutable std::vector<std::vector<CellMask>> cells_;  // audible footprints
  mutable std::map<NodeId, RouteCache> routes_;   // keyed by destination
};

}  // namespace evm::net
