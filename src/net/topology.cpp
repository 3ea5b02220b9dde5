#include "net/topology.hpp"

#include <deque>

namespace evm::net {

namespace {
const std::vector<NodeId> kNoNeighbors;
const std::vector<Topology::CellMask> kNoCells;
}  // namespace

void Topology::add_node(NodeId id) {
  if (nodes_.insert(id).second) changed();
}

void Topology::remove_node(NodeId id) {
  bool removed = nodes_.erase(id) > 0;
  removed |= down_nodes_.erase(id) > 0;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->first.first == id || it->first.second == id) {
      it = links_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (removed) changed();
}

bool Topology::has_node(NodeId id) const { return nodes_.count(id) > 0; }

std::vector<NodeId> Topology::nodes() const {
  return {nodes_.begin(), nodes_.end()};
}

void Topology::set_link(NodeId a, NodeId b, LinkState state) {
  nodes_.insert(a);
  nodes_.insert(b);
  auto [it, inserted] = links_.try_emplace(key(a, b), state);
  const bool flipped = !inserted && it->second.up != state.up;
  it->second = state;
  if (inserted || flipped) changed();  // connectivity changed
}

void Topology::remove_link(NodeId a, NodeId b) {
  if (links_.erase(key(a, b)) > 0) changed();
}

void Topology::set_link_up(NodeId a, NodeId b, bool up) {
  auto it = links_.find(key(a, b));
  if (it != links_.end() && it->second.up != up) {
    it->second.up = up;
    changed();
  }
}

void Topology::set_loss(NodeId a, NodeId b, double loss_probability) {
  // Loss is not structure: routing and the dissemination tree are
  // loss-blind, so this never bumps the version.
  auto it = links_.find(key(a, b));
  if (it != links_.end()) it->second.loss_probability = loss_probability;
}

std::optional<LinkState> Topology::link(NodeId a, NodeId b) const {
  auto it = links_.find(key(a, b));
  if (it == links_.end()) return std::nullopt;
  return it->second;
}

void Topology::set_node_down(NodeId id, bool down) {
  const bool flipped =
      down ? down_nodes_.insert(id).second : down_nodes_.erase(id) > 0;
  if (flipped) changed();
}

std::size_t Topology::add_listener(std::function<void()> listener) {
  listeners_.push_back(std::move(listener));
  return listeners_.size() - 1;
}

void Topology::remove_listener(std::size_t token) {
  if (token < listeners_.size()) listeners_[token] = nullptr;
}

void Topology::changed() {
  ++version_;
  for (const auto& listener : listeners_) {
    if (listener) listener();
  }
}

bool Topology::connected(NodeId a, NodeId b) const {
  if (node_down(a) || node_down(b)) return false;
  auto l = link(a, b);
  return l.has_value() && l->up;
}

double Topology::loss(NodeId a, NodeId b) const {
  auto l = link(a, b);
  return l.has_value() ? l->loss_probability : 1.0;
}

void Topology::refresh_adjacency() const {
  if (adj_version_ == version_) return;
  const std::size_t width = static_cast<std::size_t>(max_node_id()) + 1;
  if (adj_.size() < width) adj_.resize(width);
  // clear() keeps each slot's capacity, so steady-state rebuilds (link
  // flaps, crash/restart cycles) allocate nothing.
  for (auto& list : adj_) list.clear();
  for (const auto& [k, state] : links_) {
    if (!state.up) continue;
    if (node_down(k.first) || node_down(k.second)) continue;
    adj_[k.first].push_back(k.second);
    adj_[k.second].push_back(k.first);
  }
  // Cell footprints ride along with the adjacency rebuild. adj_[id] is
  // ascending (links_ is keyed (min, max) and iterated in order), so
  // appending run-length cells preserves neighbor order exactly.
  if (cells_.size() < adj_.size()) cells_.resize(adj_.size());
  for (std::size_t id = 0; id < adj_.size(); ++id) {
    std::vector<CellMask>& cells = cells_[id];
    cells.clear();
    for (NodeId n : adj_[id]) {
      const NodeId cell = static_cast<NodeId>(n >> 6);
      if (cells.empty() || cells.back().cell != cell) {
        cells.push_back(CellMask{cell, 0});
      }
      cells.back().mask |= std::uint64_t{1} << (n & 63);
    }
  }
  adj_version_ = version_;
}

const std::vector<Topology::CellMask>& Topology::audible_cells_view(
    NodeId id) const {
  if (node_down(id)) return kNoCells;
  refresh_adjacency();
  if (static_cast<std::size_t>(id) >= cells_.size()) return kNoCells;
  return cells_[id];
}

const std::vector<NodeId>& Topology::neighbors_view(NodeId id) const {
  if (node_down(id)) return kNoNeighbors;
  refresh_adjacency();
  if (static_cast<std::size_t>(id) >= adj_.size()) return kNoNeighbors;
  return adj_[id];
}

std::vector<NodeId> Topology::neighbors(NodeId id) const {
  return neighbors_view(id);
}

const std::vector<std::int32_t>& Topology::distances_from(NodeId dest) const {
  RouteCache& cache = routes_[dest];
  if (cache.version == version_ && !cache.dist.empty()) return cache.dist;
  refresh_adjacency();
  const std::size_t width = static_cast<std::size_t>(max_node_id()) + 1;
  cache.version = version_;
  cache.dist.assign(width, -1);
  if (!has_node(dest) || node_down(dest)) return cache.dist;
  cache.dist[dest] = 0;
  std::deque<NodeId> frontier{dest};
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (NodeId n : adj_[cur]) {
      if (cache.dist[n] < 0) {
        cache.dist[n] = cache.dist[cur] + 1;
        frontier.push_back(n);
      }
    }
  }
  return cache.dist;
}

std::optional<NodeId> Topology::next_hop(NodeId source, NodeId dest) const {
  if (source == dest) return dest;
  // Cached BFS from dest; the neighbor of `source` with the smallest
  // distance to dest (ties broken by adjacency order, which matches the
  // historical links_-scan order) is the next hop.
  const std::vector<std::int32_t>& dist = distances_from(dest);
  if (static_cast<std::size_t>(source) >= dist.size() || dist[source] < 0) {
    return std::nullopt;
  }
  std::optional<NodeId> best;
  const std::int32_t source_dist = dist[source];
  for (NodeId n : neighbors_view(source)) {
    if (dist[n] < 0) continue;
    if (dist[n] < source_dist && !best) best = n;
  }
  return best;
}

Topology Topology::full_mesh(const std::vector<NodeId>& ids, double loss) {
  Topology t;
  for (NodeId id : ids) t.add_node(id);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      t.set_link(ids[i], ids[j], LinkState{true, loss});
    }
  }
  return t;
}

Topology Topology::star(NodeId hub, const std::vector<NodeId>& leaves, double loss) {
  Topology t;
  t.add_node(hub);
  for (NodeId id : leaves) t.set_link(hub, id, LinkState{true, loss});
  return t;
}

Topology Topology::line(const std::vector<NodeId>& ids, double loss) {
  Topology t;
  for (NodeId id : ids) t.add_node(id);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    t.set_link(ids[i], ids[i + 1], LinkState{true, loss});
  }
  return t;
}

}  // namespace evm::net
