#include "testbed/topology_spec.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "net/dissemination.hpp"

namespace evm::testbed {

using util::as_integer;
using util::check_keys;
using util::Json;
using util::Result;
using util::Status;

namespace {

struct RoleName {
  NodeRole role;
  const char* name;
};

constexpr RoleName kRoleNames[] = {
    {NodeRole::kGateway, "gateway"},   {NodeRole::kSensor, "sensor"},
    {NodeRole::kController, "controller"}, {NodeRole::kActuator, "actuator"},
    {NodeRole::kRelay, "relay"},
};

struct GeneratorKeys {
  const char* kind;
  /// Every key the generator takes, space-separated.
  std::string_view keys;
};

constexpr GeneratorKeys kGenerators[] = {
    {"fig5", "generator third_controller link_loss"},
    {"line", "generator link_loss nodes controllers"},
    {"grid", "generator link_loss width height controllers"},
    {"star", "generator link_loss nodes controllers"},
};

/// Controller names follow the Fig. 5 labels: ctrl_a, ctrl_b, ctrl_c, ...
std::string controller_name(std::size_t index) {
  if (index < 26) return std::string("ctrl_") + static_cast<char>('a' + index);
  return "ctrl_" + std::to_string(index + 1);
}

std::string indexed_name(const char* base, std::size_t index) {
  if (index == 0) return base;
  return std::string(base) + "_" + std::to_string(index + 1);
}

/// Shared scaffolding for the generators: assign sequential ids and the
/// conventional role names ("gateway", "sensor", "relay_1", "ctrl_a", ...).
class SpecBuilder {
 public:
  net::NodeId add(NodeRole role) {
    TopologyNode node;
    node.id = next_id_++;
    node.role = role;
    std::size_t& count = role_counts_[role];
    switch (role) {
      case NodeRole::kGateway: node.name = indexed_name("gateway", count); break;
      case NodeRole::kSensor: node.name = indexed_name("sensor", count); break;
      case NodeRole::kActuator: node.name = indexed_name("actuator", count); break;
      case NodeRole::kController: node.name = controller_name(count); break;
      case NodeRole::kRelay:
        node.name = "relay_" + std::to_string(count + 1);
        break;
    }
    ++count;
    spec_.nodes.push_back(std::move(node));
    return spec_.nodes.back().id;
  }

  void link(net::NodeId a, net::NodeId b, double loss) {
    spec_.links.push_back({a, b, loss});
  }

  TopologySpec take() { return std::move(spec_); }

 private:
  TopologySpec spec_;
  net::NodeId next_id_ = 1;
  std::map<NodeRole, std::size_t> role_counts_;
};

/// The spec's link graph over spec positions (vertex i is nodes[i]), in
/// compressed-row form: the neighbours of v are
/// targets[offsets[v] .. offsets[v + 1]). Every analysis below runs on it,
/// so none of them pays for a net::Topology's ordered containers. A link
/// naming an id outside the spec adds no edge, and a duplicated id resolves
/// to its first node, leaving the later copy isolated; validate() rejects
/// both before its connectivity check.
struct DenseGraph {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;
  std::vector<std::int32_t> vertex_of;  // raw NodeId -> vertex, -1 if absent

  std::uint32_t size() const { return static_cast<std::uint32_t>(offsets.size() - 1); }
  std::int32_t vertex(net::NodeId id) const {
    return id < vertex_of.size() ? vertex_of[id] : -1;
  }

  /// Breadth-first hop counts from `source` into `dist` (-1 unreachable),
  /// with `queue` as the work list; both are resized, so callers can reuse
  /// them across sources. A `removed` vertex is never entered. Returns the
  /// number of vertices reached, in `queue` in dequeue order.
  std::uint32_t bfs(std::uint32_t source, std::vector<std::int32_t>& dist,
                    std::vector<std::uint32_t>& queue,
                    std::int32_t removed = -1) const {
    dist.assign(size(), -1);
    queue.resize(size());
    if (removed >= 0) dist[removed] = 0;
    dist[source] = 0;
    queue[0] = source;
    std::uint32_t head = 0, tail = 1;
    while (head < tail) {
      const std::uint32_t v = queue[head++];
      for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const std::uint32_t n = targets[e];
        if (dist[n] < 0) {
          dist[n] = dist[v] + 1;
          queue[tail++] = n;
        }
      }
    }
    return tail;
  }
};

DenseGraph dense_graph(const TopologySpec& spec) {
  DenseGraph g;
  const auto n = static_cast<std::uint32_t>(spec.nodes.size());
  net::NodeId max_id = 0;
  for (const auto& node : spec.nodes) max_id = std::max(max_id, node.id);
  g.vertex_of.assign(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::int32_t& slot = g.vertex_of[spec.nodes[v].id];
    if (slot < 0) slot = static_cast<std::int32_t>(v);
  }
  // Two passes over the links: count degrees, then fill each row.
  g.offsets.assign(n + 1, 0);
  for (const auto& link : spec.links) {
    const std::int32_t a = g.vertex(link.a);
    const std::int32_t b = g.vertex(link.b);
    if (a < 0 || b < 0) continue;
    ++g.offsets[a + 1];
    ++g.offsets[b + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(g.offsets[n]);
  std::vector<std::uint32_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& link : spec.links) {
    const std::int32_t a = g.vertex(link.a);
    const std::int32_t b = g.vertex(link.b);
    if (a < 0 || b < 0) continue;
    g.targets[fill[a]++] = static_cast<std::uint32_t>(b);
    g.targets[fill[b]++] = static_cast<std::uint32_t>(a);
  }
  return g;
}

/// One BFS: does every spec node reach every other? An empty spec counts
/// as connected.
bool connected(const DenseGraph& g) {
  if (g.size() == 0) return true;
  std::vector<std::int32_t> dist;
  std::vector<std::uint32_t> queue;
  return g.bfs(0, dist, queue) == g.size();
}

}  // namespace

const char* to_string(DisseminationMode mode) {
  switch (mode) {
    case DisseminationMode::kAuto: return "auto";
    case DisseminationMode::kFlood: return "flood";
    case DisseminationMode::kTree: return "tree";
  }
  return "unknown";
}

const char* to_string(NodeRole role) {
  for (const auto& [r, name] : kRoleNames) {
    if (r == role) return name;
  }
  return "unknown";
}

const TopologyNode* TopologySpec::find(net::NodeId id) const {
  for (const auto& node : nodes) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

const TopologyNode* TopologySpec::find_name(const std::string& name) const {
  for (const auto& node : nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

bool TopologySpec::has_link(net::NodeId a, net::NodeId b) const {
  for (const auto& link : links) {
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) return true;
  }
  return false;
}

net::NodeId TopologySpec::gateway() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kGateway) return node.id;
  }
  return net::kInvalidNode;
}

net::NodeId TopologySpec::primary_sensor() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kSensor) return node.id;
  }
  return net::kInvalidNode;
}

net::NodeId TopologySpec::primary_actuator() const {
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kActuator) return node.id;
  }
  return net::kInvalidNode;
}

std::vector<net::NodeId> TopologySpec::node_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes.size());
  for (const auto& node : nodes) out.push_back(node.id);
  return out;
}

std::vector<net::NodeId> TopologySpec::members() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.vc_member) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::controllers() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kController) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::replica_order() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kController && node.vc_member) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::relays() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role == NodeRole::kRelay) out.push_back(node.id);
  }
  return out;
}

std::vector<net::NodeId> TopologySpec::dissemination_targets() const {
  std::vector<net::NodeId> out;
  for (const auto& node : nodes) {
    if (node.role != NodeRole::kRelay) out.push_back(node.id);
  }
  return out;
}

std::string TopologySpec::node_name(net::NodeId id) const {
  const TopologyNode* node = find(id);
  if (node != nullptr) return node->name;
  return "node" + std::to_string(id);
}

Result<net::NodeId> TopologySpec::parse_node(const Json& ref) const {
  if (ref.is_number()) {
    const auto id = as_integer(ref, -util::kMaxExactInteger, util::kMaxExactInteger);
    if (!id) {
      return Status::invalid_argument("node id " + ref.dump_compact() +
                                      " is not an integer");
    }
    for (const auto& node : nodes) {
      if (node.id == *id) return node.id;
    }
    return Status::invalid_argument("unknown node id " + std::to_string(*id) +
                                    " (this topology has " +
                                    std::to_string(nodes.size()) + " nodes)");
  }
  if (ref.is_string()) {
    const TopologyNode* node = find_name(ref.as_string());
    if (node != nullptr) return node->id;
    std::string known;
    for (const auto& n : nodes) {
      if (!known.empty()) known += ", ";
      known += n.name;
    }
    return Status::invalid_argument("unknown node '" + ref.as_string() +
                                    "' (expected " + known + ")");
  }
  return Status::invalid_argument("node reference must be a name or an id");
}

net::Topology TopologySpec::to_topology() const {
  net::Topology topo;
  for (const auto& node : nodes) topo.add_node(node.id);
  for (const auto& link : links) {
    topo.set_link(link.a, link.b, net::LinkState{true, link.loss});
  }
  return topo;
}

int TopologySpec::diameter() const {
  const DenseGraph g = dense_graph(*this);
  std::vector<std::int32_t> dist;
  std::vector<std::uint32_t> queue;
  int diameter = 0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    if (g.bfs(v, dist, queue) != g.size()) return -1;  // disconnected
    // The last vertex dequeued is the farthest from v.
    diameter = std::max(diameter, dist[queue[g.size() - 1]]);
  }
  return diameter;
}

bool TopologySpec::multi_hop() const {
  // diameter() > 1 without the all-pairs pass: a connected spec is
  // single-hop exactly when every node links to every other one.
  const DenseGraph g = dense_graph(*this);
  if (!connected(g)) return false;
  // Count each vertex's distinct neighbours, so duplicate links and
  // self-links cannot pass for missing ones.
  std::vector<std::uint32_t> seen_from(g.size(), g.size());
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    std::uint32_t distinct = 0;
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const std::uint32_t n = g.targets[e];
      if (n == v || seen_from[n] == v) continue;
      seen_from[n] = v;
      ++distinct;
    }
    if (distinct + 1 < g.size()) return true;
  }
  return false;
}

bool TopologySpec::is_cut_vertex(net::NodeId id) const {
  if (nodes.size() < 3) return false;
  // BFS over the spec with `id` removed, from the first other node.
  const DenseGraph g = dense_graph(*this);
  const std::int32_t cut = g.vertex(id);
  const std::uint32_t start = cut == 0 ? 1 : 0;
  std::vector<std::int32_t> dist;
  std::vector<std::uint32_t> queue;
  return g.bfs(start, dist, queue, cut) != nodes.size() - 1;
}

util::Status TopologySpec::validate() const {
  if (nodes.empty()) return Status::invalid_argument("topology has no nodes");

  std::set<net::NodeId> ids;
  std::set<std::string> names;
  std::size_t gateways = 0;
  for (const auto& node : nodes) {
    if (node.id == net::kInvalidNode || node.id == net::kBroadcast) {
      return Status::invalid_argument("node id " + std::to_string(node.id) +
                                      " is reserved");
    }
    if (!ids.insert(node.id).second) {
      return Status::invalid_argument("duplicate node id " + std::to_string(node.id));
    }
    if (node.name.empty()) {
      return Status::invalid_argument("node " + std::to_string(node.id) +
                                      " has an empty name");
    }
    if (!names.insert(node.name).second) {
      return Status::invalid_argument("duplicate node name '" + node.name + "'");
    }
    if (node.role == NodeRole::kGateway) ++gateways;
  }
  if (gateways != 1) {
    return Status::invalid_argument("topology needs exactly one gateway, has " +
                                    std::to_string(gateways));
  }
  if (primary_sensor() == net::kInvalidNode) {
    return Status::invalid_argument("topology needs at least one sensor node");
  }
  if (primary_actuator() == net::kInvalidNode) {
    return Status::invalid_argument("topology needs at least one actuator node");
  }
  if (replica_order().empty()) {
    return Status::invalid_argument(
        "topology needs at least one vc-member controller");
  }
  for (net::NodeId essential :
       {gateway(), primary_sensor(), primary_actuator()}) {
    const TopologyNode* node = find(essential);
    if (node != nullptr && !node->vc_member) {
      return Status::invalid_argument("node '" + node->name +
                                      "' must be a VC member");
    }
  }

  std::set<std::pair<net::NodeId, net::NodeId>> seen;
  for (const auto& link : links) {
    if (ids.count(link.a) == 0 || ids.count(link.b) == 0) {
      return Status::invalid_argument(
          "link references unknown node " +
          std::to_string(ids.count(link.a) == 0 ? link.a : link.b));
    }
    if (link.a == link.b) {
      return Status::invalid_argument("link endpoints must differ (node " +
                                      std::to_string(link.a) + ")");
    }
    if (link.loss < 0.0 || link.loss >= 1.0) {
      return Status::invalid_argument("link loss must be in [0, 1)");
    }
    const auto key = link.a < link.b ? std::make_pair(link.a, link.b)
                                     : std::make_pair(link.b, link.a);
    if (!seen.insert(key).second) {
      return Status::invalid_argument("duplicate link " + std::to_string(link.a) +
                                      "-" + std::to_string(link.b));
    }
  }
  if (!connected(dense_graph(*this))) {
    return Status::invalid_argument("topology is disconnected");
  }
  return Status::ok();
}

SchedulePlan plan_schedule(const TopologySpec& topo, DisseminationMode mode) {
  SchedulePlan plan;
  // Base slots in hop order from the gateway, ties by spec order: a packet
  // flooding away from the gateway end of the network can cross several
  // hops inside a single frame instead of paying one frame per hop.
  const DenseGraph graph = dense_graph(topo);
  std::vector<std::int32_t> dist(graph.size(), -1);
  std::vector<std::uint32_t> queue;
  if (const std::int32_t gw = graph.vertex(topo.gateway()); gw >= 0) {
    graph.bfs(static_cast<std::uint32_t>(gw), dist, queue);
  }
  auto hops = [&](net::NodeId id) {
    const std::int32_t v = graph.vertex(id);
    return v < 0 || dist[v] < 0 ? 1 << 20 : dist[v];
  };
  std::vector<net::NodeId> order = topo.node_ids();
  std::stable_sort(order.begin(), order.end(),
                   [&](net::NodeId a, net::NodeId b) { return hops(a) < hops(b); });
  plan.slots = order;

  // Mirror pass (tree-scoped multi-hop worlds only): the dissemination
  // tree's interior nodes in descending hop order. A frame then carries
  // inward-bound chains too — a fault report at hop 4 is relayed by hop 3,
  // then hop 2, then hop 1 later in the same frame, instead of one frame
  // per hop. Single-hop worlds skip this (keeping the paper's 10-slot
  // Fig. 5 frame intact), and so do flood-forced worlds (restoring the
  // exact PR 4 frame, so the flood knob really is the PR 4 baseline).
  if (topo.multi_hop() && mode != DisseminationMode::kFlood) {
    const net::DisseminationTree tree = net::DisseminationTree::compute(
        topo.to_topology(), topo.gateway(), topo.dissemination_targets());
    std::vector<net::NodeId> interior;
    for (net::NodeId id : order) {
      if (tree.forwards(id)) interior.push_back(id);
    }
    plan.slots.insert(plan.slots.end(), interior.rbegin(), interior.rend());
  }

  // A second slot per frame for the chatty nodes: every sensor, the primary
  // and first backup replica, and the gateway (mode commands + beacons).
  for (const auto& node : topo.nodes) {
    if (node.role == NodeRole::kSensor) plan.slots.push_back(node.id);
  }
  const auto replicas = topo.replica_order();
  for (std::size_t i = 0; i < replicas.size() && i < 2; ++i) {
    plan.slots.push_back(replicas[i]);
  }
  plan.slots.push_back(topo.gateway());
  return plan;
}

TopologySpec default_fig5_topology(bool third_controller, double link_loss) {
  using Ids = TestbedIds;
  TopologySpec spec;
  spec.nodes = {
      {Ids::kGateway, "gateway", NodeRole::kGateway, true},
      {Ids::kSensor, "sensor", NodeRole::kSensor, true},
      {Ids::kCtrlA, "ctrl_a", NodeRole::kController, true},
      {Ids::kCtrlB, "ctrl_b", NodeRole::kController, true},
      // Ctrl-C is always built (degradation studies flip it on at runtime)
      // but joins the VC only when the third controller is enabled.
      {Ids::kCtrlC, "ctrl_c", NodeRole::kController, third_controller},
      {Ids::kActuator, "actuator", NodeRole::kActuator, true},
  };
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.nodes.size(); ++j) {
      spec.links.push_back({spec.nodes[i].id, spec.nodes[j].id, link_loss});
    }
  }
  return spec;
}

TopologySpec line_topology(std::size_t nodes, std::size_t controllers,
                           double link_loss) {
  SpecBuilder b;
  std::vector<net::NodeId> chain;
  chain.push_back(b.add(NodeRole::kGateway));
  chain.push_back(b.add(NodeRole::kSensor));
  const std::size_t relays =
      nodes > controllers + 3 ? nodes - controllers - 3 : 0;
  for (std::size_t i = 0; i < relays; ++i) chain.push_back(b.add(NodeRole::kRelay));
  for (std::size_t i = 0; i < controllers; ++i) {
    chain.push_back(b.add(NodeRole::kController));
  }
  chain.push_back(b.add(NodeRole::kActuator));
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    b.link(chain[i], chain[i + 1], link_loss);
  }
  return b.take();
}

TopologySpec grid_topology(std::size_t width, std::size_t height,
                           std::size_t controllers, double link_loss) {
  // Role placement by grid position: gateway top-left, sensor top-right,
  // actuator bottom-right, controllers from the centre cell onward (skipping
  // cells already taken), relays everywhere else.
  const std::size_t count = width * height;
  std::vector<NodeRole> roles(count, NodeRole::kRelay);
  std::set<std::size_t> taken;
  auto place = [&](std::size_t index, NodeRole role) {
    while (taken.count(index) > 0) index = (index + 1) % count;
    roles[index] = role;
    taken.insert(index);
  };
  place(0, NodeRole::kGateway);
  if (width > 0) place(width - 1, NodeRole::kSensor);
  if (count > 0) place(count - 1, NodeRole::kActuator);
  const std::size_t centre = (height / 2) * width + width / 2;
  for (std::size_t i = 0; i < controllers; ++i) {
    place((centre + i) % count, NodeRole::kController);
  }

  SpecBuilder b;
  std::vector<net::NodeId> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = b.add(roles[i]);
  for (std::size_t row = 0; row < height; ++row) {
    for (std::size_t col = 0; col < width; ++col) {
      const std::size_t i = row * width + col;
      if (col + 1 < width) b.link(ids[i], ids[i + 1], link_loss);
      if (row + 1 < height) b.link(ids[i], ids[i + width], link_loss);
    }
  }
  return b.take();
}

TopologySpec star_topology(std::size_t nodes, std::size_t controllers,
                           double link_loss) {
  SpecBuilder b;
  const net::NodeId hub = b.add(NodeRole::kGateway);
  std::vector<net::NodeId> leaves;
  leaves.push_back(b.add(NodeRole::kSensor));
  for (std::size_t i = 0; i < controllers; ++i) {
    leaves.push_back(b.add(NodeRole::kController));
  }
  leaves.push_back(b.add(NodeRole::kActuator));
  while (leaves.size() + 1 < nodes) leaves.push_back(b.add(NodeRole::kRelay));
  for (net::NodeId leaf : leaves) b.link(hub, leaf, link_loss);
  return b.take();
}

Result<TopologySpec> TopologySpec::from_json(const Json& json) {
  if (!json.is_object()) {
    return Status::invalid_argument("'topology' must be an object");
  }

  auto read_count = [&](const char* key, std::size_t fallback,
                        std::size_t min_value) -> Result<std::size_t> {
    const Json* v = json.find(key);
    if (v == nullptr) return fallback;
    const auto count = as_integer(*v, static_cast<std::int64_t>(min_value),
                                  util::kMaxExactInteger);
    if (!count) {
      return Status::invalid_argument("topology '" + std::string(key) +
                                      "' must be an integer >= " +
                                      std::to_string(min_value));
    }
    return static_cast<std::size_t>(*count);
  };
  auto read_loss = [&]() -> Result<double> {
    const Json* v = json.find("link_loss");
    if (v == nullptr) return 0.0;
    if (!v->is_number() || v->as_double() < 0.0 || v->as_double() >= 1.0) {
      return Status::invalid_argument("topology 'link_loss' must be in [0, 1)");
    }
    return v->as_double();
  };

  if (const Json* generator = json.find("generator")) {
    if (!generator->is_string()) {
      return Status::invalid_argument("topology 'generator' must be a string");
    }
    const std::string& kind = generator->as_string();
    const GeneratorKeys* known = nullptr;
    for (const GeneratorKeys& entry : kGenerators) {
      if (kind == entry.kind) known = &entry;
    }
    if (known == nullptr) {
      return Status::invalid_argument("unknown topology generator '" + kind +
                                      "' (known: fig5, line, grid, star)");
    }
    if (Status s = check_keys(json, known->keys, "the " + kind + " generator"); !s) {
      return s;
    }
    auto loss = read_loss();
    if (!loss) return loss.status();
    auto controllers = read_count("controllers", 2, 1);
    if (!controllers) return controllers.status();

    TopologySpec spec;
    if (kind == "fig5") {
      const Json* third = json.find("third_controller");
      if (third != nullptr && !third->is_bool()) {
        return Status::invalid_argument("topology 'third_controller' must be a boolean");
      }
      spec = default_fig5_topology(third != nullptr && third->as_bool(), *loss);
    } else if (kind == "line") {
      auto count = read_count("nodes", 0, *controllers + 3);
      if (!count) return count.status();
      if (*count == 0) {
        return Status::invalid_argument("line topology requires 'nodes'");
      }
      spec = line_topology(*count, *controllers, *loss);
    } else if (kind == "grid") {
      auto width = read_count("width", 0, 2);
      if (!width) return width.status();
      auto height = read_count("height", 0, 2);
      if (!height) return height.status();
      if (*width == 0 || *height == 0) {
        return Status::invalid_argument("grid topology requires 'width' and 'height'");
      }
      if (*width * *height < *controllers + 3) {
        return Status::invalid_argument("grid too small for its roles");
      }
      spec = grid_topology(*width, *height, *controllers, *loss);
    } else {  // star
      auto count = read_count("nodes", 0, *controllers + 3);
      if (!count) return count.status();
      if (*count == 0) {
        return Status::invalid_argument("star topology requires 'nodes'");
      }
      spec = star_topology(*count, *controllers, *loss);
    }
    if (Status s = spec.validate(); !s) return s;
    return spec;
  }

  const Json* nodes = json.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() == 0) {
    return Status::invalid_argument(
        "topology requires a 'generator' or a non-empty 'nodes' array");
  }
  if (Status s = check_keys(json, "nodes links", "the explicit topology"); !s) {
    return s;
  }
  TopologySpec spec;
  for (std::size_t i = 0; i < nodes->size(); ++i) {
    const Json& entry = nodes->at(i);
    if (!entry.is_object()) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] must be an object");
    }
    if (Status s = check_keys(entry, "id name role vc_member",
                              "nodes[" + std::to_string(i) + "]");
        !s) {
      return s;
    }
    TopologyNode node;
    const Json* id_ref = entry.find("id");
    const auto id = id_ref == nullptr ? std::nullopt
                                      : as_integer(*id_ref, 1, net::kInvalidNode - 1);
    if (!id) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] requires an integer 'id' in [1, " +
                                      std::to_string(net::kInvalidNode - 1) + "]");
    }
    node.id = static_cast<net::NodeId>(*id);
    const Json* role = entry.find("role");
    if (role == nullptr || !role->is_string()) {
      return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                      "] requires a string 'role'");
    }
    bool known = false;
    for (const auto& [r, name] : kRoleNames) {
      if (role->as_string() == name) {
        node.role = r;
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::invalid_argument(
          "topology nodes[" + std::to_string(i) + "]: unknown role '" +
          role->as_string() +
          "' (expected gateway, sensor, controller, actuator or relay)");
    }
    if (const Json* name = entry.find("name")) {
      if (!name->is_string() || name->as_string().empty()) {
        return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                        "] 'name' must be a non-empty string");
      }
      node.name = name->as_string();
    } else {
      node.name = "node" + std::to_string(node.id);
    }
    if (const Json* member = entry.find("vc_member")) {
      if (!member->is_bool()) {
        return Status::invalid_argument("topology nodes[" + std::to_string(i) +
                                        "] 'vc_member' must be a boolean");
      }
      node.vc_member = member->as_bool();
    }
    spec.nodes.push_back(std::move(node));
  }

  if (const Json* links = json.find("links")) {
    if (!links->is_array()) {
      return Status::invalid_argument("topology 'links' must be an array");
    }
    for (std::size_t i = 0; i < links->size(); ++i) {
      const Json& entry = links->at(i);
      if (!entry.is_object()) {
        return Status::invalid_argument("topology links[" + std::to_string(i) +
                                        "] must be an object");
      }
      if (Status s = check_keys(entry, "a b loss", "links[" + std::to_string(i) + "]");
          !s) {
        return s;
      }
      TopologyLink link;
      for (auto [key, out] : {std::pair{"a", &link.a}, std::pair{"b", &link.b}}) {
        const Json* ref = entry.find(key);
        if (ref == nullptr) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] requires field '" + key + "'");
        }
        auto node = spec.parse_node(*ref);
        if (!node) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] field '" + key +
                                          "': " + node.status().message());
        }
        *out = *node;
      }
      if (const Json* loss = entry.find("loss")) {
        if (!loss->is_number() || loss->as_double() < 0.0 ||
            loss->as_double() >= 1.0) {
          return Status::invalid_argument("topology links[" + std::to_string(i) +
                                          "] 'loss' must be in [0, 1)");
        }
        link.loss = loss->as_double();
      }
      spec.links.push_back(link);
    }
  } else {
    return Status::invalid_argument("explicit topology requires a 'links' array");
  }

  if (Status s = spec.validate(); !s) return s;
  return spec;
}

Json TopologySpec::to_json() const {
  Json root = Json::object();
  Json nodes_json = Json::array();
  for (const auto& node : nodes) {
    Json entry = Json::object();
    entry.set("id", static_cast<std::int64_t>(node.id));
    entry.set("name", node.name);
    entry.set("role", to_string(node.role));
    if (!node.vc_member) entry.set("vc_member", false);
    nodes_json.push(std::move(entry));
  }
  root.set("nodes", std::move(nodes_json));

  Json links_json = Json::array();
  for (const auto& link : links) {
    Json entry = Json::object();
    entry.set("a", node_name(link.a));
    entry.set("b", node_name(link.b));
    if (link.loss > 0.0) entry.set("loss", link.loss);
    links_json.push(std::move(entry));
  }
  root.set("links", std::move(links_json));
  return root;
}

}  // namespace evm::testbed
