// The declarative topology layer: generators produce the shapes they claim
// (node/link counts, role placement, VC membership), the hop-aware schedule
// plan covers every node and stays feasible, JSON round-trips are stable,
// and validation rejects malformed worlds.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "net/dissemination.hpp"
#include "testbed/topology_spec.hpp"

namespace evm::testbed {
namespace {

util::Json parse_json(const std::string& text) {
  auto json = util::Json::parse(text);
  EXPECT_TRUE(json.ok()) << json.status().to_string();
  return *json;
}

// --- Reference analysis ----------------------------------------------------
// The straightforward all-pairs BFS over ordered maps that TopologySpec's
// dense-graph analysis must agree with: hop counts from every node, -1 for a
// disconnected spec, and the slot plan derived from those hop counts.

using HopMap = std::map<net::NodeId, int>;
using Adjacency = std::map<net::NodeId, std::set<net::NodeId>>;

Adjacency reference_adjacency(const TopologySpec& spec) {
  Adjacency adj;
  for (const auto& node : spec.nodes) adj[node.id];
  for (const auto& link : spec.links) {
    adj[link.a].insert(link.b);
    adj[link.b].insert(link.a);
  }
  return adj;
}

HopMap reference_hops(const Adjacency& adj, net::NodeId source) {
  HopMap dist;
  if (adj.count(source) == 0) return dist;
  dist[source] = 0;
  std::deque<net::NodeId> frontier{source};
  while (!frontier.empty()) {
    const net::NodeId cur = frontier.front();
    frontier.pop_front();
    for (net::NodeId n : adj.at(cur)) {
      if (dist.emplace(n, dist[cur] + 1).second) frontier.push_back(n);
    }
  }
  return dist;
}

int reference_diameter(const TopologySpec& spec) {
  const Adjacency adj = reference_adjacency(spec);
  int diameter = 0;
  for (const auto& node : spec.nodes) {
    const HopMap dist = reference_hops(adj, node.id);
    if (dist.size() != spec.nodes.size()) return -1;
    for (const auto& [id, hops] : dist) diameter = std::max(diameter, hops);
  }
  return diameter;
}

std::vector<net::NodeId> reference_slots(const TopologySpec& spec, int diameter,
                                         DisseminationMode mode) {
  const HopMap hops = reference_hops(reference_adjacency(spec), spec.gateway());
  auto hop = [&](net::NodeId id) {
    const auto it = hops.find(id);
    return it == hops.end() ? 1 << 20 : it->second;
  };
  std::vector<net::NodeId> order = spec.node_ids();
  std::stable_sort(order.begin(), order.end(),
                   [&](net::NodeId a, net::NodeId b) { return hop(a) < hop(b); });
  std::vector<net::NodeId> slots = order;
  if (diameter > 1 && mode != DisseminationMode::kFlood) {
    const net::DisseminationTree tree = net::DisseminationTree::compute(
        spec.to_topology(), spec.gateway(), spec.dissemination_targets());
    std::vector<net::NodeId> interior;
    for (net::NodeId id : order) {
      if (tree.forwards(id)) interior.push_back(id);
    }
    slots.insert(slots.end(), interior.rbegin(), interior.rend());
  }
  for (const auto& node : spec.nodes) {
    if (node.role == NodeRole::kSensor) slots.push_back(node.id);
  }
  const auto replicas = spec.replica_order();
  for (std::size_t i = 0; i < replicas.size() && i < 2; ++i) {
    slots.push_back(replicas[i]);
  }
  slots.push_back(spec.gateway());
  return slots;
}

void expect_matches_reference(const TopologySpec& spec, const std::string& what) {
  SCOPED_TRACE(what);
  const int diameter = reference_diameter(spec);
  EXPECT_EQ(spec.diameter(), diameter);
  EXPECT_EQ(spec.multi_hop(), diameter > 1);
  const util::Status valid = spec.validate();
  if (diameter < 0) {
    EXPECT_EQ(valid.message(), "topology is disconnected");
  } else {
    EXPECT_TRUE(valid) << valid.to_string();
  }
  for (DisseminationMode mode : {DisseminationMode::kAuto, DisseminationMode::kFlood}) {
    EXPECT_EQ(plan_schedule(spec, mode).slots, reference_slots(spec, diameter, mode))
        << to_string(mode);
  }
}

TEST(TopologySpecFig5, MatchesThePaperTestbed) {
  const TopologySpec spec = default_fig5_topology();
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 6u);
  EXPECT_EQ(spec.gateway(), 1);
  EXPECT_EQ(spec.primary_sensor(), 2);
  EXPECT_EQ(spec.primary_actuator(), 6);
  EXPECT_EQ(spec.node_name(3), "ctrl_a");
  EXPECT_EQ(spec.node_name(5), "ctrl_c");
  // Full mesh over six nodes: 15 links, single-hop.
  EXPECT_EQ(spec.links.size(), 15u);
  EXPECT_EQ(spec.diameter(), 1);
  EXPECT_FALSE(spec.multi_hop());
  // Ctrl-C exists but is outside the VC until the third controller is on.
  EXPECT_EQ(spec.controllers(), (std::vector<net::NodeId>{3, 4, 5}));
  EXPECT_EQ(spec.replica_order(), (std::vector<net::NodeId>{3, 4}));
  EXPECT_EQ(spec.members(), (std::vector<net::NodeId>{1, 2, 3, 4, 6}));

  const TopologySpec third = default_fig5_topology(true);
  EXPECT_EQ(third.replica_order(), (std::vector<net::NodeId>{3, 4, 5}));
  EXPECT_EQ(third.members(), (std::vector<net::NodeId>{1, 2, 3, 4, 5, 6}));
}

TEST(TopologySpecGenerators, LineChainsRolesWithRelaysBetween) {
  const TopologySpec spec = line_topology(8);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 8u);
  EXPECT_EQ(spec.links.size(), 7u);
  EXPECT_EQ(spec.diameter(), 7);
  EXPECT_TRUE(spec.multi_hop());
  EXPECT_EQ(spec.relays().size(), 3u);
  // Chain order: gateway, sensor, relays, controllers, actuator — the
  // relays sit between sensor and controllers by construction.
  EXPECT_EQ(spec.nodes[0].role, NodeRole::kGateway);
  EXPECT_EQ(spec.nodes[1].role, NodeRole::kSensor);
  EXPECT_EQ(spec.nodes[2].name, "relay_1");
  EXPECT_EQ(spec.nodes[5].name, "ctrl_a");
  EXPECT_EQ(spec.nodes[7].role, NodeRole::kActuator);
  // Interior chain nodes are cut vertices; the ends are not.
  EXPECT_TRUE(spec.is_cut_vertex(spec.nodes[3].id));
  EXPECT_TRUE(spec.is_cut_vertex(spec.nodes[5].id));
  EXPECT_FALSE(spec.is_cut_vertex(spec.nodes[0].id));
  EXPECT_FALSE(default_fig5_topology().is_cut_vertex(3));
}

TEST(TopologySpecGenerators, GridPlacesRolesAndStaysConnected) {
  const TopologySpec spec = grid_topology(5, 4);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 20u);
  // 4-neighbour lattice: 4*(5-1) horizontal rows... h*(w-1) + w*(h-1).
  EXPECT_EQ(spec.links.size(), 4u * 4u + 5u * 3u);
  EXPECT_EQ(spec.replica_order().size(), 2u);
  EXPECT_EQ(spec.relays().size(), 20u - 5u);
  EXPECT_TRUE(spec.multi_hop());
  EXPECT_EQ(spec.nodes.front().role, NodeRole::kGateway);
  EXPECT_EQ(spec.nodes[4].role, NodeRole::kSensor);       // top-right
  EXPECT_EQ(spec.nodes.back().role, NodeRole::kActuator); // bottom-right
}

TEST(TopologySpecGenerators, StarHangsLeavesOffTheGateway) {
  const TopologySpec spec = star_topology(7);
  ASSERT_TRUE(spec.validate()) << spec.validate().to_string();
  ASSERT_EQ(spec.nodes.size(), 7u);
  EXPECT_EQ(spec.links.size(), 6u);
  EXPECT_EQ(spec.diameter(), 2);
  for (const auto& link : spec.links) {
    EXPECT_TRUE(link.a == spec.gateway() || link.b == spec.gateway());
  }
}

TEST(TopologySpecSchedule, PlanIsHopOrderedCoversAllAndReproducesFig5) {
  // Fig. 5: the historic 10-slot frame — one slot per node in id order,
  // then extra slots for sensor, ctrl_a, ctrl_b and the gateway.
  const SchedulePlan fig5 = plan_schedule(default_fig5_topology());
  EXPECT_EQ(fig5.slots,
            (std::vector<net::NodeId>{1, 2, 3, 4, 5, 6, 2, 3, 4, 1}));
  EXPECT_EQ(fig5.frame_length(), util::Duration::millis(50));

  // Line: base slots follow the chain (hop order from the gateway), so a
  // broadcast travelling away from the gateway crosses every hop inside one
  // frame; then the dissemination tree's interior nodes mirror back in
  // descending hop order, so inward traffic (fault reports racing to the
  // head) chains across hops inside the same frame too.
  const TopologySpec line = line_topology(8);
  const SchedulePlan plan = plan_schedule(line);
  // 8 base + 6 interior mirror slots + sensor + two replicas + gateway.
  ASSERT_EQ(plan.slots.size(), 8u + 6u + 4u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.slots[i], line.nodes[i].id) << "slot " << i;
  }
  // Mirror pass: interior chain nodes (everyone but the two ends), deepest
  // first.
  const std::vector<net::NodeId> mirror(plan.slots.begin() + 8,
                                        plan.slots.begin() + 14);
  EXPECT_EQ(mirror, (std::vector<net::NodeId>{7, 6, 5, 4, 3, 2}));
  // Every node owns at least one slot (schedule feasibility).
  std::set<net::NodeId> owners(plan.slots.begin(), plan.slots.end());
  for (const auto& node : line.nodes) EXPECT_TRUE(owners.count(node.id));

  // Forcing the flood back on restores the exact PR 4 frame: no mirror
  // pass, 8 base + 4 chatty slots.
  const SchedulePlan flood = plan_schedule(line, DisseminationMode::kFlood);
  ASSERT_EQ(flood.slots.size(), 8u + 4u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(flood.slots[i], line.nodes[i].id) << "slot " << i;
  }
}

TEST(TopologySpecJson, ExplicitFormRoundTripsByteExactly) {
  for (const TopologySpec& spec :
       {default_fig5_topology(true, 0.05), line_topology(9, 3, 0.01),
        grid_topology(4, 3), star_topology(6)}) {
    auto reparsed = TopologySpec::from_json(spec.to_json());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed->to_json().dump(), spec.to_json().dump());
  }
}

TEST(TopologySpecJson, GeneratorShorthandExpands) {
  auto grid = TopologySpec::from_json(parse_json(
      R"({"generator": "grid", "width": 5, "height": 4, "link_loss": 0.02})"));
  ASSERT_TRUE(grid.ok()) << grid.status().to_string();
  EXPECT_EQ(grid->nodes.size(), 20u);
  EXPECT_DOUBLE_EQ(grid->links.front().loss, 0.02);

  auto line = TopologySpec::from_json(
      parse_json(R"({"generator": "line", "nodes": 7, "controllers": 3})"));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->replica_order().size(), 3u);

  auto fig5 = TopologySpec::from_json(
      parse_json(R"({"generator": "fig5", "third_controller": true})"));
  ASSERT_TRUE(fig5.ok());
  EXPECT_EQ(fig5->replica_order().size(), 3u);

  // The expansion itself re-parses identically (provenance in reports).
  auto reparsed = TopologySpec::from_json(grid->to_json());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->to_json().dump(), grid->to_json().dump());
}

TEST(TopologySpecJson, ExplicitNodesAndLinksParse) {
  auto spec = TopologySpec::from_json(parse_json(R"({
    "nodes": [
      {"id": 1, "name": "gw", "role": "gateway"},
      {"id": 2, "name": "s", "role": "sensor"},
      {"id": 3, "name": "c1", "role": "controller"},
      {"id": 4, "name": "c2", "role": "controller", "vc_member": false},
      {"id": 5, "name": "a", "role": "actuator"}
    ],
    "links": [
      {"a": "gw", "b": "s"},
      {"a": "s", "b": "c1", "loss": 0.1},
      {"a": "c1", "b": 4},
      {"a": 4, "b": "a"}
    ]
  })"));
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->replica_order(), (std::vector<net::NodeId>{3}));
  EXPECT_TRUE(spec->has_link(2, 3));
  EXPECT_FALSE(spec->has_link(1, 5));
  EXPECT_DOUBLE_EQ(spec->links[1].loss, 0.1);
  EXPECT_EQ(spec->diameter(), 4);
}

TEST(TopologySpecValidation, RejectsMalformedWorlds) {
  const char* bad[] = {
      // no gateway
      R"({"nodes": [{"id": 1, "role": "sensor"}, {"id": 2, "role": "controller"},
          {"id": 3, "role": "actuator"}], "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]})",
      // two gateways
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "gateway"},
          {"id": 3, "role": "sensor"}, {"id": 4, "role": "controller"},
          {"id": 5, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}, {"a": 4, "b": 5}]})",
      // duplicate id
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 1, "role": "sensor"}],
          "links": []})",
      // duplicate name
      R"({"nodes": [{"id": 1, "name": "x", "role": "gateway"},
          {"id": 2, "name": "x", "role": "sensor"}], "links": [{"a": 1, "b": 2}]})",
      // unknown role
      R"({"nodes": [{"id": 1, "role": "router"}], "links": []})",
      // disconnected
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}]})",
      // self-link
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 1}]})",
      // duplicate link
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 1}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // loss out of range
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2, "loss": 1.5}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // no vc-member controller
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller", "vc_member": false},
          {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // non-member sensor (essential roles must be in the VC)
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor", "vc_member": false},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      // grid too small for its roles
      R"({"generator": "grid", "width": 2, "height": 2, "controllers": 2})",
      // unknown generator
      R"({"generator": "torus", "nodes": 9})",
      // fractional counts and ids must not truncate to a different world
      R"({"generator": "line", "nodes": 8.7})",
      R"({"generator": "star", "nodes": 8, "controllers": 2.5})",
      R"({"generator": "grid", "width": 4.5, "height": 3})",
      R"({"generator": "grid", "width": 4, "height": 3.2})",
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2.5, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]})",
      R"({"nodes": [{"id": 1, "role": "gateway"}, {"id": 2, "role": "sensor"},
          {"id": 3, "role": "controller"}, {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3.7}, {"a": 3, "b": 4}]})",
  };
  for (const char* text : bad) {
    auto spec = TopologySpec::from_json(parse_json(text));
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
  }
}

TEST(TopologySpecReference, GeneratorsMatchTheAllPairsReference) {
  expect_matches_reference(default_fig5_topology(), "fig5");
  expect_matches_reference(default_fig5_topology(true, 0.05), "fig5 third");
  expect_matches_reference(line_topology(8), "line 8");
  expect_matches_reference(line_topology(12, 3), "line 12");
  expect_matches_reference(grid_topology(5, 4), "grid 5x4");
  expect_matches_reference(grid_topology(7, 3, 3), "grid 7x3");
  expect_matches_reference(star_topology(7), "star 7");
  expect_matches_reference(star_topology(3, 1), "star 3");
}

TEST(TopologySpecReference, ScaleSweep1000GridMatchesTheReference) {
  // scenarios/scale_sweep_1000.json: {"generator": "grid", "width": 40,
  // "height": 25, "controllers": 2}.
  const TopologySpec grid = grid_topology(40, 25, 2);
  ASSERT_EQ(grid.nodes.size(), 1000u);
  expect_matches_reference(grid, "grid 40x25");
  EXPECT_EQ(grid.diameter(), 39 + 24);
}

TEST(TopologySpecReference, CutVerticesMatchTheReference) {
  for (const TopologySpec& spec :
       {default_fig5_topology(), line_topology(8), grid_topology(5, 4),
        star_topology(7)}) {
    for (const auto& node : spec.nodes) {
      TopologySpec without = spec;
      without.nodes.erase(std::find_if(
          without.nodes.begin(), without.nodes.end(),
          [&](const TopologyNode& n) { return n.id == node.id; }));
      std::erase_if(without.links, [&](const TopologyLink& l) {
        return l.a == node.id || l.b == node.id;
      });
      EXPECT_EQ(spec.is_cut_vertex(node.id), reference_diameter(without) < 0)
          << node.name;
    }
  }
}

TEST(TopologySpecReference, DisconnectedSpecIsNotMultiHop) {
  // Two islands: gateway-sensor and controller-actuator.
  TopologySpec spec = line_topology(4, 1);
  spec.links.erase(spec.links.begin() + 1);
  expect_matches_reference(spec, "two islands");
  EXPECT_EQ(spec.diameter(), -1);
  EXPECT_FALSE(spec.multi_hop());
  EXPECT_EQ(spec.validate().message(), "topology is disconnected");

  // A full mesh over all but one isolated node: every linked pair is one
  // hop apart, yet the spec is disconnected, so still not multi-hop.
  TopologySpec mesh = default_fig5_topology();
  mesh.nodes.push_back({7, "island", NodeRole::kRelay, true});
  expect_matches_reference(mesh, "mesh plus island");
  EXPECT_FALSE(mesh.multi_hop());
}

TEST(TopologySpecReference, MalformedLinksKeepTheirErrors) {
  TopologySpec duplicate = line_topology(5);
  duplicate.links.push_back({duplicate.links[1].b, duplicate.links[1].a, 0.0});
  EXPECT_EQ(duplicate.validate().message(),
            "duplicate link " + std::to_string(duplicate.links[1].b) + "-" +
                std::to_string(duplicate.links[1].a));
  // A duplicated link adds no hop: the analysis still sees the chain.
  EXPECT_EQ(duplicate.diameter(), reference_diameter(duplicate));
  EXPECT_TRUE(duplicate.multi_hop());

  // A fully meshed spec whose every link is listed twice stays single-hop.
  TopologySpec doubled = default_fig5_topology();
  const std::vector<TopologyLink> links = doubled.links;
  doubled.links.insert(doubled.links.end(), links.begin(), links.end());
  EXPECT_EQ(doubled.diameter(), 1);
  EXPECT_FALSE(doubled.multi_hop());

  TopologySpec unknown = line_topology(5);
  unknown.links.push_back({unknown.nodes[2].id, 99, 0.0});
  EXPECT_EQ(unknown.validate().message(), "link references unknown node 99");
  unknown.links.back() = {98, unknown.nodes[2].id, 0.0};
  EXPECT_EQ(unknown.validate().message(), "link references unknown node 98");

  TopologySpec self = line_topology(5);
  self.links.push_back({3, 3, 0.0});
  EXPECT_EQ(self.validate().message(), "link endpoints must differ (node 3)");
}

TEST(TopologySpecValidation, ParseNodeResolvesNamesAndIds) {
  const TopologySpec spec = line_topology(8);
  auto by_name = spec.parse_node(util::Json("relay_2"));
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, spec.nodes[3].id);
  auto by_id = spec.parse_node(util::Json(static_cast<std::int64_t>(1)));
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(*by_id, spec.gateway());
  EXPECT_FALSE(spec.parse_node(util::Json("ctrl_c")).ok());  // only 2 ctrls
  EXPECT_FALSE(spec.parse_node(util::Json(static_cast<std::int64_t>(99))).ok());
  // A fractional id names no node; it does not truncate to node 3.
  ASSERT_TRUE(spec.parse_node(util::Json(3.0)).ok());
  const auto fraction = spec.parse_node(util::Json(3.7));
  ASSERT_FALSE(fraction.ok());
  EXPECT_NE(fraction.status().message().find("not an integer"), std::string::npos);
}

}  // namespace
}  // namespace evm::testbed
