// Declarative world description: the set of nodes (with Fig. 5-style roles),
// the wireless links between them, and the Virtual Component membership —
// the paper's §4 claim that EVMs survive "dramatic topology changes" made
// data instead of constructor code. A TopologySpec is what the scenario
// engine's optional "topology" JSON section parses into; TestbedBuilder
// compiles it into a running co-simulation. Generators produce the canonical
// shapes (the six-node Fig. 5 gas-plant testbed, multi-hop lines, grids,
// stars) so a 20-node failover experiment is one JSON object, no recompile.
#pragma once

#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace evm::testbed {

/// How broadcast-plane traffic (sensor stream, heartbeats, head beacons)
/// crosses multi-hop worlds. kAuto picks tree-scoped dissemination on
/// multi-hop topologies and plain single-hop broadcast on the Fig. 5 mesh;
/// kFlood forces the PR 4 deduplicated flood (the comparison baseline for
/// density sweeps); kTree forces the scoped tree. The slot plan follows the
/// mode: the tree's mirror pass only exists where the tree does.
enum class DisseminationMode : std::uint8_t { kAuto = 0, kFlood, kTree };

const char* to_string(DisseminationMode mode);

/// What a node contributes to the control loop. Relays only forward traffic
/// (they sit between sensor and controllers in multi-hop worlds).
enum class NodeRole : std::uint8_t {
  kGateway = 0,  // VC head
  kSensor,       // publishes the plant measurement stream
  kController,   // replica of the control function (priority = spec order)
  kActuator,     // drives the plant valve
  kRelay,        // pure forwarder
};

const char* to_string(NodeRole role);

struct TopologyNode {
  net::NodeId id = net::kInvalidNode;
  std::string name;  // role-table name events resolve against ("ctrl_a", ...)
  NodeRole role = NodeRole::kRelay;
  /// Part of the Virtual Component. A non-member controller exists in the
  /// world but holds no replica (the Fig. 5 testbed always builds Ctrl-C;
  /// it only joins the VC when the third controller is enabled).
  bool vc_member = true;
};

struct TopologyLink {
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  /// Independent per-frame loss probability.
  double loss = 0.0;
};

/// The hop-aware RT-Link schedule TestbedBuilder installs: slots[i] is the
/// licensed transmitter of slot i. Base slots are ordered by BFS hop count
/// from the gateway (ties by spec order), so a broadcast travelling away
/// from the gateway crosses as many downstream hops as possible within one
/// frame. On multi-hop worlds the dissemination tree's interior nodes then
/// get a second slot in *descending* hop order — the mirror pass — so
/// inward traffic (heartbeats, fault reports racing toward the head) also
/// chains across several hops inside one frame instead of paying a frame
/// per hop. Chatty nodes (sensors, the first two replicas, the gateway)
/// close the frame with one more slot each.
struct SchedulePlan {
  std::vector<net::NodeId> slots;
  util::Duration slot_length = util::Duration::millis(5);

  util::Duration frame_length() const { return slot_length * static_cast<int>(slots.size()); }
};

struct TopologySpec {
  /// Construction order is meaningful: controllers appear in replica
  /// priority order (the first vc-member controller is the initial primary).
  std::vector<TopologyNode> nodes;
  std::vector<TopologyLink> links;

  const TopologyNode* find(net::NodeId id) const;
  const TopologyNode* find_name(const std::string& name) const;
  bool has_link(net::NodeId a, net::NodeId b) const;

  net::NodeId gateway() const;
  /// The node whose local sensor feeds the published stream (first sensor).
  net::NodeId primary_sensor() const;
  /// The node that drives the plant valve (first actuator).
  net::NodeId primary_actuator() const;

  std::vector<net::NodeId> node_ids() const;          // spec order
  std::vector<net::NodeId> members() const;           // vc_member, spec order
  std::vector<net::NodeId> controllers() const;       // all, spec order
  std::vector<net::NodeId> replica_order() const;     // vc_member controllers
  std::vector<net::NodeId> relays() const;
  /// Nodes the broadcast plane must reach: every non-relay role (gateway,
  /// sensors, controllers, actuators). The dissemination tree is pruned to
  /// these; pure relays only join it when they sit on a shortest path.
  std::vector<net::NodeId> dissemination_targets() const;

  /// Role-table name of `id`; "node<id>" for unknown ids (diagnostics only).
  std::string node_name(net::NodeId id) const;
  /// Resolve a node reference (a role-table name or a numeric id).
  util::Result<net::NodeId> parse_node(const util::Json& ref) const;

  /// Longest shortest-path hop count between any node pair; -1 when the
  /// graph is disconnected. 1 on the Fig. 5 full mesh. An all-pairs BFS,
  /// O(N * (N + E)), so no build or run calls it: they ask multi_hop()
  /// instead. Tests and perfbench's testbed.diameter span still do.
  int diameter() const;
  /// diameter() > 1 in O(N + E): connected, but not every node links to
  /// every other. False on a disconnected spec, as diameter() is -1 there.
  bool multi_hop() const;
  /// True when removing `id` disconnects the remaining nodes. Permanently
  /// crashing a cut vertex partitions the VC — outside the fault model, so
  /// the fuzz generator always schedules a restart for these.
  bool is_cut_vertex(net::NodeId id) const;

  /// Structural checks: unique ids/names, exactly one gateway, at least one
  /// sensor / actuator / vc-member controller, well-formed connected links.
  util::Status validate() const;

  /// Compile the static link set into the runtime net::Topology.
  net::Topology to_topology() const;

  /// Parse either an explicit {"nodes": [...], "links": [...]} document or
  /// a generator shorthand {"generator": "line" | "grid" | "star" | "fig5",
  /// ...params}. A key the generator (or the node / link entry) does not
  /// take is an error. to_json always emits the explicit form (full
  /// provenance in campaign reports; re-parses to an identical spec).
  static util::Result<TopologySpec> from_json(const util::Json& json);
  util::Json to_json() const;
};

/// Build the RT-Link slot plan for `topo` under `mode`. The mirror pass of
/// second slots for the dissemination tree's interior only exists when the
/// tree does (multi-hop worlds not forced back to flooding), so a
/// flood-forced world keeps the exact PR 4 frame and its schedule
/// feasibility.
SchedulePlan plan_schedule(const TopologySpec& topo,
                           DisseminationMode mode = DisseminationMode::kAuto);

/// Node ids of the Fig. 5 world (mirroring the paper's labels).
struct TestbedIds {
  static constexpr net::NodeId kGateway = 1;  // VC head
  static constexpr net::NodeId kSensor = 2;   // S1: LTS liquid level
  static constexpr net::NodeId kCtrlA = 3;    // primary controller
  static constexpr net::NodeId kCtrlB = 4;    // backup controller
  static constexpr net::NodeId kCtrlC = 5;    // optional second backup
  static constexpr net::NodeId kActuator = 6; // A1: LTS drain valve
};

/// The paper's Fig. 5 six-node testbed: gateway, sensor, three controllers
/// (Ctrl-C built but outside the VC unless `third_controller`), actuator,
/// full wireless mesh with `link_loss` on every link. This is the world of
/// a default GasPlantTestbedConfig and of scenarios without a "topology"
/// section.
TopologySpec default_fig5_topology(bool third_controller = false,
                                   double link_loss = 0.0);
/// Chain: gateway - sensor - relays... - controllers - actuator. Requires
/// nodes >= controllers + 3.
TopologySpec line_topology(std::size_t nodes, std::size_t controllers = 2,
                           double link_loss = 0.0);
/// width x height 4-neighbour grid: gateway top-left, sensor top-right,
/// actuator bottom-right, controllers at the centre, relays elsewhere.
TopologySpec grid_topology(std::size_t width, std::size_t height,
                           std::size_t controllers = 2, double link_loss = 0.0);
/// Star centred on the gateway: sensor, controllers and actuator are leaves
/// (remaining leaves are relays).
TopologySpec star_topology(std::size_t nodes, std::size_t controllers = 2,
                           double link_loss = 0.0);

}  // namespace evm::testbed
