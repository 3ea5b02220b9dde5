// Minimal network layer: static shortest-path forwarding over the current
// topology, recomputed on demand. EVM messages (task migration, health
// assessment) ride on this so multi-hop virtual components work; the paper's
// six-node HIL setup is single-hop through the gateway but E5 sweeps 1-5
// hops. Broadcasts are one-hop by default; multi-hop worlds built from a
// TopologySpec enable either deduplicated flooding or — the
// scaled mode — tree-scoped dissemination, where only the interior nodes of
// the gateway-rooted spanning tree (pruned to the replica set) re-broadcast,
// so multicast cost follows the tree size instead of the node count.
//
// Datagrams additionally carry a piggy-backed head-beacon tag (head id +
// beacon sequence) that gossips VC-head liveness over whatever data-plane
// traffic is flowing, reclaiming the explicit once-per-second beacon flood.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/dissemination.hpp"
#include "net/mac.hpp"
#include "net/topology.hpp"
#include "obs/trace_recorder.hpp"
#include "util/bytes.hpp"

namespace evm::net {

/// Packet.type value used by routed datagrams at the link layer.
inline constexpr std::uint8_t kRoutedPacketType = 0x52;  // 'R'

/// Hop budget every datagram starts with. Deduplication ends broadcast
/// loops, so the TTL only bounds a unicast in a transient routing loop and
/// needs no per-world sizing. 255 hops exceed every shipped and fuzzed
/// world's diameter (the 1000-node grid spans 63); a longer shortest path
/// (a line of over 256 nodes) would stop relaying at hop 255.
inline constexpr std::uint8_t kMaxTtl = 255;

/// Piggy-backed head-beacon gossip: the freshest VC-head liveness proof this
/// frame's sender knows. `head == kInvalidNode` means untagged. The sequence
/// only moves when the head itself beats, so stale tags circulating through
/// laggard nodes never refresh anybody's liveness clock.
struct BeaconTag {
  NodeId head = kInvalidNode;
  std::uint16_t seq = 0;

  bool valid() const { return head != kInvalidNode; }
};

struct Datagram {
  NodeId source = kInvalidNode;
  NodeId destination = kBroadcast;
  std::uint8_t type = 0;  // upper-layer (EVM) message class
  std::uint8_t ttl = kMaxTtl;
  /// Originator-assigned sequence number; (source, seq) deduplicates
  /// flooded broadcasts arriving over multiple paths.
  std::uint16_t seq = 0;
  /// This frame exists only to carry the beacon tag (an explicit head
  /// beacon). Relays forward it per-link lazily: a relay whose own tagged
  /// data-plane sends were NOT silent since the previous probe drops it —
  /// its data frames already delivered the tag to every neighbour.
  bool beacon_probe = false;
  /// Head-beacon piggy-back (stamped by the router from its latest tag).
  BeaconTag beacon;
  std::vector<std::uint8_t> payload;
};

class Router {
 public:
  /// How broadcasts cross multi-hop worlds.
  enum class BroadcastMode : std::uint8_t {
    kSingleHop,  // Fig. 5 full mesh: one transmission reaches everyone
    kFlood,      // every node re-broadcasts once (TTL-bounded, deduplicated)
    kTree,       // only dissemination-tree interior nodes re-broadcast
  };

  Router(Mac& mac, Topology& topology);

  NodeId id() const { return mac_.id(); }

  /// Send a datagram toward `destination` (multi-hop unicast or a
  /// broadcast). Fails fast when no route exists.
  util::Status send(NodeId destination, std::uint8_t type,
                    std::vector<std::uint8_t> payload);
  /// Broadcast an explicit beacon probe: a frame whose only job is carrying
  /// the beacon tag. Relays with recent tagged data-plane traffic suppress
  /// its re-broadcast (see Datagram::beacon_probe).
  util::Status send_beacon(std::uint8_t type, std::vector<std::uint8_t> payload);

  void set_receive_handler(std::function<void(const Datagram&)> handler) {
    receive_handler_ = std::move(handler);
  }

  /// Re-broadcast incoming broadcasts (once per (source, seq), while TTL
  /// lasts) so they cross relays. Off by default: the Fig. 5 full mesh is
  /// single-hop and flooding there would only burn slots and energy.
  void enable_flooding() { mode_ = BroadcastMode::kFlood; }
  bool flooding() const { return mode_ == BroadcastMode::kFlood; }
  /// Scoped dissemination: re-broadcast only when this node is an interior
  /// node of the shared tree (`cache` must outlive the router). Unicasts
  /// addressed to the tree root also climb the parent chain instead of an
  /// arbitrary shortest path: every parent on the chain is a tree forwarder
  /// and owns a mirror-pass TX slot, so a root-bound datagram (fault report,
  /// any head-addressed command reply) chains inward within one RT-Link
  /// frame instead of paying one frame per hop through out-of-tree relays.
  /// Shortest-path routing still serves every other destination, and any
  /// node off the tree.
  void enable_tree_dissemination(const DisseminationTreeCache* cache) {
    mode_ = BroadcastMode::kTree;
    tree_cache_ = cache;
  }
  BroadcastMode broadcast_mode() const { return mode_; }
  /// True when this node takes part in the broadcast dissemination
  /// structure (always, except for nodes outside the tree in kTree mode).
  /// Out-of-tree pure relays neither receive the beacon plane reliably nor
  /// hold replicas, so head-liveness supervision skips them.
  bool participates_in_dissemination() const;

  /// Install the freshest head-beacon tag; stamped onto every datagram this
  /// router subsequently originates or relays (data-plane piggy-backing).
  void set_beacon_tag(BeaconTag tag) { beacon_tag_ = tag; }
  const BeaconTag& beacon_tag() const { return beacon_tag_; }
  /// Fires for every received routed frame carrying a tag — before dedup,
  /// because liveness gossip must not depend on which copy won the race.
  void set_beacon_observer(std::function<void(const BeaconTag&)> observer) {
    beacon_observer_ = std::move(observer);
  }

  std::size_t forwarded_count() const { return forwarded_; }
  /// Broadcast datagrams this node originated.
  std::size_t broadcasts_originated() const { return broadcasts_originated_; }
  /// Broadcast re-transmissions this node performed as a flood/tree relay.
  /// Summed across nodes (plus originations) this is the per-run slot cost
  /// of the broadcast plane.
  std::size_t broadcast_relays() const { return broadcast_relays_; }
  /// Broadcast transmissions that carried a beacon tag (the piggy-back
  /// channel the head watches to decide whether an explicit beacon is due).
  std::size_t tagged_broadcast_sends() const { return tagged_broadcast_sends_; }
  /// Beacon-probe relays this node skipped because its own tagged data
  /// frames already covered the link since the previous probe — reclaimed
  /// RT-Link slots.
  std::size_t beacon_relays_suppressed() const { return beacon_relays_suppressed_; }

  /// Opt-in event tracing (nullptr disables): "bcast.origin" and
  /// "bcast.relay" instants on this node's track. `sim` supplies the
  /// timestamps (the router holds no simulator reference of its own).
  /// Recording never perturbs routing decisions.
  void set_trace(obs::TraceRecorder* trace, sim::Simulator* sim) {
    trace_ = trace;
    trace_sim_ = sim;
  }

  static std::vector<std::uint8_t> encode(const Datagram& d);
  static bool decode(std::span<const std::uint8_t> bytes, Datagram& out);

 private:
  void on_packet(const Packet& packet);
  util::Status forward(Datagram d);
  /// Record (source, seq); false when it was already seen recently.
  bool remember(NodeId source, std::uint16_t seq);
  bool should_relay_broadcast() const;

  Mac& mac_;
  Topology& topology_;
  obs::TraceRecorder* trace_ = nullptr;
  sim::Simulator* trace_sim_ = nullptr;
  std::function<void(const Datagram&)> receive_handler_;
  std::function<void(const BeaconTag&)> beacon_observer_;
  std::size_t forwarded_ = 0;
  std::size_t broadcasts_originated_ = 0;
  std::size_t broadcast_relays_ = 0;
  std::size_t tagged_broadcast_sends_ = 0;
  std::size_t beacon_relays_suppressed_ = 0;
  /// Snapshot of tagged_broadcast_sends_ after the last beacon probe this
  /// node relayed (or suppressed); unchanged counter = silent link.
  std::size_t tagged_sends_at_last_probe_ = 0;
  BroadcastMode mode_ = BroadcastMode::kSingleHop;
  const DisseminationTreeCache* tree_cache_ = nullptr;
  BeaconTag beacon_tag_;
  std::uint16_t next_seq_ = 0;
  /// The last kSize broadcast seqs accepted from one source, in a fixed
  /// ring: a lookup scans one contiguous block, and once full each new seq
  /// overwrites the oldest. Bounds memory; deep enough that a flooded copy
  /// still in flight cannot out-live its entry at any realistic fan-out (a
  /// 20-node grid re-broadcasts each seq at most once per node).
  struct SeenWindow {
    static constexpr std::size_t kSize = 64;
    std::array<std::uint16_t, kSize> seqs{};
    std::uint8_t count = 0;  // filled entries, up to kSize
    std::uint8_t next = 0;   // slot the next accepted seq overwrites

    bool contains(std::uint16_t seq) const;
    void insert(std::uint16_t seq);
  };
  /// Recently seen broadcast seqs per source (bounded sliding window).
  std::map<NodeId, SeenWindow> seen_;
};

}  // namespace evm::net
