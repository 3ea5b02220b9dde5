#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/dissemination.hpp"
#include "net/medium.hpp"
#include "net/routing.hpp"
#include "net/rtlink.hpp"

namespace evm::net {
namespace {

struct RoutingFixture : ::testing::Test {
  sim::Simulator sim{5};
  Topology topo = Topology::line({1, 2, 3, 4, 5});
  Medium medium{sim, topo};
  RtLinkSchedule schedule{10, util::Duration::millis(5)};
  TimeSync sync{sim, {}};

  struct Stack {
    NodeClock clock;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RtLink> mac;
    std::unique_ptr<Router> router;
  };
  std::map<NodeId, Stack> stacks;

  Router& make_node(NodeId id) {
    auto& s = stacks[id];
    s.radio = std::make_unique<Radio>(sim, medium, id);
    s.mac = std::make_unique<RtLink>(sim, *s.radio, s.clock, schedule);
    s.router = std::make_unique<Router>(*s.mac, topo);
    sync.attach(id, s.clock);
    schedule.assign_tx(static_cast<int>(id) - 1, id);
    return *s.router;
  }

  void start_all() {
    sync.start();
    for (auto& [id, s] : stacks) {
      (void)id;
      s.mac->start();
    }
  }
  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

/// A MAC with no air: the test hands it frames as if they had arrived, and
/// drains what it queued by hand.
class LoopbackMac : public Mac {
 public:
  using Mac::Mac;
  using Mac::dequeue;
  void start() override {}
  void stop() override {}
  void arrive(const Packet& packet) { deliver_up(packet); }
};

/// A lone router fed broadcast datagrams directly; counts the ones it
/// passes up (the ones its dedup window accepts).
struct DedupFixture : ::testing::Test {
  sim::Simulator sim{1};
  Topology topo;
  Medium medium{sim, topo};
  Radio radio{sim, medium, 1};
  LoopbackMac mac{sim, radio};
  Router router{mac, topo};
  int accepted = 0;

  DedupFixture() {
    router.set_receive_handler([this](const Datagram&) { ++accepted; });
  }
  /// True when the router passed (source, seq) up.
  bool offer(NodeId source, std::uint16_t seq) {
    Datagram d;
    d.source = source;
    d.seq = seq;
    Packet p;
    p.src = source == 1 ? 2 : source;  // the link-layer hop is never us
    p.type = kRoutedPacketType;
    p.payload = Router::encode(d);
    const int before = accepted;
    mac.arrive(p);
    return accepted > before;
  }
};

TEST_F(DedupFixture, SixtyFifthSeqEvictsTheOldest) {
  for (std::uint16_t seq = 100; seq < 164; ++seq) ASSERT_TRUE(offer(7, seq));
  for (std::uint16_t seq = 100; seq < 164; ++seq) EXPECT_FALSE(offer(7, seq)) << seq;
  ASSERT_TRUE(offer(7, 164));   // 65th distinct seq: 100 falls out
  EXPECT_TRUE(offer(7, 100));   // ...so it is new again, and evicts 101
  EXPECT_TRUE(offer(7, 101));
  EXPECT_FALSE(offer(7, 164));
  for (std::uint16_t seq = 103; seq < 164; ++seq) EXPECT_FALSE(offer(7, seq)) << seq;
  EXPECT_TRUE(offer(7, 102));  // evicted by 101
}

TEST_F(DedupFixture, WindowIsPerSource) {
  ASSERT_TRUE(offer(7, 5));
  EXPECT_TRUE(offer(8, 5));
  EXPECT_FALSE(offer(7, 5));
  EXPECT_FALSE(offer(8, 5));
  // Filling source 8's window leaves source 7's alone.
  for (std::uint16_t seq = 1000; seq < 1100; ++seq) ASSERT_TRUE(offer(8, seq));
  EXPECT_FALSE(offer(7, 5));
  EXPECT_TRUE(offer(8, 5));
}

TEST_F(DedupFixture, SeqWrapAndHighSourceIds) {
  // Dedup is on equality, not order: 65535 and 0 are simply two seqs.
  for (const NodeId source : {NodeId{0}, NodeId{0xFFFD}, NodeId{0xFFFE}}) {
    EXPECT_TRUE(offer(source, 65534)) << source;
    EXPECT_TRUE(offer(source, 65535)) << source;
    EXPECT_TRUE(offer(source, 0)) << source;
    EXPECT_TRUE(offer(source, 1)) << source;
    EXPECT_FALSE(offer(source, 65535)) << source;
    EXPECT_FALSE(offer(source, 0)) << source;
  }
  // A window holding a run across the wrap still evicts in arrival order.
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(offer(0x8000, static_cast<std::uint16_t>(65500 + i)));  // ..65535, 0..27
  }
  EXPECT_FALSE(offer(0x8000, 0));
  EXPECT_FALSE(offer(0x8000, 27));
  EXPECT_TRUE(offer(0x8000, 28));     // evicts 65500
  EXPECT_TRUE(offer(0x8000, 65500));  // evicts 65501
  EXPECT_TRUE(offer(0x8000, 65501));
  EXPECT_FALSE(offer(0x8000, 65535));
}

Packet frame(NodeId dst, std::uint8_t type) {
  Packet p;
  p.dst = dst;
  p.type = type;
  return p;
}

/// Packet types in the order the MAC hands them to the air.
std::vector<std::uint8_t> drain(LoopbackMac& mac) {
  std::vector<std::uint8_t> order;
  while (auto p = mac.dequeue()) order.push_back(p->type);
  return order;
}

TEST(Mac, UnicastPriorityLaneDrainsAheadOfBroadcasts) {
  sim::Simulator sim{1};
  Topology topo;
  Medium medium{sim, topo};
  Radio radio{sim, medium, 1};
  LoopbackMac mac{sim, radio, /*queue_capacity=*/2};

  // Without the lane the MAC is one FIFO.
  ASSERT_TRUE(mac.send(frame(kBroadcast, 1)));
  ASSERT_TRUE(mac.send(frame(5, 2)));
  EXPECT_EQ(drain(mac), (std::vector<std::uint8_t>{1, 2}));

  // With it, unicasts queued behind broadcasts go first; each lane keeps
  // its own FIFO order and its own capacity.
  mac.set_unicast_priority(true);
  ASSERT_TRUE(mac.send(frame(kBroadcast, 1)));
  ASSERT_TRUE(mac.send(frame(kBroadcast, 2)));
  ASSERT_TRUE(mac.send(frame(5, 3)));
  ASSERT_TRUE(mac.send(frame(6, 4)));
  EXPECT_EQ(mac.queue_depth(), 4u);
  EXPECT_EQ(mac.stats().queue_drops, 0u);

  // A full lane refuses and counts the drop.
  const util::Status full = mac.send(frame(7, 5));
  EXPECT_EQ(full.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(mac.stats().queue_drops, 1u);
  EXPECT_FALSE(mac.send(frame(kBroadcast, 6)));
  EXPECT_EQ(mac.stats().queue_drops, 2u);

  EXPECT_EQ(drain(mac), (std::vector<std::uint8_t>{3, 4, 1, 2}));
}

/// Node 7 reaches the root 1 over two equal-length paths. Topology::next_hop
/// takes the lower-id neighbour (2, via 9); the dissemination tree, pruned
/// to the single target 7, keeps the first-discovered one (3, via 5). Nodes
/// 2 and 9 are off the tree.
struct TreeUnicastFixture : ::testing::Test {
  sim::Simulator sim{1};
  Topology topo = [] {
    Topology t;
    for (const auto& [a, b] : {std::pair<NodeId, NodeId>{1, 5}, {1, 9}, {5, 3},
                               {9, 2}, {3, 7}, {2, 7}}) {
      t.set_link(a, b, {true, 0.0});
    }
    return t;
  }();
  Medium medium{sim, topo};
  DisseminationTreeCache cache{topo, 1, {7}};

  struct Stack {
    std::unique_ptr<Radio> radio;
    std::unique_ptr<LoopbackMac> mac;
    std::unique_ptr<Router> router;
  };
  std::map<NodeId, Stack> stacks;

  void make_node(NodeId id) {
    auto& s = stacks[id];
    s.radio = std::make_unique<Radio>(sim, medium, id);
    s.mac = std::make_unique<LoopbackMac>(sim, *s.radio);
    s.router = std::make_unique<Router>(*s.mac, topo);
    s.router->enable_tree_dissemination(&cache);
  }

  /// Link-layer destination of the frame `from` queued for `destination`.
  NodeId first_hop(NodeId from, NodeId destination) {
    EXPECT_TRUE(stacks.at(from).router->send(destination, 1, {}));
    auto packet = stacks.at(from).mac->dequeue();
    return packet ? packet->dst : kInvalidNode;
  }
};

TEST_F(TreeUnicastFixture, RootBoundUnicastClimbsTheTreeParentChain) {
  ASSERT_EQ(cache.tree().parent(7), 3);
  ASSERT_EQ(topo.next_hop(7, 1), std::optional<NodeId>(2));
  make_node(7);
  EXPECT_EQ(first_hop(7, 1), 3);
}

TEST_F(TreeUnicastFixture, OtherDestinationsAndOffTreeNodesUseNextHop) {
  make_node(7);
  ASSERT_EQ(topo.next_hop(7, 9), std::optional<NodeId>(2));
  EXPECT_EQ(first_hop(7, 9), 2);  // not the root: shortest path

  ASSERT_FALSE(cache.tree().contains(2));
  make_node(2);
  EXPECT_EQ(first_hop(2, 1), 9);  // off the tree: shortest path

  stacks.at(7).router->enable_flooding();  // flood mode has no tree to climb
  EXPECT_EQ(first_hop(7, 1), 2);
}

TEST(Datagram, EncodeDecodeRoundTrip) {
  Datagram d;
  d.source = 3;
  d.destination = 9;
  d.type = 0x42;
  d.ttl = 5;
  d.seq = 777;
  d.beacon_probe = true;
  d.beacon = {4, 1234};
  d.payload = {1, 2, 3, 4, 5};
  Datagram out;
  ASSERT_TRUE(Router::decode(Router::encode(d), out));
  EXPECT_TRUE(out.beacon_probe);
  EXPECT_EQ(out.source, 3);
  EXPECT_EQ(out.destination, 9);
  EXPECT_EQ(out.type, 0x42);
  EXPECT_EQ(out.ttl, 5);
  EXPECT_EQ(out.seq, 777);
  EXPECT_EQ(out.beacon.head, 4);
  EXPECT_EQ(out.beacon.seq, 1234);
  EXPECT_EQ(out.payload, d.payload);
}

TEST(Datagram, DecodeRejectsGarbage) {
  Datagram out;
  EXPECT_FALSE(Router::decode(std::vector<std::uint8_t>{1, 2}, out));
}

TEST_F(RoutingFixture, SingleHopDelivery) {
  Router& a = make_node(1);
  Router& b = make_node(2);
  int got = 0;
  b.set_receive_handler([&](const Datagram& d) {
    EXPECT_EQ(d.source, 1);
    EXPECT_EQ(d.type, 7);
    ++got;
  });
  start_all();
  ASSERT_TRUE(a.send(2, 7, {1, 2, 3}));
  run_for(util::Duration::millis(500));
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, MultiHopForwardsAlongLine) {
  Router& a = make_node(1);
  make_node(2);
  make_node(3);
  Router& d4 = make_node(4);
  int got = 0;
  d4.set_receive_handler([&](const Datagram& d) {
    EXPECT_EQ(d.source, 1);
    ++got;
  });
  start_all();
  ASSERT_TRUE(a.send(4, 1, {0xAB}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got, 1);
  EXPECT_GE(stacks[2].router->forwarded_count() +
                stacks[3].router->forwarded_count(),
            2u);
}

TEST_F(RoutingFixture, NoRouteFailsFast) {
  Router& a = make_node(1);
  topo.add_node(99);
  start_all();
  const util::Status status = a.send(99, 1, {});
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
}

TEST_F(RoutingFixture, ReroutesAroundFailedLink) {
  // Add a detour 1-3 so breaking 1-2 still leaves a path to 3.
  topo.set_link(1, 3, {true, 0.0});
  Router& a = make_node(1);
  make_node(2);
  Router& c = make_node(3);
  int got = 0;
  c.set_receive_handler([&](const Datagram&) { ++got; });
  start_all();
  topo.set_link_up(1, 2, false);
  ASSERT_TRUE(a.send(3, 1, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, FloodedBroadcastCrossesRelaysExactlyOnce) {
  // Line 1-2-3-4-5 with flooding on: a broadcast from one end reaches the
  // far end (4 hops), and every node delivers it exactly once.
  std::map<NodeId, int> got;
  for (NodeId id : {1, 2, 3, 4, 5}) {
    Router& r = make_node(id);
    r.enable_flooding();
    r.set_receive_handler([&got, id](const Datagram& d) {
      EXPECT_EQ(d.source, 1);
      ++got[id];
    });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {9}));
  run_for(util::Duration::seconds(2));
  for (NodeId id : {2, 3, 4, 5}) EXPECT_EQ(got[id], 1) << "node " << id;
  EXPECT_EQ(got[1], 0);  // own broadcast must not echo back up
}

TEST_F(RoutingFixture, TreeBroadcastCrossesElevenHopsWithTheDefaultTtl) {
  // A 12-node line whose every node is a dissemination target: the ten
  // interior nodes relay the root's broadcast to the far end. No router
  // sets a TTL, and the one every datagram starts with outlasts 11 hops.
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= 12; ++id) ids.push_back(id);
  topo = Topology::line(ids);
  schedule = RtLinkSchedule{12, util::Duration::millis(5)};
  DisseminationTreeCache cache{topo, 1, ids};
  std::map<NodeId, int> got;
  for (NodeId id : ids) {
    Router& r = make_node(id);
    r.enable_tree_dissemination(&cache);
    r.set_receive_handler([&got, id](const Datagram&) { ++got[id]; });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(3));
  for (NodeId id = 2; id <= 12; ++id) EXPECT_EQ(got[id], 1) << "node " << id;
}

TEST_F(RoutingFixture, FloodDeduplicatesAcrossDiamondPaths) {
  // Diamond 1-2, 1-3, 2-4, 3-4: node 4 hears the flood over two disjoint
  // paths but must deliver it once.
  topo = Topology();
  topo.set_link(1, 2, {true, 0.0});
  topo.set_link(1, 3, {true, 0.0});
  topo.set_link(2, 4, {true, 0.0});
  topo.set_link(3, 4, {true, 0.0});
  int got = 0;
  for (NodeId id : {1, 2, 3, 4}) {
    Router& r = make_node(id);
    r.enable_flooding();
    if (id == 4) r.set_receive_handler([&](const Datagram&) { ++got; });
  }
  start_all();
  ASSERT_TRUE(stacks[1].router->send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(got, 1);
}

TEST_F(RoutingFixture, BroadcastIsOneHop) {
  Router& a = make_node(1);
  Router& b = make_node(2);
  Router& c = make_node(3);  // two hops away: must NOT hear a broadcast
  int got_b = 0, got_c = 0;
  b.set_receive_handler([&](const Datagram&) { ++got_b; });
  c.set_receive_handler([&](const Datagram&) { ++got_c; });
  start_all();
  ASSERT_TRUE(a.send(kBroadcast, 1, {}));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
}

}  // namespace
}  // namespace evm::net
