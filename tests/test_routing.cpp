#include <gtest/gtest.h>

#include <memory>

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

/// A MAC with no air: the test hands it frames as if they had arrived.
class LoopbackMac : public Mac {
 public:
  using Mac::Mac;
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
    r.set_default_ttl(6);
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
