#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "net/topology.hpp"

namespace evm::net {
namespace {

TEST(Topology, SymmetricLinks) {
  Topology t;
  t.set_link(1, 2, {true, 0.1});
  EXPECT_TRUE(t.connected(1, 2));
  EXPECT_TRUE(t.connected(2, 1));
  EXPECT_DOUBLE_EQ(t.loss(2, 1), 0.1);
}

TEST(Topology, MissingLinkIsDisconnectedAndLossy) {
  Topology t;
  t.add_node(1);
  t.add_node(2);
  EXPECT_FALSE(t.connected(1, 2));
  EXPECT_DOUBLE_EQ(t.loss(1, 2), 1.0);
  EXPECT_FALSE(t.link(1, 2).has_value());
}

TEST(Topology, LinkUpDownPreservesLossRate) {
  Topology t;
  t.set_link(1, 2, {true, 0.25});
  t.set_link_up(1, 2, false);
  EXPECT_FALSE(t.connected(1, 2));
  t.set_link_up(1, 2, true);
  EXPECT_TRUE(t.connected(1, 2));
  EXPECT_DOUBLE_EQ(t.loss(1, 2), 0.25);
}

TEST(Topology, NeighborsExcludeDownLinks) {
  Topology t;
  t.set_link(1, 2, {true, 0.0});
  t.set_link(1, 3, {true, 0.0});
  t.set_link_up(1, 3, false);
  const auto n = t.neighbors(1);
  EXPECT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], 2);
}

TEST(Topology, NextHopFollowsShortestPath) {
  Topology t = Topology::line({1, 2, 3, 4});
  EXPECT_EQ(t.next_hop(1, 4), 2);
  EXPECT_EQ(t.next_hop(2, 4), 3);
  EXPECT_EQ(t.next_hop(3, 4), 4);
  EXPECT_EQ(t.next_hop(4, 4), 4);
}

TEST(Topology, NextHopNoRoute) {
  Topology t = Topology::line({1, 2});
  t.add_node(9);
  EXPECT_FALSE(t.next_hop(1, 9).has_value());
}

TEST(Topology, NextHopAdaptsToLinkFailure) {
  // Square: 1-2, 2-4, 1-3, 3-4. Break 1-2; route 1->4 must go via 3.
  Topology t;
  t.set_link(1, 2, {true, 0.0});
  t.set_link(2, 4, {true, 0.0});
  t.set_link(1, 3, {true, 0.0});
  t.set_link(3, 4, {true, 0.0});
  const auto direct = t.next_hop(1, 4);
  ASSERT_TRUE(direct.has_value());
  t.set_link_up(1, 2, false);
  EXPECT_EQ(t.next_hop(1, 4), 3);
}

TEST(Topology, FullMeshFactory) {
  Topology t = Topology::full_mesh({1, 2, 3, 4}, 0.05);
  for (NodeId a : {1, 2, 3, 4}) {
    for (NodeId b : {1, 2, 3, 4}) {
      if (a == b) continue;
      EXPECT_TRUE(t.connected(a, b));
      EXPECT_DOUBLE_EQ(t.loss(a, b), 0.05);
    }
  }
}

TEST(Topology, StarFactory) {
  Topology t = Topology::star(1, {2, 3, 4});
  EXPECT_TRUE(t.connected(1, 3));
  EXPECT_FALSE(t.connected(2, 3));
  EXPECT_EQ(t.next_hop(2, 4), 1);  // leaf-to-leaf goes through the hub
}

TEST(Topology, RemoveLink) {
  Topology t = Topology::full_mesh({1, 2, 3});
  t.remove_link(1, 2);
  EXPECT_FALSE(t.connected(1, 2));
  EXPECT_EQ(t.next_hop(1, 2), 3);
}

// Hop counts from `source` by plain BFS over neighbors(): the reference
// path length next_hop must not exceed.
std::map<NodeId, int> bfs_hops(const Topology& t, NodeId source) {
  std::map<NodeId, int> dist{{source, 0}};
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (NodeId n : t.neighbors(cur)) {
      if (dist.emplace(n, dist[cur] + 1).second) frontier.push_back(n);
    }
  }
  return dist;
}

// Property: following next_hop from any source must reach the destination
// in at most hop_count steps (no loops, monotone progress).
class NextHopProperty : public ::testing::TestWithParam<int> {};

TEST_P(NextHopProperty, ConvergesWithoutLoops) {
  // Ring of N nodes plus a chord.
  const int n = GetParam();
  std::vector<NodeId> ids;
  for (int i = 1; i <= n; ++i) ids.push_back(static_cast<NodeId>(i));
  Topology t;
  for (int i = 0; i < n; ++i) {
    t.set_link(ids[i], ids[(i + 1) % n], {true, 0.0});
  }
  t.set_link(ids[0], ids[n / 2], {true, 0.0});

  for (NodeId src : ids) {
    for (NodeId dst : ids) {
      NodeId cur = src;
      int steps = 0;
      while (cur != dst) {
        auto hop = t.next_hop(cur, dst);
        ASSERT_TRUE(hop.has_value());
        cur = *hop;
        ASSERT_LE(++steps, n) << "routing loop " << src << "->" << dst;
      }
      EXPECT_LE(steps, bfs_hops(t, src).at(dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, NextHopProperty, ::testing::Values(4, 7, 10));

TEST(Topology, VersionMovesOnEveryMutationOnly) {
  Topology topo = Topology::line({1, 2, 3});
  const std::uint64_t built = topo.version();

  // Queries never bump the version.
  (void)topo.neighbors(2);
  (void)topo.next_hop(1, 3);
  EXPECT_EQ(topo.version(), built);

  topo.set_link_up(1, 2, false);
  EXPECT_GT(topo.version(), built);
  const std::uint64_t after_down = topo.version();
  topo.set_link_up(1, 2, false);  // no-op: already down
  EXPECT_EQ(topo.version(), after_down);

  topo.set_node_down(2, true);
  EXPECT_GT(topo.version(), after_down);
  const std::uint64_t after_crash = topo.version();
  topo.set_node_down(2, true);  // no-op: already down
  EXPECT_EQ(topo.version(), after_crash);

  // Loss updates are not structural: routing and the dissemination tree
  // are loss-blind, so loss churn must not invalidate derived caches.
  topo.set_loss(2, 3, 0.25);
  EXPECT_EQ(topo.version(), after_crash);
  // Rewriting a link with identical up-state is a no-op too; flipping the
  // up-state through set_link bumps once.
  topo.set_link(2, 3, {true, 0.5});
  EXPECT_EQ(topo.version(), after_crash);
  topo.set_link(2, 3, {false, 0.5});
  EXPECT_EQ(topo.version(), after_crash + 1);
}

}  // namespace
}  // namespace evm::net
