// Tests for the dissemination protocols on healthy networks.

#include "flooding/protocols.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/bfs.h"
#include "core/diameter.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::Edge;
using core::Graph;
using core::NodeId;

Graph cycle_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) edges.push_back({i, static_cast<NodeId>((i + 1) % n)});
  return Graph::from_edges(n, edges);
}

TEST(Flood, ReachesEveryoneOnHealthyGraph) {
  const auto g = lhg::build(22, 3);
  const auto result = flood(g, {.source = 0});
  EXPECT_TRUE(result.all_alive_delivered());
  EXPECT_EQ(result.alive_nodes, 22);
  EXPECT_EQ(result.delivered_alive, 22);
  EXPECT_DOUBLE_EQ(result.delivery_ratio(), 1.0);
}

TEST(Flood, CompletionTimeEqualsEccentricityAtUnitLatency) {
  const auto g = cycle_graph(10);
  const auto result = flood(g, {.source = 0});
  EXPECT_DOUBLE_EQ(result.completion_time, 5.0);  // eccentricity of a C10 node
  EXPECT_EQ(result.completion_hops, 5);
}

TEST(Flood, HopCountsMatchBfsDistances) {
  const auto g = lhg::build(34, 4);
  const auto result = flood(g, {.source = 3});
  const auto dist = core::bfs_distances(g, 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(result.delivery_hops[static_cast<std::size_t>(u)],
              dist[static_cast<std::size_t>(u)])
        << "node " << u;
  }
}

TEST(Flood, MessageCountIsBounded) {
  // Flooding sends at most 2 messages per link and at least one per
  // non-source node.
  const auto g = lhg::build(46, 3);
  const auto result = flood(g, {.source = 0});
  EXPECT_GE(result.messages_sent, g.num_nodes() - 1);
  EXPECT_LE(result.messages_sent, 2 * g.num_edges());
}

TEST(Flood, SourceCrashMeansNoDelivery) {
  const auto g = cycle_graph(8);
  FailurePlan plan;
  plan.crashes.push_back({0, 0.0});
  const auto result = flood(g, {.source = 0}, plan);
  EXPECT_EQ(result.delivered_alive, 0);
  EXPECT_EQ(result.alive_nodes, 7);
  EXPECT_EQ(result.messages_sent, 0);
}

TEST(Flood, ValidatesSource) {
  const auto g = cycle_graph(4);
  EXPECT_THROW(flood(g, {.source = 9}), std::invalid_argument);
}

TEST(Gossip, ReachesMostNodesWithClassicFanout) {
  const auto result = gossip(200, {.source = 0, .fanout = 4, .seed = 11});
  EXPECT_GT(result.delivery_ratio(), 0.95);
  EXPECT_GT(result.messages_sent, 200);  // redundancy is the cost
}

TEST(Gossip, DeterministicPerSeed) {
  const GossipConfig config{.source = 0, .fanout = 3, .seed = 5};
  const auto a = gossip(100, config);
  const auto b = gossip(100, config);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

TEST(Gossip, FanoutOneSpreadsSlowly) {
  const auto slow = gossip(100, {.source = 0, .fanout = 1, .max_rounds = 3});
  const auto fast = gossip(100, {.source = 0, .fanout = 8, .max_rounds = 3});
  EXPECT_LT(slow.delivered_alive, fast.delivered_alive);
}

TEST(Gossip, PushPullConvergesFasterOrEqual) {
  // Push-pull reaches full coverage in no more rounds than pure push
  // with the same fanout (pulls only add infection opportunities).
  const GossipConfig push{.source = 0, .fanout = 2, .max_rounds = 30,
                          .seed = 21};
  GossipConfig pushpull = push;
  pushpull.mode = GossipMode::kPushPull;
  const auto push_result = gossip(300, push);
  const auto pull_result = gossip(300, pushpull);
  EXPECT_GE(pull_result.delivered_alive, push_result.delivered_alive);
  if (pull_result.all_alive_delivered() && push_result.all_alive_delivered()) {
    EXPECT_LE(pull_result.completion_hops, push_result.completion_hops);
  }
}

TEST(Gossip, PushPullCountsResponses) {
  // Pull hits cost two messages; the total must exceed pure push's
  // count for the same spread parameters.
  const auto push = gossip(200, {.source = 0, .fanout = 3, .max_rounds = 10,
                                 .seed = 4});
  const auto pushpull =
      gossip(200, {.source = 0, .fanout = 3, .max_rounds = 10,
                   .mode = GossipMode::kPushPull, .seed = 4});
  EXPECT_GT(pushpull.messages_sent, push.messages_sent);
  EXPECT_GE(pushpull.delivered_alive, push.delivered_alive);
}

TEST(Gossip, PushPullSurvivesCrashes) {
  FailurePlan plan;
  plan.crashes.push_back({3, 0.0});
  plan.crashes.push_back({7, 0.0});
  const auto result = gossip(
      120, {.source = 0, .fanout = 3, .mode = GossipMode::kPushPull,
            .seed = 2},
      plan);
  EXPECT_EQ(result.alive_nodes, 118);
  EXPECT_GT(result.delivery_ratio(), 0.95);
}

TEST(Gossip, Validation) {
  EXPECT_THROW(gossip(10, {.source = 10}), std::invalid_argument);
  EXPECT_THROW(gossip(10, {.source = 0, .fanout = 0}), std::invalid_argument);
}

TEST(SpanningTree, MinimumMessagesOnHealthyGraph) {
  const auto g = lhg::build(30, 3);
  const auto result = spanning_tree_multicast(g, {.source = 0});
  EXPECT_TRUE(result.all_alive_delivered());
  EXPECT_EQ(result.messages_sent, g.num_nodes() - 1);
}

TEST(SpanningTree, SingleCrashLosesSubtree) {
  // On a path graph rooted at 0, crashing node 2 cuts everything after.
  Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  FailurePlan plan;
  plan.crashes.push_back({2, 0.0});
  const auto result = spanning_tree_multicast(g, {.source = 0}, plan);
  EXPECT_FALSE(result.all_alive_delivered());
  EXPECT_EQ(result.delivered_alive, 2);  // nodes 0 and 1 only
  EXPECT_EQ(result.alive_nodes, 5);
}

// Exact pin of tree multicast under crashes: one send per tree child,
// in BFS discovery order, so the per-send latency draws line up.
TEST(SpanningTree, ExactPinUnderCrashes) {
  const auto g = lhg::build(64, 4);
  core::Rng plan_rng(17);
  const auto plan = random_crashes(g, 2, /*protect=*/0, plan_rng, /*time=*/1.0);
  const auto result = spanning_tree_multicast(
      g, {.source = 0, .latency = LatencySpec::per_send(0.5, 1.0), .seed = 11},
      plan);
  double delivery_time_sum = 0.0;
  for (const double t : result.delivery_time) {
    if (t >= 0.0) delivery_time_sum += t;
  }
  EXPECT_EQ(result.messages_sent, 60);
  EXPECT_EQ(delivery_time_sum, 0x1.4103e402850efp+7);
  EXPECT_EQ(result.net, (NetworkStats{.sent = 60,
                                      .delivered = 58,
                                      .lost = 0,
                                      .duplicated = 0,
                                      .blocked_sender_crashed = 0,
                                      .blocked_link_down = 0,
                                      .blocked_partition = 0,
                                      .dropped_receiver_crashed = 2,
                                      .dropped_link_down = 0,
                                      .dropped_partition = 0}));
}

TEST(Protocols, FloodBeatsGossipOnMessagesAtFullReliability) {
  // E6's headline shape: for the same full delivery, deterministic
  // flooding on a sparse LHG costs fewer messages than fanout gossip.
  const auto g = lhg::build(244, 3);
  const auto flood_result = flood(g, {.source = 0});
  const auto gossip_result =
      gossip(244, {.source = 0, .fanout = 5, .seed = 2});
  ASSERT_TRUE(flood_result.all_alive_delivered());
  EXPECT_LT(flood_result.messages_sent, gossip_result.messages_sent);
}

}  // namespace
}  // namespace lhg::flooding
