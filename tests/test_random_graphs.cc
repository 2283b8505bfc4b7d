// Unit tests for the random-graph baselines.

#include "core/random_graphs.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/bfs.h"

namespace lhg::core {
namespace {

TEST(RandomGnm, ExactEdgeCount) {
  Rng rng(1);
  Graph g = random_gnm(50, 120, rng);
  EXPECT_EQ(g.num_nodes(), 50);
  EXPECT_EQ(g.num_edges(), 120);
}

TEST(RandomGnm, EdgeCases) {
  Rng rng(2);
  EXPECT_EQ(random_gnm(10, 0, rng).num_edges(), 0);
  Graph full = random_gnm(6, 15, rng);  // complete K6
  EXPECT_EQ(full.num_edges(), 15);
  EXPECT_THROW(random_gnm(4, 7, rng), std::invalid_argument);
  EXPECT_THROW(random_gnm(-1, 0, rng), std::invalid_argument);
}

TEST(RandomGnm, PinnedInstance) {
  // Recorded before random_gnm kept its own dedup set: the draw order,
  // the edge set and the Rng state afterwards must never move.
  Rng rng(7);
  const Graph g = random_gnm(12, 20, rng);
  const std::vector<Edge> pinned{
      {0, 1}, {0, 7},  {1, 4},  {1, 8},  {2, 5},  {2, 6},  {2, 7},
      {2, 10}, {3, 5}, {3, 8},  {3, 11}, {4, 8},  {5, 6},  {5, 11},
      {6, 8}, {7, 9},  {7, 10}, {8, 9},  {9, 11}, {10, 11}};
  EXPECT_EQ(std::vector<Edge>(g.edges().begin(), g.edges().end()), pinned);
  EXPECT_EQ(rng.next_below(1000000), 101076u);
}

TEST(RandomGnm, DeterministicPerSeed) {
  Rng a(99);
  Rng b(99);
  EXPECT_EQ(random_gnm(30, 60, a), random_gnm(30, 60, b));
}

TEST(RandomRegular, DegreesExact) {
  Rng rng(3);
  for (const auto& [n, k] : {std::pair{10, 3}, {20, 4}, {31, 6}, {64, 5}}) {
    Graph g = random_regular(static_cast<NodeId>(n), k, rng);
    EXPECT_TRUE(g.is_regular(k)) << "n=" << n << " k=" << k;
    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(n) * k / 2);
  }
}

TEST(RandomRegular, Validation) {
  Rng rng(4);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);   // nk odd
  EXPECT_THROW(random_regular(3, 3, rng), std::invalid_argument);   // n <= k
  EXPECT_THROW(random_regular(4, -1, rng), std::invalid_argument);
  EXPECT_EQ(random_regular(5, 0, rng).num_edges(), 0);
}

TEST(RandomRegular, ConnectedVariant) {
  Rng rng(5);
  Graph g = random_regular_connected(100, 3, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_regular(3));
}

TEST(RandomRegular, TwoRegularIsDisjointCycles) {
  Rng rng(6);
  Graph g = random_regular(12, 2, rng);
  EXPECT_TRUE(g.is_regular(2));
  // Each component of a 2-regular graph is a cycle: m == n.
  EXPECT_EQ(g.num_edges(), 12);
}

}  // namespace
}  // namespace lhg::core
