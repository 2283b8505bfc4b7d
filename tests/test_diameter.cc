// Unit and property tests for exact diameter computation.

#include "core/diameter.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/random_graphs.h"
#include "core/rng.h"

namespace lhg::core {
namespace {

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, static_cast<NodeId>(i + 1)});
  return Graph::from_edges(n, edges);
}

Graph cycle_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) edges.push_back({i, static_cast<NodeId>((i + 1) % n)});
  return Graph::from_edges(n, edges);
}

Graph complete_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return Graph::from_edges(n, edges);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(path_graph(10)), 9);
  EXPECT_EQ(diameter(cycle_graph(10)), 5);
  EXPECT_EQ(diameter(cycle_graph(11)), 5);
  EXPECT_EQ(diameter(complete_graph(7)), 1);
  EXPECT_EQ(diameter(Graph::from_edges(1, {})), 0);
}

TEST(Diameter, ApspOracleAgrees) {
  EXPECT_EQ(diameter_apsp(path_graph(17)), 16);
  EXPECT_EQ(diameter_apsp(cycle_graph(9)), 4);
}

TEST(Diameter, ThrowsOnDisconnectedOrEmpty) {
  EXPECT_THROW(diameter(Graph::from_edges(0, {})), std::invalid_argument);
  EXPECT_THROW(diameter(Graph::from_edges(3, std::vector<Edge>{{0, 1}})),
               std::invalid_argument);
  EXPECT_THROW(diameter_apsp(Graph::from_edges(2, {})), std::invalid_argument);
}

TEST(Diameter, AveragePathLength) {
  // Path of 3: ordered pairs (0,1)=1 (0,2)=2 (1,2)=1 and symmetric: mean 4/3.
  EXPECT_NEAR(average_path_length(path_graph(3)), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(average_path_length(complete_graph(5)), 1.0, 1e-12);
  EXPECT_THROW(average_path_length(Graph::from_edges(1, {})),
               std::invalid_argument);
}

TEST(Diameter, Radius) {
  EXPECT_EQ(radius(path_graph(9)), 4);
  EXPECT_EQ(radius(cycle_graph(8)), 4);
  EXPECT_EQ(radius(complete_graph(4)), 1);
}

// Property sweep: iFUB must agree with the all-pairs oracle on random
// connected graphs of varied density.
class DiameterRandomAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DiameterRandomAgreement, IfubMatchesApsp) {
  const auto [n, extra_edges, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  // Random connected graph: spanning path + random extra edges.
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  for (int e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) edges.push_back({u, v});
  }
  Graph g = Graph::from_edges(n, edges);
  EXPECT_EQ(diameter(g), diameter_apsp(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiameterRandomAgreement,
    ::testing::Combine(::testing::Values(8, 33, 64, 120),
                       ::testing::Values(0, 5, 40),
                       ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace lhg::core
