// Unit + property tests for the connectivity engine, cross-validated
// against brute-force subset-removal oracles on small graphs.

#include "core/connectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "core/bfs.h"
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

Graph petersen() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.push_back({i, static_cast<NodeId>((i + 1) % 5)});
    edges.push_back({static_cast<NodeId>(5 + i), static_cast<NodeId>(5 + (i + 2) % 5)});
    edges.push_back({i, static_cast<NodeId>(i + 5)});
  }
  return Graph::from_edges(10, edges);
}

/// Brute-force κ: smallest vertex subset whose removal disconnects the
/// graph (n-1 for complete graphs).  Exponential; small n only.
std::int32_t kappa_bruteforce(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (!is_connected(g)) return 0;
  for (std::int32_t size = 1; size < n - 1; ++size) {
    std::vector<NodeId> subset(static_cast<std::size_t>(size));
    std::vector<bool> select(static_cast<std::size_t>(n), false);
    std::fill(select.begin(), select.begin() + size, true);
    do {
      std::size_t idx = 0;
      for (NodeId u = 0; u < n; ++u) {
        if (select[static_cast<std::size_t>(u)]) subset[idx++] = u;
      }
      if (!is_connected_after_node_removal(g, subset)) return size;
    } while (std::prev_permutation(select.begin(), select.end()));
  }
  return n - 1;
}

/// Brute-force λ: smallest edge subset whose removal disconnects.
std::int32_t lambda_bruteforce(const Graph& g) {
  if (!is_connected(g)) return 0;
  const auto edges = g.edges();
  const auto m = static_cast<std::int32_t>(edges.size());
  for (std::int32_t size = 1; size <= m; ++size) {
    std::vector<bool> select(static_cast<std::size_t>(m), false);
    std::fill(select.begin(), select.begin() + size, true);
    do {
      std::vector<Edge> subset;
      for (std::int32_t e = 0; e < m; ++e) {
        if (select[static_cast<std::size_t>(e)]) {
          subset.push_back(edges[static_cast<std::size_t>(e)]);
        }
      }
      if (!is_connected_after_edge_removal(g, subset)) return size;
    } while (std::prev_permutation(select.begin(), select.end()));
  }
  return m;
}

TEST(Connectivity, KnownKappaValues) {
  EXPECT_EQ(vertex_connectivity(path_graph(6)), 1);
  EXPECT_EQ(vertex_connectivity(cycle_graph(6)), 2);
  EXPECT_EQ(vertex_connectivity(complete_graph(6)), 5);
  EXPECT_EQ(vertex_connectivity(petersen()), 3);
  EXPECT_EQ(vertex_connectivity(Graph::from_edges(4, {})), 0);
  EXPECT_EQ(vertex_connectivity(Graph::from_edges(1, {})), 0);
}

TEST(Connectivity, KnownLambdaValues) {
  EXPECT_EQ(edge_connectivity(path_graph(6)), 1);
  EXPECT_EQ(edge_connectivity(cycle_graph(6)), 2);
  EXPECT_EQ(edge_connectivity(complete_graph(6)), 5);
  EXPECT_EQ(edge_connectivity(petersen()), 3);
  EXPECT_EQ(edge_connectivity(Graph::from_edges(4, {})), 0);
}

TEST(Connectivity, UpperLimitCapsWork) {
  EXPECT_EQ(vertex_connectivity(complete_graph(9), 3), 3);
  EXPECT_EQ(edge_connectivity(complete_graph(9), 2), 2);
}

TEST(Connectivity, LocalConnectivities) {
  Graph g = cycle_graph(8);
  EXPECT_EQ(local_edge_connectivity(g, 0, 4), 2);
  EXPECT_EQ(local_vertex_connectivity(g, 0, 4), 2);
  // Adjacent pair in a cycle: the direct edge plus the long way.
  EXPECT_EQ(local_vertex_connectivity(g, 0, 1), 2);
  EXPECT_THROW(local_edge_connectivity(g, 0, 0), std::invalid_argument);
  EXPECT_THROW(local_vertex_connectivity(g, 0, 99), std::invalid_argument);
}

TEST(Connectivity, IsKConnectedPredicates) {
  Graph c6 = cycle_graph(6);
  EXPECT_TRUE(is_k_vertex_connected(c6, 0));
  EXPECT_TRUE(is_k_vertex_connected(c6, 1));
  EXPECT_TRUE(is_k_vertex_connected(c6, 2));
  EXPECT_FALSE(is_k_vertex_connected(c6, 3));
  EXPECT_EQ(edge_connectivity(c6), 2);
  // n <= k can never be k-connected.
  EXPECT_FALSE(is_k_vertex_connected(complete_graph(3), 3));
  EXPECT_TRUE(is_k_vertex_connected(complete_graph(4), 3));
}

TEST(Connectivity, DisjointPathsOnPetersen) {
  Graph g = petersen();
  const auto paths = vertex_disjoint_paths(g, 0, 7, 3);
  ASSERT_TRUE(paths.has_value());
  ASSERT_EQ(paths->size(), 3u);
  std::set<NodeId> internal_seen;
  for (const auto& path : *paths) {
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 7);
    // Consecutive nodes must be adjacent.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(path[i], path[i + 1]))
          << path[i] << "-" << path[i + 1];
    }
    // Internal vertices must be globally unique across paths.
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(internal_seen.insert(path[i]).second)
          << "shared internal vertex " << path[i];
    }
  }
  // Asking for more than κ(s,t) paths fails.
  EXPECT_FALSE(vertex_disjoint_paths(g, 0, 7, 4).has_value());
}

TEST(Connectivity, DisjointPathsDecompositionIsPinned) {
  // Golden regression for the flow decomposition's node-indexed flat
  // successor storage (it used to hash on a std::unordered_map): the
  // exact paths are a pure function of the CSR arc order, so any
  // future hashed-order leak shows up as a diff here, not as a
  // cross-platform flake.
  Graph g = petersen();
  const auto paths = vertex_disjoint_paths(g, 0, 7, 3);
  ASSERT_TRUE(paths.has_value());
  const std::vector<std::vector<NodeId>> expected{
      {0, 5, 7}, {0, 4, 9, 7}, {0, 1, 2, 7}};
  EXPECT_EQ(*paths, expected);
}

TEST(Connectivity, DisjointPathsAdjacentPair) {
  Graph g = complete_graph(5);
  const auto paths = vertex_disjoint_paths(g, 0, 1, 4);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(paths->size(), 4u);
}

TEST(Connectivity, MinimumVertexCut) {
  // Two triangles joined at vertices 2,3 (a 2-cut).
  Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4},
                           {3, 5}, {4, 5}, {0, 3}, {1, 2}});
  const auto cut = minimum_vertex_cut(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(static_cast<std::int32_t>(cut->size()), vertex_connectivity(g));
  EXPECT_FALSE(is_connected_after_node_removal(g, *cut));
  EXPECT_FALSE(minimum_vertex_cut(complete_graph(4)).has_value());
}

// Cut vertices by brute force: the nodes whose removal disconnects g.
std::vector<NodeId> cut_vertices(const Graph& g) {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId removed[] = {u};
    if (!is_connected_after_node_removal(g, removed)) out.push_back(u);
  }
  return out;
}

// Cut edges by brute force: the edges whose removal disconnects g.
std::vector<Edge> cut_edges(const Graph& g) {
  std::vector<Edge> out;
  for (const Edge e : g.edges()) {
    const Edge removed[] = {e};
    if (!is_connected_after_edge_removal(g, removed)) out.push_back(e);
  }
  return out;
}

TEST(Connectivity, ArticulationPoints) {
  // Barbell: triangle 0-1-2, bridge 2-3, triangle 3-4-5.
  Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4},
                           {4, 5}, {3, 5}});
  EXPECT_EQ(cut_vertices(g), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(vertex_connectivity(g), 1);
  EXPECT_TRUE(cut_vertices(cycle_graph(5)).empty());
  EXPECT_EQ(cut_vertices(path_graph(4)), (std::vector<NodeId>{1, 2}));
}

TEST(Connectivity, Bridges) {
  Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4},
                           {4, 5}, {3, 5}});
  EXPECT_EQ(cut_edges(g), (std::vector<Edge>{{2, 3}}));
  EXPECT_EQ(edge_connectivity(g), 1);
  EXPECT_TRUE(cut_edges(cycle_graph(6)).empty());
  EXPECT_EQ(cut_edges(path_graph(3)), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

// Property sweep: flow-based κ and λ agree with brute force on random
// small graphs across densities.
class ConnectivityBruteforceAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConnectivityBruteforceAgreement, KappaAndLambdaMatch) {
  const auto [n, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  Graph g = random_gnm(static_cast<NodeId>(n),
                       std::min<std::int64_t>(m, max_m), rng);
  EXPECT_EQ(vertex_connectivity(g), kappa_bruteforce(g));
  EXPECT_EQ(edge_connectivity(g), lambda_bruteforce(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConnectivityBruteforceAgreement,
    ::testing::Combine(::testing::Values(5, 6, 7, 8),
                       ::testing::Values(4, 7, 10, 14),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace lhg::core
