// Unit tests for the reference Dijkstra, the flood-timing oracle.

#include "core/testing/reference_dijkstra.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/bfs.h"
#include "core/special.h"

namespace lhg::core::testing {
namespace {

const EdgeWeightFn kUnit = [](NodeId, NodeId) { return 1.0; };

TEST(Dijkstra, UnitWeightsMatchBfs) {
  Graph g = hypercube(4);
  const auto weighted = dijkstra_distances(g, 0, kUnit);
  const auto hops = bfs_distances(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(weighted[static_cast<std::size_t>(u)],
                     static_cast<double>(hops[static_cast<std::size_t>(u)]));
  }
}

TEST(Dijkstra, PrefersLightDetour) {
  // 0-1 heavy direct edge vs light 0-2-1 detour.
  Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}});
  const EdgeWeightFn weight = [](NodeId u, NodeId v) {
    return (canonical(u, v) == Edge{0, 1}) ? 10.0 : 1.0;
  };
  const auto dist = dijkstra_distances(g, 0, weight);
  EXPECT_DOUBLE_EQ(dist[1], 2.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  const auto dist = dijkstra_distances(g, 0, kUnit);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_EQ(dist[2], kInfiniteDistance);
}

TEST(Dijkstra, PathEndpoints) {
  Graph g = path_graph(6);
  // From an inner node both ends of the path are reached, each at its
  // hop distance; the source itself sits at 0.
  EXPECT_EQ(dijkstra_distances(g, 1, kUnit),
            (std::vector<double>{1, 0, 1, 2, 3, 4}));
}

TEST(Dijkstra, Validation) {
  Graph g = path_graph(3);
  EXPECT_THROW(dijkstra_distances(g, -1, kUnit), std::invalid_argument);
  EXPECT_THROW(dijkstra_distances(g, 9, kUnit), std::invalid_argument);
  const EdgeWeightFn negative = [](NodeId, NodeId) { return -1.0; };
  EXPECT_THROW(dijkstra_distances(g, 0, negative), std::invalid_argument);
}

TEST(Dijkstra, ZeroWeightEdgesAllowed) {
  Graph g = path_graph(4);
  const EdgeWeightFn zero = [](NodeId, NodeId) { return 0.0; };
  const auto dist = dijkstra_distances(g, 0, zero);
  EXPECT_DOUBLE_EQ(dist[3], 0.0);
}

}  // namespace
}  // namespace lhg::core::testing
