// Unit tests for BFS primitives and connectivity predicates.

#include "core/bfs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

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

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(dist[static_cast<std::size_t>(i)], i);
}

TEST(Bfs, DistancesFromMiddle) {
  Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 2);
  EXPECT_EQ(dist[0], 2);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[4], 2);
}

TEST(Bfs, UnreachableMarked) {
  // Two disjoint edges.
  Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, BadSourceThrows) {
  Graph g = path_graph(3);
  EXPECT_THROW(bfs_distances(g, 3), std::invalid_argument);
  EXPECT_THROW(bfs_distances(g, -1), std::invalid_argument);
}

TEST(Bfs, MaskedDistancesSkipDeadNodes) {
  Graph g = cycle_graph(6);
  std::vector<bool> alive(6, true);
  alive[1] = false;  // cut one direction around the ring
  const auto dist = bfs_distances_masked(g, 0, alive);
  EXPECT_EQ(dist[1], kUnreachable);
  EXPECT_EQ(dist[2], 4);  // must go the long way: 0-5-4-3-2
  EXPECT_EQ(dist[5], 1);
}

TEST(Bfs, MaskedDeadSourceThrows) {
  Graph g = path_graph(3);
  std::vector<bool> alive(3, true);
  alive[0] = false;
  EXPECT_THROW(bfs_distances_masked(g, 0, alive), std::invalid_argument);
  std::vector<bool> short_mask(2, true);
  EXPECT_THROW(bfs_distances_masked(g, 1, short_mask), std::invalid_argument);
}

TEST(Bfs, Eccentricity) {
  Graph g = path_graph(5);
  EXPECT_EQ(eccentricity(g, 0), 4);
  EXPECT_EQ(eccentricity(g, 2), 2);
  Graph disconnected = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(eccentricity(disconnected, 0), kUnreachable);
}

TEST(Bfs, ConnectedComponents) {
  // Components {0,1,2}, {3,4}, {5}: a BFS reaches exactly its own.
  Graph g = Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  const std::int32_t x = kUnreachable;
  EXPECT_EQ(bfs_distances(g, 0), (std::vector<std::int32_t>{0, 1, 2, x, x, x}));
  EXPECT_EQ(bfs_distances(g, 4), (std::vector<std::int32_t>{x, x, x, 1, 0, x}));
  EXPECT_EQ(bfs_distances(g, 5), (std::vector<std::int32_t>{x, x, x, x, x, 0}));
  EXPECT_FALSE(is_connected(g));
}

TEST(Bfs, IsConnected) {
  EXPECT_TRUE(is_connected(path_graph(10)));
  EXPECT_TRUE(is_connected(Graph::from_edges(1, {})));
  EXPECT_TRUE(is_connected(Graph::from_edges(0, {})));
  EXPECT_FALSE(is_connected(Graph::from_edges(2, {})));
}

TEST(Bfs, ConnectedAfterNodeRemoval) {
  Graph g = cycle_graph(6);
  // A cycle survives any single removal...
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_TRUE(is_connected_after_node_removal(g, std::vector<NodeId>{u}));
  }
  // ...but two non-adjacent removals cut it.
  EXPECT_FALSE(is_connected_after_node_removal(g, std::vector<NodeId>{0, 3}));
  // Two adjacent removals just shorten it.
  EXPECT_TRUE(is_connected_after_node_removal(g, std::vector<NodeId>{0, 1}));
}

TEST(Bfs, ConnectedAfterRemovalEdgeCases) {
  Graph g = path_graph(3);
  // Removing everything or all-but-one is vacuously connected.
  EXPECT_TRUE(is_connected_after_node_removal(g, std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(is_connected_after_node_removal(g, std::vector<NodeId>{0, 2}));
  // Duplicate ids in the removal list are tolerated.
  EXPECT_TRUE(is_connected_after_node_removal(g, std::vector<NodeId>{2, 2}));
  EXPECT_THROW(is_connected_after_node_removal(g, std::vector<NodeId>{7}),
               std::invalid_argument);
}

TEST(Bfs, ConnectedAfterEdgeRemoval) {
  Graph g = cycle_graph(5);
  EXPECT_TRUE(is_connected_after_edge_removal(g, std::vector<Edge>{{0, 1}}));
  EXPECT_FALSE(is_connected_after_edge_removal(
      g, std::vector<Edge>{{0, 1}, {2, 3}}));
  // Removing a non-existent edge is a no-op.
  EXPECT_TRUE(is_connected_after_edge_removal(g, std::vector<Edge>{{0, 2}}));
}

}  // namespace
}  // namespace lhg::core
