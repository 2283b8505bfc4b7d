// Unit tests for core::Graph and its CSR assembly.

#include "core/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rng.h"

namespace lhg::core {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  Graph g2 = Graph::from_edges(0, {});
  EXPECT_EQ(g2.num_nodes(), 0);
  EXPECT_EQ(g2.num_edges(), 0);
}

TEST(Graph, SingleNode) {
  Graph g = Graph::from_edges(1, {});
  EXPECT_EQ(g.num_nodes(), 1);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_FALSE(g.is_regular(3));
}

TEST(Graph, EdgesAreCanonicalAndSorted) {
  const std::vector<Edge> edges{{3, 1}, {2, 0}, {1, 0}};
  Graph g = Graph::from_edges(4, edges);
  const auto out = g.edges();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Edge{0, 1}));
  EXPECT_EQ(out[1], (Edge{0, 2}));
  EXPECT_EQ(out[2], (Edge{1, 3}));
}

TEST(Graph, DuplicateEdgesDeduplicated) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
  Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, NeighborsSorted) {
  const std::vector<Edge> edges{{2, 5}, {2, 1}, {2, 4}, {2, 0}};
  Graph g = Graph::from_edges(6, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 4);
  EXPECT_EQ(nbrs[3], 5);
}

TEST(Graph, RejectsSelfLoop) {
  const std::vector<Edge> edges{{1, 1}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRange) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, std::vector<Edge>{{-1, 0}}),
               std::invalid_argument);
}

TEST(Graph, FromEdgesValidation) {
  EXPECT_THROW(Graph::from_edges(3, std::vector<Edge>{{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, std::vector<Edge>{{0, 3}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, std::vector<Edge>{{-1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(-1, {}), std::invalid_argument);
}

TEST(Graph, WithoutEdge) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  Graph g = Graph::from_edges(3, edges);
  Graph h = g.without_edge(2, 0);
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_FALSE(h.has_edge(0, 2));
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_THROW(h.without_edge(0, 2), std::invalid_argument);
}

TEST(Graph, InducedWithout) {
  // Path 0-1-2-3; removing node 1 leaves {0}, {2-3} relabeled.
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  Graph g = Graph::from_edges(4, edges);
  std::vector<NodeId> mapping;
  const std::vector<NodeId> removed{1};
  Graph h = g.induced_without(removed, &mapping);
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(mapping[1], -1);
  EXPECT_TRUE(h.has_edge(mapping[2], mapping[3]));
}

TEST(Graph, DegreeStats) {
  // Star K_{1,3}.
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {0, 3}};
  Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.min_degree(), 1);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Graph, Equality) {
  const std::vector<Edge> a{{0, 1}, {1, 2}};
  const std::vector<Edge> b{{2, 1}, {1, 0}};
  EXPECT_EQ(Graph::from_edges(3, a), Graph::from_edges(3, b));
  EXPECT_FALSE(Graph::from_edges(3, a) == Graph::from_edges(4, a));
}

TEST(Graph, Describe) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(describe(g), "Graph(n=3, m=3, deg 2..2)");
}

TEST(Graph, ArcAndEdgeIndicesAreConsistent) {
  // Triangle plus a pendant: mixed degrees exercise the CSR offsets.
  Graph g = Graph::from_edges(
      4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(g.num_arcs(), 2 * g.num_edges());
  // Every arc (u, v): a valid dense id, a twin pointing back, and an
  // undirected edge id shared with the twin and matching edges()[id].
  const auto edges = g.edges();
  std::vector<int> edge_hits(edges.size(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      const std::int32_t uv = g.arc_index(u, v);
      ASSERT_GE(uv, 0);
      ASSERT_LT(uv, g.num_arcs());
      const std::int32_t vu = g.twin_arc(uv);
      EXPECT_EQ(vu, g.arc_index(v, u));
      EXPECT_EQ(g.twin_arc(vu), uv);
      const std::int32_t e = g.edge_index(u, v);
      ASSERT_GE(e, 0);
      ASSERT_LT(e, g.num_edges());
      EXPECT_EQ(e, g.edge_of_arc(uv));
      EXPECT_EQ(e, g.edge_index(v, u));  // undirected: same id both ways
      const Edge canonical = edges[static_cast<std::size_t>(e)];
      EXPECT_EQ(canonical.u, std::min(u, v));
      EXPECT_EQ(canonical.v, std::max(u, v));
      ++edge_hits[static_cast<std::size_t>(e)];
    }
  }
  for (const int hits : edge_hits) EXPECT_EQ(hits, 2);  // one per direction
  // Non-adjacent pairs and self-queries come back as -1, not a throw.
  EXPECT_EQ(g.arc_index(0, 3), -1);
  EXPECT_EQ(g.edge_index(0, 3), -1);
  EXPECT_EQ(g.arc_index(1, 1), -1);
  EXPECT_EQ(g.edge_index(3, 3), -1);
}

TEST(Graph, LargeCsrConsistency) {
  // A 1000-node ring: every adjacency query must agree with the edge set.
  std::vector<Edge> ring;
  for (NodeId i = 0; i < 1000; ++i) {
    ring.push_back({i, static_cast<NodeId>((i + 1) % 1000)});
  }
  Graph g = Graph::from_edges(1000, ring);
  EXPECT_EQ(g.num_edges(), 1000);
  for (NodeId i = 0; i < 1000; ++i) {
    EXPECT_EQ(g.degree(i), 2);
    EXPECT_TRUE(g.has_edge(i, (i + 1) % 1000));
    EXPECT_FALSE(g.has_edge(i, (i + 2) % 1000));
  }
}

// Differential test of from_edges against an independent reference: the
// canonical edge set collected in a std::set, with neighbor lists, arc
// positions and edge ids derived from it by hand.
void expect_matches_reference(NodeId n, std::span<const Edge> list) {
  std::set<Edge> unique;
  for (const Edge e : list) unique.insert(canonical(e.u, e.v));
  const std::vector<Edge> ref_edges(unique.begin(), unique.end());
  std::vector<std::vector<NodeId>> ref_adj(static_cast<std::size_t>(n));
  for (const Edge e : ref_edges) {
    ref_adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    ref_adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (auto& nbrs : ref_adj) std::sort(nbrs.begin(), nbrs.end());

  const Graph g = Graph::from_edges(n, list);
  // Reference arc position of u→v and edge id of {u, v}.
  const auto ref_arc = [&](NodeId u, NodeId v) {
    const auto& nbrs = ref_adj[static_cast<std::size_t>(u)];
    return g.arc_begin(u) +
           static_cast<std::int32_t>(
               std::lower_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin());
  };
  const auto ref_edge_id = [&](NodeId u, NodeId v) {
    return static_cast<std::int32_t>(
        std::lower_bound(ref_edges.begin(), ref_edges.end(), canonical(u, v)) -
        ref_edges.begin());
  };

  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(std::vector<Edge>(g.edges().begin(), g.edges().end()), ref_edges);
  ASSERT_EQ(g.num_arcs(), 2 * static_cast<std::int32_t>(ref_edges.size()));
  for (NodeId u = 0; u < n; ++u) {
    const auto& nbrs = ref_adj[static_cast<std::size_t>(u)];
    const auto got = g.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), nbrs)
        << "node " << u;
    for (const NodeId v : nbrs) {
      const std::int32_t arc = ref_arc(u, v);
      EXPECT_EQ(g.twin_arc(arc), ref_arc(v, u));
      EXPECT_EQ(g.edge_of_arc(arc), ref_edge_id(u, v));
      EXPECT_EQ(g.edge_index(u, v), ref_edge_id(u, v));
    }
  }
}

TEST(Graph, FromEdgesMatchesSetReference) {
  // The empty and singleton graphs take no valid edge.
  expect_matches_reference(0, {});
  expect_matches_reference(1, {});
  Rng rng(26);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.next_below(40));
    // Every other trial keeps its last node isolated.
    const NodeId span = trial % 2 == 0 ? n - 1 : n;
    if (span < 2) continue;
    const auto draws = rng.next_below(3 * static_cast<std::uint64_t>(n));
    std::vector<Edge> list;
    for (std::uint64_t d = 0; d < draws; ++d) {
      const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(span)));
      const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(span)));
      if (u == v) continue;
      list.push_back({u, v});  // either orientation: u and v are unordered
      if (rng.next_bool(0.2)) list.push_back({v, u});  // flipped copy
      if (rng.next_bool(0.2)) list.push_back({u, v});  // duplicate
    }
    rng.shuffle(std::span<Edge>(list));
    expect_matches_reference(n, list);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lhg::core
