// Unit tests for the one flow kernel, the fan searches of
// core/maxflow.h.  `MaxFlow.*` pins the s-t max-flow contracts on unit
// capacities through `ConnectivityProber` (κ(s,t) as a fan from s into
// N(t) ∪ {t} ∖ {s}, λ(s,t) as an edge fan into {t}) and the two
// read-outs of `FanSearch`'s flow — its paths and its sink-closest
// vertex cut — with cross-checks against the Dinic reference
// (core/testing/reference_flow.h).  `FanSearch.*` and `EdgeFanSearch.*`
// check the searches themselves against Dinic: `FanSearch` on Even's
// explicit vertex-split network, `EdgeFanSearch` on the edge network
// with a super-sink fed by the set.

#include "core/maxflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bfs.h"
#include "core/connectivity.h"
#include "core/graph.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "core/special.h"
#include "core/testing/reference_flow.h"

namespace lhg::core {
namespace {

/// A rank array whose sink set (rank 0, bound 1) is `sinks`.
std::vector<std::int32_t> sink_rank(NodeId n, std::span<const NodeId> sinks) {
  std::vector<std::int32_t> rank(static_cast<std::size_t>(n), 1);
  for (const NodeId v : sinks) rank[static_cast<std::size_t>(v)] = 0;
  return rank;
}

/// The rank array of a κ probe of (s, t): sink set N(t) ∪ {t} ∖ {s}.
std::vector<std::int32_t> kappa_rank(const Graph& g, NodeId s, NodeId t) {
  std::vector<NodeId> sinks{t};
  for (const NodeId w : g.neighbors(t)) {
    if (w != s) sinks.push_back(w);
  }
  return sink_rank(g.num_nodes(), sinks);
}

TEST(MaxFlow, SingleArc) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  ConnectivityProber prober(g);
  EXPECT_EQ(prober.vertex_probe(0, 1, 5), 1);
  EXPECT_EQ(prober.edge_probe(0, 1, 5), 1);
  EXPECT_EQ(prober.vertex_probe(1, 0, 5), 1);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  // s - {a1, a2, a3} - m - {b1, b2, b3} - t: the single vertex m bounds
  // κ, the three edges on either side of it bound λ.
  enum : NodeId { s, a1, a2, a3, m, b1, b2, b3, t, kNodes };
  const Graph g = Graph::from_edges(
      kNodes, std::vector<Edge>{{s, a1}, {s, a2}, {s, a3}, {a1, m}, {a2, m},
                                {a3, m}, {m, b1}, {m, b2}, {m, b3}, {b1, t},
                                {b2, t}, {b3, t}});
  ConnectivityProber prober(g);
  EXPECT_EQ(prober.vertex_probe(s, t, 9), 1);
  EXPECT_EQ(prober.edge_probe(s, t, 9), 3);
  EXPECT_EQ(prober.vertex_probe(s, t, 9),
            testing::reference_local_vertex_connectivity(g, s, t));
  EXPECT_EQ(prober.edge_probe(s, t, 9),
            testing::reference_local_edge_connectivity(g, s, t));
}

TEST(MaxFlow, ParallelPathsAdd) {
  // The 6-cycle has two disjoint 0-3 paths; a third, 0-6-3, adds one.
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 6; ++v) edges.push_back({v, (v + 1) % 6});
  const Graph ring = Graph::from_edges(6, edges);
  edges.push_back({0, 6});
  edges.push_back({6, 3});
  const Graph more = Graph::from_edges(7, edges);
  ConnectivityProber ring_prober(ring);
  ConnectivityProber more_prober(more);
  EXPECT_EQ(ring_prober.vertex_probe(0, 3, 9), 2);
  EXPECT_EQ(ring_prober.edge_probe(0, 3, 9), 2);
  EXPECT_EQ(more_prober.vertex_probe(0, 3, 9), 3);
  EXPECT_EQ(more_prober.edge_probe(0, 3, 9), 3);
}

/// s-a-b-t is the shortest path and blocks both longer routes: c's only
/// way on runs through b, and b ends at t.  Two disjoint s-t paths need
/// s-c-c2-b-t and s-a-d-d2-t, so a-b carries nothing in the maximum.
enum : NodeId { kS, kA, kB, kC, kC2, kD, kD2, kT, kRerouteNodes };
Graph reroute_graph() {
  return Graph::from_edges(
      kRerouteNodes,
      std::vector<Edge>{{kS, kA}, {kS, kC}, {kA, kB}, {kA, kD}, {kB, kT},
                        {kC, kC2}, {kC2, kB}, {kD, kD2}, {kD2, kT}});
}

TEST(MaxFlow, RequiresResidualRerouting) {
  const Graph g = reroute_graph();
  ConnectivityProber prober(g);
  EXPECT_EQ(prober.vertex_probe(kS, kT, 9), 2);
  EXPECT_EQ(prober.edge_probe(kS, kT, 9), 2);
  EXPECT_EQ(testing::reference_local_vertex_connectivity(g, kS, kT), 2);
}

TEST(MaxFlow, CancelsEarlierFlowThroughReverseArc) {
  // Into N(t) = {b, d2}: the first path is s-a-b.  The second enters b
  // from c2, walks back along a -> b and leaves a for d, cancelling it.
  const Graph g = reroute_graph();
  const auto rank = kappa_rank(g, kS, kT);
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(kS, 1, rank, 1), 1);
  EXPECT_EQ(fans.paths(), (std::vector<std::vector<NodeId>>{{kS, kA, kB}}));
  EXPECT_EQ(fans.fan(kS, 9, rank, 1), 2);
  EXPECT_EQ(fans.paths(), (std::vector<std::vector<NodeId>>{
                              {kS, kC, kC2, kB}, {kS, kA, kD, kD2}}));
}

TEST(MaxFlow, LimitStopsEarly) {
  const Graph g = complete_graph(6);
  ConnectivityProber prober(g);
  EXPECT_EQ(prober.vertex_probe(0, 1, 9), 5);
  EXPECT_EQ(prober.vertex_probe(0, 1, 3), 3);
  EXPECT_EQ(prober.edge_probe(0, 1, 2), 2);
  EXPECT_EQ(prober.vertex_probe(0, 1, 0), 0);
  EXPECT_EQ(prober.edge_probe(0, 1, -1), 0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  const Graph g = Graph::from_edges(5, std::vector<Edge>{{0, 1}, {2, 3}});
  ConnectivityProber prober(g);
  EXPECT_EQ(prober.vertex_probe(0, 2, 9), 0);
  EXPECT_EQ(prober.edge_probe(0, 3, 9), 0);
  EXPECT_EQ(prober.vertex_probe(4, 1, 9), 0);
}

TEST(MaxFlow, ReusableAcrossQueries) {
  // One prober answers many (s, t, limit) questions; each call marks
  // and restores its own sink set, so answers never depend on history.
  const Graph g = reroute_graph();
  ConnectivityProber prober(g);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(prober.vertex_probe(kS, kT, 9), 2);
    EXPECT_EQ(prober.vertex_probe(kS, kT, 1), 1);   // capped repeat
    EXPECT_EQ(prober.vertex_probe(kT, kS, 9), 2);   // reversed
    EXPECT_EQ(prober.vertex_probe(kS, kA, 9), 2);   // adjacent pair
    EXPECT_EQ(prober.edge_probe(kC, kD2, 9), 2);    // different pair
    EXPECT_EQ(prober.vertex_probe(kC2, kT, 9), 2);  // c2-b-t, c2-c-s-a-d-d2-t
  }
}

TEST(MaxFlow, FlowNeverEntersADeadEnd) {
  // s-a-b-t with a trap a-x1-x2 of no exit: the search explores the
  // trap, but the fan's only path does not enter it.
  enum : NodeId { s, a, b, t, x1, x2, kNodes };
  const Graph g = Graph::from_edges(
      kNodes, std::vector<Edge>{{s, a}, {a, b}, {b, t}, {a, x1}, {x1, x2}});
  const auto rank = sink_rank(kNodes, std::vector<NodeId>{t});
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(s, 9, rank, 1), 1);
  EXPECT_EQ(fans.paths(), (std::vector<std::vector<NodeId>>{{s, a, b, t}}));
}

TEST(MaxFlow, FlowOnIsAValidFlowAfterEveryQuery) {
  // After every query on one FanSearch, its paths read-out is a fan of
  // the returned size: simple paths over edges of g from the source,
  // each ending at its own vertex of S with no other S vertex on it,
  // sharing no vertex but the source.
  Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(4 + rng.next_below(20));
    const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
    const Graph g = random_gnm(
        n, std::min<std::int64_t>(max_m, static_cast<std::int64_t>(
                                             rng.next_below(60))),
        rng);
    std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), 0);
    FanSearch fans(g);
    for (int query = 0; query < 6; ++query) {
      rng.shuffle(std::span<std::int32_t>(rank));
      const auto bound = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      NodeId source = 0;
      while (rank[static_cast<std::size_t>(source)] < bound) ++source;
      const auto limit = query % 2 == 0
                             ? std::numeric_limits<std::int32_t>::max()
                             : static_cast<std::int32_t>(rng.next_below(5));
      const std::int32_t value = fans.fan(source, limit, rank, bound);
      const auto paths = fans.paths();
      ASSERT_EQ(static_cast<std::int32_t>(paths.size()), value)
          << "trial " << trial << " query " << query;
      std::vector<bool> used(static_cast<std::size_t>(n), false);
      for (const auto& path : paths) {
        ASSERT_GE(path.size(), 2u);
        ASSERT_EQ(path.front(), source);
        for (std::size_t i = 1; i < path.size(); ++i) {
          ASSERT_TRUE(g.has_edge(path[i - 1], path[i]))
              << "trial " << trial << " query " << query;
          const auto v = static_cast<std::size_t>(path[i]);
          ASSERT_EQ(rank[v] < bound, i + 1 == path.size())
              << "trial " << trial << " query " << query << " vertex " << v;
          ASSERT_FALSE(used[v])
              << "trial " << trial << " query " << query << " vertex " << v;
          used[v] = true;
        }
      }
    }
  }
}

TEST(MaxFlow, MinCutSourceSide) {
  // The path 0-1-2-3-4 probed as (0, 4): every inner vertex is a
  // minimum cut, and the read-out is the one closest to the sink.
  const Graph g = path_graph(5);
  const auto rank = kappa_rank(g, 0, 4);
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(0, 9, rank, 1), 1);
  EXPECT_EQ(fans.vertex_cut(), (std::vector<NodeId>{3}));
}

TEST(MaxFlow, MinCutValidAfterPhaseOneOnly) {
  // A dead-end branch hangs off the source side and the last search
  // explores it; the cut must still have the fan's size and separate
  // the source from the sink set.
  enum : NodeId { s, a, b, t, x1, x2, kNodes };
  const Graph g = Graph::from_edges(
      kNodes, std::vector<Edge>{{s, a}, {a, b}, {b, t}, {a, x1}, {x1, x2}});
  const auto rank = kappa_rank(g, s, t);
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(s, 9, rank, 1), 1);
  const auto cut = fans.vertex_cut();
  EXPECT_EQ(cut, (std::vector<NodeId>{b}));
  EXPECT_FALSE(is_connected_after_node_removal(g, cut));
}

TEST(MaxFlow, Validation) {
  const Graph g = complete_graph(5);
  ConnectivityProber prober(g);
  EXPECT_THROW(prober.vertex_probe(0, 0, 3), std::invalid_argument);
  EXPECT_THROW(prober.edge_probe(0, 9, 3), std::invalid_argument);
  FanSearch fans(g);
  EXPECT_THROW(fans.paths(), std::invalid_argument);
  EXPECT_THROW(fans.vertex_cut(), std::invalid_argument);
  // Four disjoint paths exist, so a fan stopped at two is not maximum
  // and has no minimum cut to read.
  const auto rank = sink_rank(5, std::vector<NodeId>{1, 2, 3, 4});
  EXPECT_EQ(fans.fan(0, 2, rank, 1), 2);
  EXPECT_EQ(fans.paths().size(), 2u);
  EXPECT_THROW(fans.vertex_cut(), std::invalid_argument);
  EXPECT_EQ(fans.fan(0, 4, rank, 1), 4);
  EXPECT_EQ(fans.vertex_cut(), (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(MaxFlow, UnitBipartiteMatchingShape) {
  // Source 0 joined to the left side 1..3; a fan into the right side
  // 4..6 is a matching, and the perfect one has size 3.
  const Graph g = Graph::from_edges(
      7, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {2, 4},
                           {3, 6}});
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(0, 9, sink_rank(7, std::vector<NodeId>{4, 5, 6}), 1), 3);
}

TEST(MaxFlow, AgreesWithDinicOnRandomNetworks) {
  // On random graphs with random sink sets: the maximum fan's size and
  // its sink-closest cut against Dinic on Even's split network built
  // out in full, with edge arcs and the set's arcs into the super-sink
  // of capacity n+1, so only split arcs can be cut.  The cut carries
  // exactly the fan's value.
  Rng rng(20260809);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(4 + rng.next_below(24));
    const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
    const Graph g = random_gnm(
        n, std::min<std::int64_t>(max_m, static_cast<std::int64_t>(
                                             rng.next_below(80))),
        rng);
    std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), 0);
    rng.shuffle(std::span<std::int32_t>(rank));
    const auto bound = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    NodeId source = 0;
    while (rank[static_cast<std::size_t>(source)] < bound) ++source;

    const std::int32_t big = n + 1;
    const std::int32_t sink = 2 * n;
    testing::ReferenceFlowNetwork net(sink + 1);
    for (NodeId v = 0; v < n; ++v) {
      net.add_arc(2 * v, 2 * v + 1, 1);
      if (rank[static_cast<std::size_t>(v)] < bound) {
        net.add_arc(2 * v + 1, sink, big);
      }
    }
    for (const Edge e : g.edges()) {
      net.add_arc(2 * e.u + 1, 2 * e.v, big);
      net.add_arc(2 * e.v + 1, 2 * e.u, big);
    }
    FanSearch fans(g);
    const std::int32_t value = fans.fan(source, big, rank, bound);
    ASSERT_EQ(value, net.max_flow(2 * source + 1, sink)) << "trial " << trial;
    const auto sink_side = net.min_cut_sink_side(sink);
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < n; ++v) {
      if (!sink_side[static_cast<std::size_t>(2 * v)] &&
          sink_side[static_cast<std::size_t>(2 * v + 1)]) {
        expected.push_back(v);
      }
    }
    ASSERT_EQ(fans.vertex_cut(), expected) << "trial " << trial;
    ASSERT_EQ(static_cast<std::int32_t>(expected.size()), value)
        << "trial " << trial;
  }
}

/// The largest fan from `source` to {v : rank[v] < bound}, capped at
/// `limit`, by Dinic on Even's split network built out in full: v_in =
/// 2v, v_out = 2v+1, a unit arc v_in -> v_out, unit arcs both ways per
/// edge, and v_out -> T for every set vertex.
std::int32_t reference_fan(const Graph& g, NodeId source,
                           std::span<const std::int32_t> rank,
                           std::int32_t bound, std::int32_t limit) {
  const std::int32_t sink = 2 * g.num_nodes();
  testing::ReferenceFlowNetwork net(sink + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.add_arc(2 * v, 2 * v + 1, 1);
    if (rank[static_cast<std::size_t>(v)] < bound) net.add_arc(2 * v + 1, sink, 1);
  }
  for (const Edge e : g.edges()) {
    net.add_arc(2 * e.u + 1, 2 * e.v, 1);
    net.add_arc(2 * e.v + 1, 2 * e.u, 1);
  }
  return static_cast<std::int32_t>(net.max_flow(2 * source + 1, sink, limit));
}

TEST(FanSearch, AgreesWithDinicOnRandomGraphs) {
  // One FanSearch per graph answers many (source, set, limit) queries,
  // so each query also checks that the previous one was fully undone.
  Rng rng(27182818);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(4 + rng.next_below(30));
    std::vector<Edge> edges;
    const double p = 0.05 + 0.4 * rng.next_double();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.next_bool(p)) edges.push_back({u, v});
      }
    }
    const Graph g = Graph::from_edges(n, edges);
    std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), 0);
    FanSearch fans(g);
    for (int query = 0; query < 8; ++query) {
      rng.shuffle(std::span<std::int32_t>(rank));
      const auto bound = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      NodeId source = 0;
      while (rank[static_cast<std::size_t>(source)] < bound) ++source;
      const auto limit = query % 2 == 0
                             ? std::numeric_limits<std::int32_t>::max()
                             : static_cast<std::int32_t>(rng.next_below(5));
      ASSERT_EQ(fans.fan(source, limit, rank, bound),
                reference_fan(g, source, rank, bound, limit))
          << "trial " << trial << " query " << query;
    }
  }
}

TEST(FanSearch, ReroutesAroundAVertexItUsed) {
  // Sinks w and z.  The first search reaches w by s-u-x-w.  The second
  // path must enter w from y2, walk back along x -> w and through x
  // (x_out -> x_in), back along u -> x, and leave u for z: x ends up
  // unused, and the fan {s-y-y2-w, s-u-z1-z2-z} has size 2.
  enum : NodeId { s, u, y, x, w, y2, z1, z2, z, kNodes };
  const Graph g = Graph::from_edges(
      kNodes, std::vector<Edge>{{s, u}, {s, y}, {u, x}, {x, w}, {y, y2},
                                {y2, w}, {u, z1}, {z1, z2}, {z2, z}});
  std::vector<std::int32_t> rank(kNodes, 2);
  rank[w] = 0;
  rank[z] = 1;
  FanSearch fans(g);
  EXPECT_EQ(fans.fan(s, 1, rank, 2), 1);
  EXPECT_EQ(fans.fan(s, 5, rank, 2), 2);
  EXPECT_EQ(reference_fan(g, s, rank, 2, 5), 2);
}

TEST(FanSearch, Validation) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  FanSearch fans(g);
  const std::vector<std::int32_t> rank{0, 1, 2};
  EXPECT_THROW(fans.fan(3, 1, rank, 1), std::invalid_argument);
  EXPECT_THROW(fans.fan(0, 1, rank, 1), std::invalid_argument);  // in set
  EXPECT_THROW(fans.fan(2, 1, std::vector<std::int32_t>{0, 1}, 1),
               std::invalid_argument);
  EXPECT_EQ(fans.fan(2, 3, rank, 2), 1);
}

/// The most edge-disjoint paths from `source` to {v : rank[v] < bound},
/// capped at `limit`, by Dinic on the edge network built out in full:
/// unit arcs both ways per edge, and an arc of capacity deg(v) from every
/// set vertex v to a super-sink (enough for every path that can end at v).
std::int32_t reference_edge_fan(const Graph& g, NodeId source,
                                std::span<const std::int32_t> rank,
                                std::int32_t bound, std::int32_t limit) {
  const std::int32_t sink = g.num_nodes();
  testing::ReferenceFlowNetwork net(sink + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rank[static_cast<std::size_t>(v)] < bound) {
      net.add_arc(v, sink, g.degree(v));
    }
  }
  for (const Edge e : g.edges()) {
    net.add_arc(e.u, e.v, 1);
    net.add_arc(e.v, e.u, 1);
  }
  return static_cast<std::int32_t>(net.max_flow(source, sink, limit));
}

TEST(EdgeFanSearch, AgreesWithDinicOnRandomGraphs) {
  // One EdgeFanSearch per graph answers many (source, set, limit)
  // queries, so each query also checks that the previous one was fully
  // undone.
  Rng rng(31415926);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(4 + rng.next_below(30));
    std::vector<Edge> edges;
    const double p = 0.05 + 0.4 * rng.next_double();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.next_bool(p)) edges.push_back({u, v});
      }
    }
    const Graph g = Graph::from_edges(n, edges);
    std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), 0);
    EdgeFanSearch fans(g);
    for (int query = 0; query < 8; ++query) {
      rng.shuffle(std::span<std::int32_t>(rank));
      const auto bound = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      NodeId source = 0;
      while (rank[static_cast<std::size_t>(source)] < bound) ++source;
      const auto limit = query % 2 == 0
                             ? std::numeric_limits<std::int32_t>::max()
                             : static_cast<std::int32_t>(rng.next_below(5));
      ASSERT_EQ(fans.fan(source, limit, rank, bound),
                reference_edge_fan(g, source, rank, bound, limit))
          << "trial " << trial << " query " << query;
    }
  }
}

TEST(EdgeFanSearch, LaterPathCancelsAnEarlierUnit) {
  // Sinks t, z and w.  The first search takes the shortest path
  // s-u-v-t.  The second reaches a sink soonest by entering v from y2
  // and leaving back along u -> v, which cancels that unit:
  // s-y-y2-v-u-z1-z2-z (the routes through a and b are longer).  The
  // third, s-p-a1-a2-a-u-v-b-b1-b2-b3-w, crosses u -> v again, which it
  // can only do because the second path left the edge free.
  enum : NodeId { s, u, y, p, v, y2, a1, a2, a, z1, z2, z, t, b, b1, b2, b3,
                  w, kNodes };
  const Graph g = Graph::from_edges(
      kNodes,
      std::vector<Edge>{{s, u},   {s, y},   {s, p},   {u, v},   {v, t},
                        {y, y2},  {y2, v},  {u, z1},  {z1, z2}, {z2, z},
                        {p, a1},  {a1, a2}, {a2, a},  {a, u},   {v, b},
                        {b, b1},  {b1, b2}, {b2, b3}, {b3, w}});
  std::vector<std::int32_t> rank(kNodes, 3);
  rank[t] = 0;
  rank[z] = 1;
  rank[w] = 2;
  EdgeFanSearch fans(g);
  EXPECT_EQ(fans.fan(s, 1, rank, 3), 1);
  EXPECT_EQ(fans.fan(s, 2, rank, 3), 2);
  EXPECT_EQ(fans.fan(s, 5, rank, 3), 3);
  EXPECT_EQ(reference_edge_fan(g, s, rank, 3, 5), 3);
}

TEST(EdgeFanSearch, BackToBackQueriesStartFromZeroFlow) {
  // On the 6-cycle, 0 -> {3} takes 0-1-2-3 and 0-5-4-3.  Left in place,
  // that flow would block both of 1 -> {4}'s paths (1-2-3-4, 1-0-5-4).
  std::vector<Edge> ring;
  for (NodeId v = 0; v < 6; ++v) ring.push_back({v, (v + 1) % 6});
  const Graph g = Graph::from_edges(6, ring);
  const auto only = [](NodeId w) {
    std::vector<std::int32_t> rank(6, 1);
    rank[static_cast<std::size_t>(w)] = 0;
    return rank;
  };
  EdgeFanSearch fans(g);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(fans.fan(0, 5, only(3), 1), 2) << "round " << round;
    EXPECT_EQ(fans.fan(1, 5, only(4), 1), 2) << "round " << round;
    EXPECT_EQ(fans.fan(1, 1, only(4), 1), 1) << "round " << round;
  }
}

TEST(EdgeFanSearch, Validation) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EdgeFanSearch fans(g);
  const std::vector<std::int32_t> rank{0, 1, 2};
  EXPECT_THROW(fans.fan(3, 1, rank, 1), std::invalid_argument);
  EXPECT_THROW(fans.fan(0, 1, rank, 1), std::invalid_argument);  // in set
  EXPECT_THROW(fans.fan(2, 1, std::vector<std::int32_t>{0, 1}, 1),
               std::invalid_argument);
  EXPECT_EQ(fans.fan(2, 3, rank, 2), 1);
}

}  // namespace
}  // namespace lhg::core
