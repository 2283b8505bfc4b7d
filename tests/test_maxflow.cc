// Unit tests for the augmenting-path max-flow engine, including the
// reusable-query contract (one network, many (s, t, limit) questions),
// the valid-flow contract (flow_on is a flow after every query), and
// cross-checks against the retired Dinic reference
// (core/testing/reference_flow.h); and the local fan searches against
// Dinic: `FanSearch` on Even's explicit vertex-split network,
// `EdgeFanSearch` on the edge network with a super-sink fed by the set.

#include "core/maxflow.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/graph.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "core/testing/reference_flow.h"

namespace lhg::core {
namespace {

TEST(MaxFlow, SingleArc) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 7);
  net.add_arc(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
}

TEST(MaxFlow, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 3, 2);
  net.add_arc(0, 2, 3);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(MaxFlow, ClassicTextbookNetwork) {
  // CLRS figure: max flow 23.
  FlowNetwork net(6);
  net.add_arc(0, 1, 16);
  net.add_arc(0, 2, 13);
  net.add_arc(1, 2, 10);
  net.add_arc(2, 1, 4);
  net.add_arc(1, 3, 12);
  net.add_arc(3, 2, 9);
  net.add_arc(2, 4, 14);
  net.add_arc(4, 3, 7);
  net.add_arc(3, 5, 20);
  net.add_arc(4, 5, 4);
  EXPECT_EQ(net.max_flow(0, 5), 23);
}

TEST(MaxFlow, RequiresResidualRerouting) {
  // The only max solution reroutes flow pushed greedily through the
  // middle arc.
  FlowNetwork net(4);
  net.add_arc(0, 1, 1);
  net.add_arc(0, 2, 1);
  net.add_arc(1, 2, 1);
  net.add_arc(1, 3, 1);
  net.add_arc(2, 3, 1);
  EXPECT_EQ(net.max_flow(0, 3), 2);
}

TEST(MaxFlow, LimitStopsEarly) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 100);
  EXPECT_EQ(net.max_flow(0, 1, 7), 7);
  EXPECT_EQ(net.max_flow(0, 1, 0), 0);
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 4);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, ReusableAcrossQueries) {
  // The same solver answers many (source, sink, limit) questions; each
  // call resets per-query state, so answers never depend on history.
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 3, 2);
  net.add_arc(0, 2, 3);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
  EXPECT_EQ(net.max_flow(0, 3), 5);     // repeat, same answer
  EXPECT_EQ(net.max_flow(0, 3, 4), 4);  // capped repeat
  EXPECT_EQ(net.max_flow(3, 0), 0);     // reverse direction: no arcs
  EXPECT_EQ(net.max_flow(0, 1), 2);     // different sink
  EXPECT_EQ(net.max_flow(0, 3), 5);     // back to the original query
}

TEST(MaxFlow, SharedScratchAcrossSolvers) {
  MaxflowScratch scratch;
  // Start near the top of the visit stamps, so the queries below also
  // run across their wrap-around.
  scratch.stamp = std::numeric_limits<std::uint32_t>::max() - 3;
  FlowNetwork small(2);
  small.add_arc(0, 1, 1);
  FlowNetwork large(5);
  large.add_arc(0, 1, 3);
  large.add_arc(1, 4, 2);
  EXPECT_EQ(small.max_flow(0, 1, INT64_MAX, scratch), 1);
  EXPECT_EQ(large.max_flow(0, 4, INT64_MAX, scratch), 2);
  EXPECT_EQ(small.max_flow(0, 1, INT64_MAX, scratch), 1);
}

TEST(MaxFlow, FlowOnReportsPerArc) {
  FlowNetwork net(3);
  const auto a01 = net.add_arc(0, 1, 2);
  const auto a12 = net.add_arc(1, 2, 9);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  EXPECT_EQ(net.flow_on(a01), 2);
  EXPECT_EQ(net.flow_on(a12), 2);
  EXPECT_THROW(net.flow_on(99), std::invalid_argument);
}

TEST(MaxFlow, FlowNeverEntersADeadEnd) {
  // 0 -> 1 (cap 5) with 1 -> 2 -> sink 3 the only way through (cap 1),
  // plus a trap 1 -> 4 with no exit: no flow may end up on the trap.
  FlowNetwork net(5);
  const auto a01 = net.add_arc(0, 1, 5);
  const auto a12 = net.add_arc(1, 2, 1);
  const auto a23 = net.add_arc(2, 3, 1);
  const auto a14 = net.add_arc(1, 4, 3);
  EXPECT_EQ(net.max_flow(0, 3), 1);
  EXPECT_EQ(net.flow_on(a01), 1);
  EXPECT_EQ(net.flow_on(a12), 1);
  EXPECT_EQ(net.flow_on(a23), 1);
  EXPECT_EQ(net.flow_on(a14), 0);  // the dead end carries nothing
}

TEST(MaxFlow, MinCutSourceSide) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 10);
  net.add_arc(1, 2, 1);  // the bottleneck
  net.add_arc(2, 3, 10);
  EXPECT_EQ(net.max_flow(0, 3), 1);
  const auto side = net.min_cut_source_side();
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlow, MinCutValidAfterPhaseOneOnly) {
  // A dead-end branch hangs off the source side; the cut read off
  // sink-side reachability must still have capacity == flow value.
  FlowNetwork net(5);
  net.add_arc(0, 1, 5);
  net.add_arc(1, 2, 1);
  net.add_arc(2, 3, 1);
  net.add_arc(1, 4, 3);
  EXPECT_EQ(net.max_flow(0, 3), 1);
  const auto side = net.min_cut_source_side();
  EXPECT_TRUE(side[0]);
  // Cut capacity across (S, V-S) counting only forward arcs.
  // Arcs: 0->1 (5), 1->2 (1), 2->3 (1), 1->4 (3).
  struct Arc {
    int u, v;
    std::int64_t cap;
  };
  const std::vector<Arc> arcs{{0, 1, 5}, {1, 2, 1}, {2, 3, 1}, {1, 4, 3}};
  std::int64_t crossing = 0;
  for (const auto& a : arcs) {
    if (side[static_cast<std::size_t>(a.u)] &&
        !side[static_cast<std::size_t>(a.v)]) {
      crossing += a.cap;
    }
  }
  EXPECT_EQ(crossing, 1);
}

TEST(MaxFlow, Validation) {
  EXPECT_THROW(FlowNetwork(-1), std::invalid_argument);
  FlowNetwork net(2);
  EXPECT_THROW(net.add_arc(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(net.add_arc(0, 1, -1), std::invalid_argument);
  EXPECT_THROW(net.add_arc(0, 1, std::int64_t{1} << 40),
               std::invalid_argument);
  EXPECT_THROW(net.max_flow(0, 0), std::invalid_argument);
  EXPECT_THROW(net.max_flow(0, 9), std::invalid_argument);
  net.add_arc(0, 1, 1);
  EXPECT_EQ(net.max_flow(0, 1), 1);
  // The arc structure is frozen by the first query.
  EXPECT_THROW(net.add_arc(1, 0, 1), std::invalid_argument);
}

TEST(MaxFlow, UnitBipartiteMatchingShape) {
  // 3x3 bipartite unit network, perfect matching = 3.
  FlowNetwork net(8);  // 0 src, 1..3 left, 4..6 right, 7 sink
  for (int l = 1; l <= 3; ++l) net.add_arc(0, l, 1);
  for (int r = 4; r <= 6; ++r) net.add_arc(r, 7, 1);
  net.add_arc(1, 4, 1);
  net.add_arc(1, 5, 1);
  net.add_arc(2, 4, 1);
  net.add_arc(3, 6, 1);
  EXPECT_EQ(net.max_flow(0, 7), 3);
}

struct RandomArc {
  std::int32_t u, v;
  std::int64_t cap;
};

/// A random network on 4..15 vertices with up to 59 arcs.  Capacities
/// include 0 and repeats so degenerate arcs get exercised.
std::vector<RandomArc> random_network(Rng& rng, std::int32_t* n) {
  *n = 4 + static_cast<std::int32_t>(rng.next_below(12));
  const std::int32_t arcs = static_cast<std::int32_t>(rng.next_below(60));
  std::vector<RandomArc> out;
  for (std::int32_t a = 0; a < arcs; ++a) {
    const auto u = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(*n)));
    const auto v = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(*n)));
    if (u == v) continue;
    out.push_back({u, v, static_cast<std::int64_t>(rng.next_below(7))});
  }
  return out;
}

TEST(MaxFlow, AgreesWithDinicOnRandomNetworks) {
  // Randomized cross-check against the reference Dinic: same arcs, same
  // (s, t, limit) queries, identical values.  The sink-side cut of the
  // uncapped query must carry exactly its value, and the reversed
  // query (t, s) must agree too.
  Rng rng(20260809);
  for (int trial = 0; trial < 40; ++trial) {
    std::int32_t n = 0;
    const auto arcs = random_network(rng, &n);
    FlowNetwork pr(n);
    testing::ReferenceFlowNetwork dinic(n);
    for (const auto& a : arcs) {
      pr.add_arc(a.u, a.v, a.cap);
      dinic.add_arc(a.u, a.v, a.cap);
    }
    const std::int32_t s = 0;
    const std::int32_t t = n - 1;
    const std::int64_t full = pr.max_flow(s, t);
    {
      testing::ReferenceFlowNetwork fresh = dinic;
      ASSERT_EQ(full, fresh.max_flow(s, t)) << "trial " << trial;
    }
    const auto side = pr.min_cut_source_side();
    ASSERT_TRUE(side[static_cast<std::size_t>(s)]) << "trial " << trial;
    ASSERT_FALSE(side[static_cast<std::size_t>(t)]) << "trial " << trial;
    std::int64_t crossing = 0;
    for (const auto& a : arcs) {
      if (side[static_cast<std::size_t>(a.u)] &&
          !side[static_cast<std::size_t>(a.v)]) {
        crossing += a.cap;
      }
    }
    ASSERT_EQ(crossing, full) << "trial " << trial;
    // Capped query, run on the SAME network (reset path).
    const std::int64_t limit = static_cast<std::int64_t>(rng.next_below(5));
    const std::int64_t capped = pr.max_flow(s, t, limit);
    ASSERT_EQ(capped, std::min(full, limit)) << "trial " << trial;
    {
      testing::ReferenceFlowNetwork fresh = dinic;
      ASSERT_EQ(pr.max_flow(t, s), fresh.max_flow(t, s)) << "trial " << trial;
    }
  }
}

TEST(MaxFlow, FlowOnIsAValidFlowAfterEveryQuery) {
  // Every query leaves a flow, with no conversion step: capacity bounds
  // on every arc, conservation everywhere but s and t, and the source's
  // net outflow equal to the returned value.
  Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    std::int32_t n = 0;
    const auto arcs = random_network(rng, &n);
    FlowNetwork net(n);
    for (const auto& a : arcs) net.add_arc(a.u, a.v, a.cap);
    for (int query = 0; query < 6; ++query) {
      const auto s = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<std::int32_t>(
          (s + 1 + static_cast<std::int32_t>(rng.next_below(
                       static_cast<std::uint64_t>(n - 1)))) % n);
      const std::int64_t limit =
          query % 2 == 0 ? std::numeric_limits<std::int64_t>::max()
                         : static_cast<std::int64_t>(rng.next_below(6));
      const std::int64_t value = net.max_flow(s, t, limit);
      std::vector<std::int64_t> net_out(static_cast<std::size_t>(n), 0);
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        const std::int64_t f = net.flow_on(static_cast<std::int32_t>(i));
        ASSERT_GE(f, 0) << "trial " << trial << " arc " << i;
        ASSERT_LE(f, arcs[i].cap) << "trial " << trial << " arc " << i;
        net_out[static_cast<std::size_t>(arcs[i].u)] += f;
        net_out[static_cast<std::size_t>(arcs[i].v)] -= f;
      }
      for (std::int32_t v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        ASSERT_EQ(net_out[static_cast<std::size_t>(v)], 0)
            << "trial " << trial << " query " << query << " vertex " << v;
      }
      ASSERT_EQ(net_out[static_cast<std::size_t>(s)], value)
          << "trial " << trial << " query " << query;
    }
  }
}

TEST(MaxFlow, CancelsEarlierFlowThroughReverseArc) {
  // The shortest path s -> a -> b -> t is the first augmentation, and it
  // blocks both longer routes: c's only exit runs through b, and b's
  // only exit is t.  The maximum (2) needs a second path that walks
  // s -> c -> c2 -> b, back along the reverse of a -> b, then
  // a -> d -> d2 -> t — so a -> b ends with no flow.
  enum : std::int32_t { s, a, b, c, c2, d, d2, t, kNodes };
  const std::vector<RandomArc> arcs{{s, a, 1},  {s, c, 1},  {a, b, 1},
                                    {a, d, 1},  {b, t, 1},  {c, c2, 1},
                                    {c2, b, 1}, {d, d2, 1}, {d2, t, 1}};
  FlowNetwork net(kNodes);
  testing::ReferenceFlowNetwork dinic(kNodes);
  for (const auto& arc : arcs) {
    net.add_arc(arc.u, arc.v, arc.cap);
    dinic.add_arc(arc.u, arc.v, arc.cap);
  }
  EXPECT_EQ(net.max_flow(s, t, 1), 1);
  EXPECT_EQ(net.flow_on(2), 1);  // the capped query took a -> b
  EXPECT_EQ(net.max_flow(s, t), dinic.max_flow(s, t));
  EXPECT_EQ(net.max_flow(s, t), 2);
  EXPECT_EQ(net.flow_on(2), 0);  // a -> b cancelled
  for (const std::int32_t i : {0, 1, 3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(net.flow_on(i), 1) << "arc " << i;
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
