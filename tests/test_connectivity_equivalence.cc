// Old-vs-new connectivity equivalence: the certificate-then-max-flow
// production path (core/connectivity.cc) against the retired per-pair
// Dinic reference (core/testing/reference_flow.h), plus golden value
// pins on both paths, Even's ordered κ and λ tests under random and
// pinned orders, and 1-vs-N thread determinism for the new kernels.
//
// The exhaustive LHG grid test is labeled `slow` (tests/CMakeLists.txt);
// everything else stays in the fast suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/connectivity.h"
#include "core/parallel.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "core/testing/reference_flow.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg::core {
namespace {

Graph petersen() {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.push_back({i, static_cast<NodeId>((i + 1) % 5)});
    edges.push_back(
        {static_cast<NodeId>(5 + i), static_cast<NodeId>(5 + (i + 2) % 5)});
    edges.push_back({i, static_cast<NodeId>(i + 5)});
  }
  return Graph::from_edges(10, edges);
}

/// Both paths, all four global quantities, uncapped and capped.
void expect_paths_agree(const Graph& g, std::int32_t cap,
                        const char* label) {
  EXPECT_EQ(vertex_connectivity(g),
            testing::reference_vertex_connectivity(g))
      << label;
  EXPECT_EQ(edge_connectivity(g), testing::reference_edge_connectivity(g))
      << label;
  EXPECT_EQ(vertex_connectivity(g, cap),
            testing::reference_vertex_connectivity(g, cap))
      << label << " cap=" << cap;
  EXPECT_EQ(edge_connectivity(g, cap),
            testing::reference_edge_connectivity(g, cap))
      << label << " cap=" << cap;
}

TEST(ConnectivityEquivalence, GoldenPetersen) {
  const Graph g = petersen();
  // κ(Petersen) = λ(Petersen) = 3, pinned on both paths.
  EXPECT_EQ(vertex_connectivity(g), 3);
  EXPECT_EQ(edge_connectivity(g), 3);
  EXPECT_EQ(testing::reference_vertex_connectivity(g), 3);
  EXPECT_EQ(testing::reference_edge_connectivity(g), 3);
  const auto cut = minimum_vertex_cut(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->size(), 3u);
}

TEST(ConnectivityEquivalence, GoldenHarary) {
  // H(k, n) has κ = λ = k by Harary's theorem; pinned on both paths
  // across all three parity cases of the construction.
  for (const std::int32_t k : {2, 3, 4, 5, 6}) {
    for (const NodeId n : {8, 13, 20, 33}) {
      if (n <= k) continue;
      const Graph h = harary::circulant(n, k);
      EXPECT_EQ(vertex_connectivity(h, k + 1), k) << "H(" << k << "," << n << ")";
      EXPECT_EQ(edge_connectivity(h, k + 1), k) << "H(" << k << "," << n << ")";
      EXPECT_EQ(testing::reference_vertex_connectivity(h, k + 1), k)
          << "H(" << k << "," << n << ")";
      EXPECT_EQ(testing::reference_edge_connectivity(h, k + 1), k)
          << "H(" << k << "," << n << ")";
    }
  }
}

TEST(ConnectivityEquivalence, GoldenLhgGrid) {
  // A representative (n, k, constraint) sample of the LHG family: both
  // paths agree, and κ = λ = k exactly (min degree k caps them above,
  // P1/P2 bound them below).
  for (const auto c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    for (const std::int32_t k : {2, 3, 4}) {
      for (const NodeId n : {11, 16, 25, 40}) {
        if (!lhg::exists(n, k, c)) continue;
        const Graph g = lhg::build(n, k, c);
        const auto nv = vertex_connectivity(g, k + 1);
        const auto ne = edge_connectivity(g, k + 1);
        EXPECT_EQ(nv, testing::reference_vertex_connectivity(g, k + 1))
            << to_string(c) << " n=" << n << " k=" << k;
        EXPECT_EQ(ne, testing::reference_edge_connectivity(g, k + 1))
            << to_string(c) << " n=" << n << " k=" << k;
        EXPECT_EQ(nv, k) << to_string(c) << " n=" << n << " k=" << k;
        EXPECT_EQ(ne, k) << to_string(c) << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ConnectivityEquivalence, LocalProbesAgreeOnRandomGraphs) {
  Rng rng(515253);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<NodeId>(8 + rng.next_below(16));
    const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
    const Graph g =
        random_gnm(n, std::min<std::int64_t>(
                          max_m, 6 + static_cast<std::int64_t>(
                                         rng.next_below(40))),
                   rng);
    for (int q = 0; q < 6; ++q) {
      const auto s = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (s == t) continue;
      const auto limit =
          static_cast<std::int32_t>(1 + rng.next_below(5));
      EXPECT_EQ(local_edge_connectivity(g, s, t, limit),
                testing::reference_local_edge_connectivity(g, s, t, limit));
      EXPECT_EQ(local_vertex_connectivity(g, s, t, limit),
                testing::reference_local_vertex_connectivity(g, s, t, limit));
      EXPECT_EQ(local_edge_connectivity(g, s, t),
                testing::reference_local_edge_connectivity(g, s, t));
      EXPECT_EQ(local_vertex_connectivity(g, s, t),
                testing::reference_local_vertex_connectivity(g, s, t));
    }
  }
}

TEST(ConnectivityEquivalence, RandomizedMediumN) {
  // Medium-size cross-check, where the certificate actually prunes:
  // random regular graphs (κ typically = d) and a denser G(n, m).
  Rng rng(909090);
  for (const auto& [n, d] :
       std::vector<std::pair<NodeId, std::int32_t>>{{64, 4}, {96, 6}}) {
    const Graph g = random_regular_connected(n, d, rng);
    expect_paths_agree(g, d, "regular");
  }
  const Graph dense = random_gnm(120, 1500, rng);
  expect_paths_agree(dense, 5, "gnm");
}

TEST(ConnectivityEquivalence, ExhaustiveSmallLhgGrid) {
  // Exhaustive sweep over every realizable (n, k, constraint) cell with
  // n <= 48: the production path must agree with the reference on κ and
  // λ (capped at k+1, the question the verifier asks) for every LHG the
  // repo can build.  Labeled `slow` — this is hundreds of builds.
  for (const auto c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    for (std::int32_t k = 2; k <= 5; ++k) {
      for (NodeId n = k + 1; n <= 48; ++n) {
        if (!lhg::exists(n, k, c)) continue;
        const Graph g = lhg::build(n, k, c);
        ASSERT_EQ(vertex_connectivity(g, k + 1),
                  testing::reference_vertex_connectivity(g, k + 1))
            << to_string(c) << " n=" << n << " k=" << k;
        ASSERT_EQ(edge_connectivity(g, k + 1),
                  testing::reference_edge_connectivity(g, k + 1))
            << to_string(c) << " n=" << n << " k=" << k;
      }
    }
  }
}

Graph random_gnp(NodeId n, double p, Rng& rng) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(n, edges);
}

/// Breadth-first order from vertex 0, restarted at the lowest unvisited
/// vertex until every vertex is listed.
std::vector<NodeId> bfs_order(const Graph& g) {
  std::vector<NodeId> order;
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    seen[static_cast<std::size_t>(root)] = true;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      for (const NodeId w : g.neighbors(order[head])) {
        if (seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = true;
        order.push_back(w);
      }
    }
  }
  return order;
}

/// The pinned orders the ordered λ test runs under: identity, BFS and
/// reverse BFS.
std::vector<std::vector<NodeId>> pinned_orders(const Graph& g) {
  std::vector<NodeId> identity(static_cast<std::size_t>(g.num_nodes()));
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<NodeId> bfs = bfs_order(g);
  std::vector<NodeId> reverse_bfs(bfs.rbegin(), bfs.rend());
  return {std::move(identity), std::move(bfs), std::move(reverse_bfs)};
}

TEST(ConnectivityEquivalence, FansMatchReferenceOnRandomGraphs) {
  // Even's ordered tests (the production κ and λ paths) against the
  // Dinic pair-probe oracle on G(n, p) and random regular graphs,
  // n <= 40, uncapped and every cap in 1..6: the capped values, the
  // k-connectivity predicate, and the ordered tests on the raw graph —
  // κ under a random order, λ under the pinned orders and the random one.
  std::int64_t checks = 0;
  std::int64_t below_cap = 0;
  std::int64_t lambda_below_cap = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      const auto n = static_cast<NodeId>(6 + rng.next_below(35));
      Graph g;
      if (trial % 4 == 3) {
        const auto d = static_cast<std::int32_t>(3 + rng.next_below(4));
        if (n <= d || (static_cast<std::int64_t>(n) * d) % 2 != 0) continue;
        g = random_regular(n, d, rng);
      } else {
        g = random_gnp(n, 0.1 + 0.5 * rng.next_double(), rng);
      }
      std::vector<NodeId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(std::span<NodeId>(order));
      std::vector<std::vector<NodeId>> lambda_orders = pinned_orders(g);
      lambda_orders.push_back(order);
      ASSERT_EQ(edge_connectivity(g), testing::reference_edge_connectivity(g))
          << "seed=" << seed << " trial=" << trial;
      for (std::int32_t cap = 1; cap <= 6; ++cap) {
        const auto expected_lambda =
            testing::reference_edge_connectivity(g, cap);
        ASSERT_EQ(edge_connectivity(g, cap), expected_lambda)
            << "seed=" << seed << " trial=" << trial << " cap=" << cap;
        for (std::size_t o = 0; o < lambda_orders.size(); ++o) {
          ASSERT_EQ(
              detail::is_k_edge_connected_in_order(g, cap, lambda_orders[o]),
              expected_lambda >= cap)
              << "seed=" << seed << " trial=" << trial << " cap=" << cap
              << " order=" << o;
        }
        if (expected_lambda < cap) ++lambda_below_cap;

        const auto expected = testing::reference_vertex_connectivity(g, cap);
        ASSERT_EQ(vertex_connectivity(g, cap), expected)
            << "seed=" << seed << " trial=" << trial << " cap=" << cap;
        ASSERT_EQ(is_k_vertex_connected(g, cap), expected >= cap)
            << "seed=" << seed << " trial=" << trial << " cap=" << cap;
        ASSERT_EQ(detail::is_k_vertex_connected_in_order(g, cap, order),
                  expected >= cap)
            << "seed=" << seed << " trial=" << trial << " cap=" << cap;
        ++checks;
        if (expected < cap) ++below_cap;
      }
    }
  }
  // Both verdicts must be well represented for the match to mean much.
  EXPECT_GE(below_cap * 10, checks * 3) << below_cap << " of " << checks;
  EXPECT_GE((checks - below_cap) * 10, checks * 3)
      << below_cap << " of " << checks;
  EXPECT_GE(lambda_below_cap * 10, checks * 3)
      << lambda_below_cap << " of " << checks;
  EXPECT_GE((checks - lambda_below_cap) * 10, checks * 3)
      << lambda_below_cap << " of " << checks;
}

TEST(ConnectivityEquivalence, TwoEdgeJoinOfCliquesFailsEveryOrder) {
  // Two K5 joined by the disjoint edges {0, 5} and {1, 6}: δ = 4 but
  // λ = 2, so only the ordered λ test, not the degree bound, can see
  // the cut.
  std::vector<Edge> edges{{0, 5}, {1, 6}};
  for (NodeId base : {0, 5}) {
    for (NodeId u = 0; u < 5; ++u) {
      for (NodeId v = u + 1; v < 5; ++v) edges.push_back({base + u, base + v});
    }
  }
  const Graph g = Graph::from_edges(10, edges);
  ASSERT_EQ(g.min_degree(), 4);
  EXPECT_EQ(edge_connectivity(g), 2);
  EXPECT_EQ(edge_connectivity(g, 3), 2);
  for (const auto& order : pinned_orders(g)) {
    EXPECT_FALSE(detail::is_k_edge_connected_in_order(g, 3, order));
    EXPECT_TRUE(detail::is_k_edge_connected_in_order(g, 2, order));
  }
}

TEST(ConnectivityEquivalence, PairCheckCatchesWhatFansMiss) {
  // Two triangles sharing vertex 2: κ = 1.  Under the order 0, 3, 2, 1,
  // 4 every later vertex has a 2-fan into the earlier ones (2 -> {0, 3},
  // 1 -> {0, 2}, 4 -> {3, 2}), so only the pair (0, 3) of the first two
  // — one per triangle — shows the cut.
  const Graph bowtie =
      Graph::from_edges(5, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2},
                                             {2, 3}, {2, 4}, {3, 4}});
  const std::vector<NodeId> order{0, 3, 2, 1, 4};
  EXPECT_FALSE(detail::is_k_vertex_connected_in_order(bowtie, 2, order));
  EXPECT_TRUE(detail::is_k_vertex_connected_in_order(bowtie, 1, order));
  EXPECT_EQ(vertex_connectivity(bowtie, 5), 1);
  EXPECT_FALSE(is_k_vertex_connected(bowtie, 2));
}

TEST(ConnectivityEquivalence, OneEdgeShortLhgIsNotKConnected) {
  const Graph g = lhg::build(10000, 4);
  EXPECT_TRUE(is_k_vertex_connected(g, 4));
  EXPECT_EQ(vertex_connectivity(g, 5), 4);
  const Edge e = g.edges()[g.edges().size() / 2];
  const Graph short_one = g.without_edge(e.u, e.v);
  EXPECT_FALSE(is_k_vertex_connected(short_one, 4));
  EXPECT_EQ(vertex_connectivity(short_one, 5), 3);
}

TEST(ConnectivityEquivalence, ThreeEdgeJoinOfLhgsIsNotFourConnected) {
  // Two copies of an LHG on 5000 nodes joined by three edges: every
  // degree is still >= 4, so only the pairs and fans can see the
  // 3-vertex cut.
  const Graph half = lhg::build(5000, 4);
  std::vector<Edge> edges(half.edges().begin(), half.edges().end());
  for (const Edge e : half.edges()) edges.push_back({e.u + 5000, e.v + 5000});
  for (const NodeId v : {0, 1000, 2000}) edges.push_back({v, v + 7500});
  const Graph joined = Graph::from_edges(10000, edges);
  ASSERT_GE(joined.min_degree(), 4);
  EXPECT_FALSE(is_k_vertex_connected(joined, 4));
  EXPECT_EQ(vertex_connectivity(joined, 5), 3);
}

TEST(ConnectivityEquivalence, NewKernelsParallelDeterminism) {
  // Bit-identical results at 1 vs N threads.  κ and λ: each ordered
  // test is one bool, and the shared flag only skips fans once some fan
  // has failed.
  Rng rng(24680);
  std::vector<Graph> graphs;
  graphs.push_back(petersen());
  graphs.push_back(harary::circulant(40, 5));
  graphs.push_back(random_regular_connected(72, 4, rng));
  graphs.push_back(random_gnm(60, 300, rng));
  graphs.push_back(lhg::build(33, 3));
  graphs.push_back(lhg::build(4096, 4));

  const auto sweep = [&graphs] {
    std::vector<std::int32_t> out;
    for (const Graph& g : graphs) {
      out.push_back(vertex_connectivity(g));
      out.push_back(edge_connectivity(g));
      out.push_back(vertex_connectivity(g, 3));
      out.push_back(edge_connectivity(g, 3));
      for (const std::int32_t k : {3, 4, 5}) {
        out.push_back(is_k_vertex_connected(g, k) ? 1 : 0);
      }
    }
    return out;
  };

  const int previous = global_thread_count();
  set_global_thread_count(1);
  const auto serial = sweep();
  for (const int threads : {2, 4, 8}) {
    set_global_thread_count(threads);
    EXPECT_EQ(sweep(), serial) << "threads=" << threads;
  }
  set_global_thread_count(previous);
}

}  // namespace
}  // namespace lhg::core
