// Nagamochi–Ibaraki sparse-certificate properties: subgraph, size
// bound, preservation of capped connectivities (cross-checked with the
// reference Dinic path, which never touches the new code), and
// storage-free operation over the implicit LHG view.

#include "core/certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/connectivity.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "core/testing/reference_flow.h"
#include "harary/harary.h"
#include "lhg/implicit.h"

namespace lhg::core {
namespace {

TEST(Certificate, ZeroKIsEdgeless) {
  Rng rng(7);
  const Graph g = random_gnm(12, 30, rng);
  const Graph cert = sparse_certificate(g, 0);
  EXPECT_EQ(cert.num_nodes(), 12);
  EXPECT_EQ(cert.num_edges(), 0);
  EXPECT_EQ(sparse_certificate(g, -3).num_edges(), 0);
}

TEST(Certificate, LargeKKeepsEverything) {
  // Every edge's forest index is at most the degree < n, so k = n keeps
  // the whole graph (same node count, same canonical edge set).
  Rng rng(11);
  const Graph g = random_gnm(14, 40, rng);
  EXPECT_EQ(sparse_certificate(g, g.num_nodes()), g);
}

TEST(Certificate, IsSubgraphWithinSizeBound) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = static_cast<NodeId>(6 + rng.next_below(20));
    const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
    const Graph g =
        random_gnm(n, static_cast<std::int64_t>(rng.next_below(
                          static_cast<std::uint64_t>(max_m + 1))),
                   rng);
    for (std::int32_t k = 1; k <= 5; ++k) {
      const Graph cert = sparse_certificate(g, k);
      EXPECT_EQ(cert.num_nodes(), n);
      EXPECT_LE(cert.num_edges(),
                static_cast<std::int64_t>(k) * std::max(n - 1, 0));
      for (const Edge& e : cert.edges()) {
        EXPECT_TRUE(g.has_edge(e.u, e.v))
            << "certificate invented edge " << e.u << "-" << e.v;
      }
    }
  }
}

TEST(Certificate, IsDeterministic) {
  Rng rng(31);
  const Graph g = random_gnm(18, 60, rng);
  EXPECT_EQ(sparse_certificate(g, 3), sparse_certificate(g, 3));
}

TEST(Certificate, PreservesCappedConnectivities) {
  // min(λ_cert(x,y), k) == min(λ_G(x,y), k) and the κ analogue, checked
  // pairwise with the reference Dinic on random graphs (globals too).
  Rng rng(47);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<NodeId>(6 + rng.next_below(8));
    const auto max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
    const Graph g =
        random_gnm(n, std::min<std::int64_t>(
                          max_m, 4 + static_cast<std::int64_t>(
                                         rng.next_below(30))),
                   rng);
    for (std::int32_t k = 1; k <= 4; ++k) {
      const Graph cert = sparse_certificate(g, k);
      EXPECT_EQ(
          std::min(testing::reference_edge_connectivity(cert), k),
          std::min(testing::reference_edge_connectivity(g), k));
      EXPECT_EQ(
          std::min(testing::reference_vertex_connectivity(cert), k),
          std::min(testing::reference_vertex_connectivity(g), k));
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = s + 1; t < n; ++t) {
          EXPECT_EQ(
              std::min(
                  testing::reference_local_edge_connectivity(cert, s, t), k),
              std::min(testing::reference_local_edge_connectivity(g, s, t),
                       k))
              << "λ pair " << s << "," << t << " k=" << k;
          EXPECT_EQ(
              std::min(
                  testing::reference_local_vertex_connectivity(cert, s, t),
                  k),
              std::min(testing::reference_local_vertex_connectivity(g, s, t),
                       k))
              << "κ pair " << s << "," << t << " k=" << k;
        }
      }
    }
  }
}

TEST(Certificate, OfKConnectedGraphIsKConnected) {
  // The headline property: certifying a k-connected graph keeps it
  // k-connected in ≤ k·(n−1) edges.  Harary graphs have κ = λ = k
  // exactly, so the certificate must stay exactly k-connected.
  for (const std::int32_t k : {2, 3, 4, 5}) {
    for (const NodeId n : {10, 17, 24, 40}) {
      const Graph h = harary::circulant(n, k);
      const Graph cert = sparse_certificate(h, k);
      EXPECT_LE(cert.num_edges(), static_cast<std::int64_t>(k) * (n - 1));
      EXPECT_EQ(testing::reference_vertex_connectivity(cert, k), k)
          << "H(" << k << ", " << n << ")";
      EXPECT_EQ(testing::reference_edge_connectivity(cert, k), k)
          << "H(" << k << ", " << n << ")";
    }
  }
}

TEST(Certificate, RunsStorageFreeOverImplicitView) {
  // The scan is generic over GraphLike: feeding the O(n/k) implicit
  // view must yield exactly the certificate of the materialized graph.
  const lhg::ImplicitLhg view(1000, 4);
  const Graph materialized = view.materialize();
  const Graph from_view = sparse_certificate(view, 4);
  const Graph from_csr = sparse_certificate(materialized, 4);
  EXPECT_EQ(from_view, from_csr);
  EXPECT_LE(from_view.num_edges(),
            static_cast<std::int64_t>(4) * (view.num_nodes() - 1));
  // And it preserves the LHG's defining property P1/P2 at k.
  EXPECT_TRUE(is_k_vertex_connected(from_view, 4));
  EXPECT_EQ(edge_connectivity(from_view, 4), 4);
}

}  // namespace
}  // namespace lhg::core
