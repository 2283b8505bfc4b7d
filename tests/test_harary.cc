// Tests for the classic circulant Harary baseline H(k, n): exact edge
// counts, κ = λ = k across parities, and the linear-diameter behaviour
// that motivates LHGs.

#include "harary/harary.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/connectivity.h"
#include "core/diameter.h"

namespace lhg::harary {
namespace {

using core::Graph;

TEST(Harary, EvenKIsCirculantRing) {
  Graph g = circulant(10, 4);
  EXPECT_EQ(g.num_edges(), min_edges(10, 4));
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(9, 0));
  EXPECT_TRUE(g.has_edge(9, 1));
}

TEST(Harary, OddKEvenNHasDiameters) {
  Graph g = circulant(12, 3);
  EXPECT_EQ(g.num_edges(), min_edges(12, 3));
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(g.has_edge(0, 6));
  EXPECT_TRUE(g.has_edge(5, 11));
}

TEST(Harary, OddKOddNHasOneHeavyNode) {
  Graph g = circulant(11, 3);
  EXPECT_EQ(g.num_edges(), min_edges(11, 3));  // ceil(33/2) = 17
  EXPECT_EQ(g.min_degree(), 3);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.degree(0), 4);  // the adjusted vertex
}

TEST(Harary, PinnedOddKOddN) {
  // H(5, 11), recorded before circulant built through from_edges: the
  // ring, the near-diametric chords and node 0's extra chord {0, 5}.
  const Graph g = circulant(11, 5);
  const std::vector<core::Edge> pinned{
      {0, 1}, {0, 2}, {0, 5}, {0, 6}, {0, 9},  {0, 10}, {1, 2},
      {1, 3}, {1, 7}, {1, 10}, {2, 3}, {2, 4}, {2, 8},  {3, 4},
      {3, 5}, {3, 9}, {4, 5}, {4, 6}, {4, 10}, {5, 6}, {5, 7},
      {6, 7}, {6, 8}, {7, 8}, {7, 9}, {8, 9}, {8, 10}, {9, 10}};
  EXPECT_EQ(std::vector<core::Edge>(g.edges().begin(), g.edges().end()),
            pinned);
}

TEST(Harary, Validation) {
  EXPECT_THROW(circulant(5, 1), std::invalid_argument);
  EXPECT_THROW(circulant(5, 5), std::invalid_argument);
  EXPECT_THROW(circulant(3, 4), std::invalid_argument);
}

TEST(Harary, MinEdgesFormula) {
  EXPECT_EQ(min_edges(10, 4), 20);
  EXPECT_EQ(min_edges(11, 3), 17);
  EXPECT_EQ(min_edges(7, 3), 11);
}

TEST(Harary, LinearDiameterGrowth) {
  // Doubling n roughly doubles the diameter: the deficiency LHGs fix.
  const auto d1 = core::diameter(circulant(64, 4));
  const auto d2 = core::diameter(circulant(128, 4));
  const auto d4 = core::diameter(circulant(256, 4));
  EXPECT_GE(d2, 2 * d1 - 2);
  EXPECT_GE(d4, 2 * d2 - 2);
  EXPECT_EQ(d1, 16);  // n/2 / (k/2) = 32/2
}

TEST(Harary, PredictedDiameterTracksMeasured) {
  for (const auto& [n, k] : {std::pair{64, 4}, {100, 6}, {60, 3}, {101, 5}}) {
    const auto measured = core::diameter(circulant(n, k));
    const auto predicted = predicted_diameter(n, k);
    EXPECT_NEAR(measured, predicted, 2.0) << "n=" << n << " k=" << k;
  }
}

TEST(Harary, CirculantIsLinkMinimal) {
  // Harary graphs achieve the edge-count optimum, so every link must be
  // critical (P3) — the verifier checks each edge exactly.
  for (const auto& [n, k] : {std::pair{12, 4}, {13, 3}, {16, 5}}) {
    Graph g = circulant(static_cast<core::NodeId>(n), k);
    std::int64_t critical = 0;
    for (const auto e : g.edges()) {
      Graph without = g.without_edge(e.u, e.v);
      const bool reduced =
          core::vertex_connectivity(without, k) < k ||
          core::edge_connectivity(without, k) < k;
      critical += reduced ? 1 : 0;
    }
    EXPECT_EQ(critical, g.num_edges()) << "n=" << n << " k=" << k;
  }
}

// Property sweep: κ(H(k,n)) = λ(H(k,n)) = k and edge count is minimal,
// across all parity combinations.
class HararyConnectivity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HararyConnectivity, KappaLambdaEdgeCount) {
  const auto [n, k] = GetParam();
  if (k >= n) GTEST_SKIP() << "needs k < n";
  Graph g = circulant(static_cast<core::NodeId>(n), k);
  EXPECT_EQ(g.num_edges(), min_edges(n, k));
  EXPECT_EQ(core::vertex_connectivity(g), k) << "n=" << n << " k=" << k;
  EXPECT_EQ(core::edge_connectivity(g), k) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HararyConnectivity,
    ::testing::Combine(::testing::Values(8, 9, 12, 13, 20, 21, 30),
                       ::testing::Values(2, 3, 4, 5, 6, 7)));

}  // namespace
}  // namespace lhg::harary
