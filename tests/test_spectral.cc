// Tests for spectral gap estimation against closed-form eigenvalues.
//
// Lazy-walk spectrum:  μ = (1 + λ_normalized) / 2, so
//   cycle C_n:    μ₂ = (1 + cos(2π/n)) / 2
//   complete K_n: μ₂ = (1 − 1/(n−1)) / 2
//   hypercube Q_d: μ₂ = (1 + (d−2)/d) / 2 = (d−1)/d
//   K_{a,a}:      μ₂ = 1/2 (normalized λ₂ = 0)

#include "core/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/random_graphs.h"
#include "core/special.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg::core {
namespace {

TEST(Spectral, CycleMatchesClosedForm) {
  for (const NodeId n : {8, 16, 32}) {
    const auto estimate = lazy_walk_lambda2(cycle_graph(n));
    const double expected =
        (1.0 + std::cos(2.0 * std::numbers::pi / n)) / 2.0;
    EXPECT_NEAR(estimate.lambda2, expected, 1e-6) << "n=" << n;
    EXPECT_TRUE(estimate.converged);
  }
}

TEST(Spectral, CompleteGraphMatchesClosedForm) {
  const auto estimate = lazy_walk_lambda2(complete_graph(10));
  EXPECT_NEAR(estimate.lambda2, (1.0 - 1.0 / 9.0) / 2.0, 1e-6);
}

TEST(Spectral, HypercubeMatchesClosedForm) {
  for (const std::int32_t d : {3, 4, 5}) {
    const auto estimate = lazy_walk_lambda2(hypercube(d));
    EXPECT_NEAR(estimate.lambda2, static_cast<double>(d - 1) / d, 1e-6)
        << "d=" << d;
  }
}

TEST(Spectral, BipartiteLazyWalkHasNoAlias) {
  // K_{3,3} normalized spectrum {1, 0, 0, 0, 0, −1}: the lazy transform
  // maps the −1 to 0, so μ₂ = 1/2, not 1.
  const auto estimate = lazy_walk_lambda2(complete_bipartite(3, 3));
  EXPECT_NEAR(estimate.lambda2, 0.5, 1e-6);
}

TEST(Spectral, DisconnectedGraphHasZeroGap) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  const auto estimate = lazy_walk_lambda2(g);
  EXPECT_DOUBLE_EQ(estimate.lambda2, 1.0);
  EXPECT_DOUBLE_EQ(estimate.gap, 0.0);
}

TEST(Spectral, Validation) {
  EXPECT_THROW(lazy_walk_lambda2(Graph::from_edges(0, {})),
               std::invalid_argument);
  EXPECT_THROW(lazy_walk_lambda2(Graph::from_edges(2, {})),
               std::invalid_argument);
  EXPECT_THROW(sweep_conductance(star_graph(1)), std::invalid_argument);
}

TEST(Spectral, SweepConductanceKnownCuts) {
  // C_16's best sweep cut is the half-ring: cut 2, volume 16 -> 1/8.
  EXPECT_NEAR(sweep_conductance(cycle_graph(16)), 2.0 / 16.0, 1e-9);
  // A barbell (two K5s joined by one edge) has conductance ~1/21.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) {
      edges.push_back({i, j});
      edges.push_back({i + 5, j + 5});
    }
  }
  edges.push_back({4, 5});
  const double phi = sweep_conductance(Graph::from_edges(10, edges));
  EXPECT_NEAR(phi, 1.0 / 21.0, 1e-9);
}

TEST(Spectral, CheegerInequalityHolds) {
  // φ²/2 <= 1 − μ₂(lazy-normalized gap relation): verify on a zoo.
  for (const auto& g :
       {cycle_graph(12), hypercube(4), petersen(), lhg::build(46, 3),
        harary::circulant(30, 4)}) {
    const auto estimate = lazy_walk_lambda2(g);
    const auto phi = sweep_conductance(g);
    // The lazy-walk gap is half the normalized gap.
    const double normalized_gap = 2.0 * estimate.gap;
    EXPECT_LE(normalized_gap / 2.0, phi + 1e-6);       // gap/2 <= φ
    EXPECT_LE(phi * phi / 2.0, normalized_gap + 1e-6); // φ²/2 <= gap
  }
}

TEST(Spectral, ExpansionOrdering) {
  // The E16 story at one size: random k-regular > LHG > circulant.
  const std::int32_t k = 4;
  const NodeId n = 302;
  Rng rng(5);
  const auto lhg_gap = lazy_walk_lambda2(lhg::build(n, k)).gap;
  const auto harary_gap =
      lazy_walk_lambda2(harary::circulant(n, k)).gap;
  const auto random_gap =
      lazy_walk_lambda2(random_regular_connected(n, k, rng)).gap;
  EXPECT_GT(lhg_gap, harary_gap);
  EXPECT_GT(random_gap, lhg_gap);
}

}  // namespace
}  // namespace lhg::core
