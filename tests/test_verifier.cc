// Tests for the first-principles LHG verifier: it must accept the
// textbook positives and pinpoint which property each negative violates.

#include "lhg/verifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/connectivity.h"
#include "core/graph.h"
#include "core/random_graphs.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

using core::Edge;
using core::Graph;
using core::NodeId;

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

TEST(Verifier, AcceptsConstructedLhg) {
  const auto report = verify(build(22, 3), 3);
  EXPECT_TRUE(report.p1_node_connected);
  EXPECT_TRUE(report.p2_link_connected);
  EXPECT_TRUE(report.p3_link_minimal);
  EXPECT_TRUE(report.p4_log_diameter);
  EXPECT_TRUE(report.is_lhg());
  EXPECT_EQ(report.node_connectivity, 3);
  EXPECT_EQ(report.edge_connectivity, 3);
}

TEST(Verifier, RejectsUnderconnectedGraph) {
  // A cycle is only 2-connected: P1/P2 fail for k = 3.
  const auto report = verify(cycle_graph(12), 3);
  EXPECT_FALSE(report.p1_node_connected);
  EXPECT_FALSE(report.p2_link_connected);
  EXPECT_FALSE(report.is_lhg());
}

TEST(Verifier, RejectsNonMinimalGraph) {
  // K5 asked for k=3: over-connected (κ=4), so no edge is critical at
  // its own connectivity?  K5 minus an edge is still 3-connected, and
  // κ(K5)=4: removing an edge drops local connectivity, so P3 holds
  // relative to κ(G).  A genuinely non-minimal example: a cycle with a
  // chord, k = 2 — the chord's removal keeps κ = λ = 2.
  Graph chorded = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                           {5, 0}, {0, 3}});
  const auto report = verify(chorded, 2);
  EXPECT_TRUE(report.p1_node_connected);
  EXPECT_TRUE(report.p2_link_connected);
  EXPECT_FALSE(report.p3_link_minimal);
  ASSERT_TRUE(report.p3_witness.has_value());
  EXPECT_GT(report.minimality_violations, 0);
  EXPECT_FALSE(report.is_lhg());
}

TEST(Verifier, RejectsLinearDiameter) {
  // A large circulant Harary graph is k-connected and minimal but has
  // linear diameter: exactly the failure LHGs fix (P4).
  const auto report = verify(harary::circulant(600, 4), 4,
                             {.log_diameter_constant = 4.0});
  EXPECT_TRUE(report.p1_node_connected);
  EXPECT_TRUE(report.p2_link_connected);
  EXPECT_FALSE(report.p4_log_diameter);
  EXPECT_FALSE(report.is_lhg());
}

TEST(Verifier, SmallHararyIsAcceptedAsLhg) {
  // At small n the circulant diameter is still within the log envelope;
  // Harary graphs are bona-fide LHGs there.
  const auto report = verify(harary::circulant(16, 4), 4);
  EXPECT_TRUE(report.is_lhg());
}

TEST(Verifier, RegularityReported) {
  EXPECT_TRUE(verify(build(10, 3), 3).k_regular);
  EXPECT_FALSE(verify(build(9, 3), 3).k_regular);
  const auto report = verify(build(9, 3), 3);
  EXPECT_EQ(report.min_degree, 3);
  EXPECT_EQ(report.max_degree, 6);
}

TEST(Verifier, SamplingLimitsWork) {
  VerifyOptions options;
  options.minimality_sample = 5;
  const auto report = verify(build(46, 3), 3, options);
  EXPECT_EQ(report.minimality_checked_edges, 5);
  EXPECT_TRUE(report.p3_link_minimal);
}

TEST(Verifier, CompleteGraphEdgeCase) {
  // K4 with k = 3: κ = λ = 3, and removing any edge drops both.
  const auto report = verify(complete_graph(4), 3);
  EXPECT_TRUE(report.p1_node_connected);
  EXPECT_TRUE(report.p3_link_minimal);
}

TEST(Verifier, RandomKRegularGraphsAreUsuallyLhgs) {
  // A structural observation worth pinning: ANY k-regular graph with
  // κ = k is automatically link-minimal (removing an edge leaves its
  // endpoints at degree k−1, so κ drops), and random k-regular graphs
  // are k-connected with logarithmic diameter w.h.p. — i.e. LHGs
  // without a determinism guarantee.  The verifier must agree.
  core::Rng rng(31);
  int accepted = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = core::random_regular_connected(60, 4, rng);
    const auto report = verify(g, 4);
    if (report.node_connectivity == 4) {
      EXPECT_TRUE(report.p3_link_minimal);
      EXPECT_TRUE(report.is_lhg());
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0);  // w.h.p. all five, but never flaky
}

/// P3 as the verifier decided it before the degree shortcut: a local λ
/// and κ flow on G − e for every chosen edge.  Every report field must
/// come out the same.
void expect_p3_matches_flows(const Graph& g, std::int32_t k,
                             const VerifyOptions& options = {}) {
  const auto report = verify(g, k, options);
  const auto kappa = report.node_connectivity;
  const auto lambda = report.edge_connectivity;
  std::int64_t checked = 0;
  std::int64_t violations = 0;
  std::optional<Edge> witness;
  if (kappa > 0 && lambda > 0) {
    const auto all = g.edges();
    std::vector<Edge> chosen(all.begin(), all.end());
    if (options.minimality_sample > 0 &&
        options.minimality_sample < static_cast<std::int64_t>(all.size())) {
      core::Rng rng(options.seed);
      chosen.clear();
      for (const auto idx : rng.sample_without_replacement(
               static_cast<std::int32_t>(all.size()),
               static_cast<std::int32_t>(options.minimality_sample))) {
        chosen.push_back(all[static_cast<std::size_t>(idx)]);
      }
    }
    for (const Edge e : chosen) {
      ++checked;
      const Graph without = g.without_edge(e.u, e.v);
      const bool critical =
          core::local_edge_connectivity(without, e.u, e.v, lambda) < lambda ||
          core::local_vertex_connectivity(without, e.u, e.v, kappa) < kappa;
      if (!critical) {
        ++violations;
        if (!witness) witness = e;
      }
    }
  }
  EXPECT_EQ(report.minimality_checked_edges, checked) << core::describe(g);
  EXPECT_EQ(report.minimality_violations, violations) << core::describe(g);
  EXPECT_EQ(report.p3_witness, witness) << core::describe(g);
  EXPECT_EQ(report.p3_link_minimal, kappa > 0 && lambda > 0 && violations == 0)
      << core::describe(g);
}

TEST(Verifier, DegreeShortcutMatchesFlowsOnEveryEdge) {
  const Graph chorded = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                           {5, 0}, {0, 3}});
  expect_p3_matches_flows(build(22, 3), 3);
  expect_p3_matches_flows(cycle_graph(12), 3);
  expect_p3_matches_flows(chorded, 2);
  expect_p3_matches_flows(harary::circulant(600, 4), 4);
  expect_p3_matches_flows(harary::circulant(16, 4), 4);
  expect_p3_matches_flows(build(10, 3), 3);
  expect_p3_matches_flows(build(9, 3), 3);
  expect_p3_matches_flows(build(46, 3), 3, {.minimality_sample = 5});
  expect_p3_matches_flows(complete_graph(4), 3);
  core::Rng rng(31);
  expect_p3_matches_flows(core::random_regular_connected(60, 4, rng), 4);
  // Non-regular graphs, where edges with both endpoints above λ still
  // run the flows: a sparse and a dense G(n, m).
  const Graph sparse = core::random_gnm(40, 100, rng);
  const Graph dense = core::random_gnm(30, 180, rng);
  ASSERT_FALSE(sparse.is_regular(sparse.min_degree()));
  ASSERT_FALSE(dense.is_regular(dense.min_degree()));
  expect_p3_matches_flows(sparse, 3);
  expect_p3_matches_flows(dense, 4);
}

TEST(Verifier, Validation) {
  EXPECT_THROW(verify(complete_graph(3), 0), std::invalid_argument);
  EXPECT_THROW(verify(Graph::from_edges(0, {}), 2), std::invalid_argument);
}

TEST(Verifier, ReportRendering) {
  const auto text = to_string(verify(build(10, 3), 3));
  EXPECT_NE(text.find("P1 node connectivity"), std::string::npos);
  EXPECT_NE(text.find("verdict"), std::string::npos);
  EXPECT_NE(text.find("LHG"), std::string::npos);
}

}  // namespace
}  // namespace lhg
