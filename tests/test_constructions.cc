// Structural tests for the three LHG builders: node counts, degree
// bounds, layout correctness, and the paper's worked examples.

#include <gtest/gtest.h>

#include <stdexcept>

#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

using core::Graph;
using core::NodeId;

TEST(BuildWithLayout, SmallestGraphIsCompleteBipartite) {
  // (2k, k) = k roots + k shared leaves = K_{k,k}.
  Layout layout;
  Graph g = build_with_layout(6, 3, Constraint::kKTree, &layout);
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_TRUE(g.is_regular(3));
  for (std::int32_t c = 0; c < 3; ++c) {
    for (std::int32_t s = 0; s < 3; ++s) {
      EXPECT_TRUE(g.has_edge(layout.root(c), layout.shared_leaf(s)));
    }
  }
}

TEST(BuildWithLayout, LayoutPopulationsPartitionIds) {
  Layout layout;
  Graph g = build_with_layout(38, 4, Constraint::kKTree, &layout);
  EXPECT_EQ(layout.total_nodes(), 38);
  EXPECT_EQ(layout.k, 4);
  // Interior ids and leaf ids must tile [0, n).
  std::int32_t copy = -1;
  std::int32_t interior = -1;
  std::int32_t classified = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (layout.classify_interior(u, &copy, &interior)) {
      ++classified;
      EXPECT_EQ(layout.interior(copy, interior), u);
    }
  }
  EXPECT_EQ(classified, layout.k * layout.num_interiors);
  EXPECT_EQ(classified + layout.num_shared_leaves +
                layout.k * layout.num_unshared_groups,
            38);
}

TEST(BuildWithLayout, SharedLeafTouchesEveryCopy) {
  Layout layout;
  Graph g = build_with_layout(22, 4, Constraint::kKTree, &layout);
  ASSERT_GT(layout.num_shared_leaves, 0);
  const NodeId leaf = layout.shared_leaf(0);
  EXPECT_EQ(g.degree(leaf), 4);
  // Its 4 neighbors must be the same abstract interior in 4 copies.
  std::int32_t seen_copies = 0;
  std::int32_t first_abstract = -1;
  for (NodeId nbr : g.neighbors(leaf)) {
    std::int32_t copy = -1;
    std::int32_t abstract_interior = -1;
    ASSERT_TRUE(layout.classify_interior(nbr, &copy, &abstract_interior));
    if (first_abstract < 0) first_abstract = abstract_interior;
    EXPECT_EQ(abstract_interior, first_abstract);
    ++seen_copies;
  }
  EXPECT_EQ(seen_copies, 4);
}

TEST(BuildWithLayout, UnsharedGroupIsCliquePlusOneTreeEdgeEach) {
  // K-DIAMOND at n = 2k + (k-1) forces one unshared group.
  Layout layout;
  Graph g = build_with_layout(8, 3, Constraint::kKDiamond, &layout);
  ASSERT_EQ(layout.num_unshared_groups, 1);
  for (std::int32_t c = 0; c < 3; ++c) {
    const NodeId member = layout.group_member(0, c);
    EXPECT_EQ(g.degree(member), 3);
    for (std::int32_t c2 = c + 1; c2 < 3; ++c2) {
      EXPECT_TRUE(g.has_edge(member, layout.group_member(0, c2)));
    }
  }
}

TEST(BuildWithLayout, RejectsBadPlans) {
  TreePlan bogus;
  bogus.k = 1;
  EXPECT_THROW(ImplicitLhg{bogus}, std::invalid_argument);
}

TEST(Build, PaperExampleGraphs) {
  // Figure 2(a): (6,3) under K-TREE — 3-regular.
  EXPECT_TRUE(build(6, 3, Constraint::kKTree).is_regular(3));
  // Figure 2(b): (9,3) — K-TREE only (strict J&D cannot).
  Graph g93 = build(9, 3, Constraint::kKTree);
  EXPECT_EQ(g93.num_nodes(), 9);
  EXPECT_EQ(g93.min_degree(), 3);
  EXPECT_EQ(g93.max_degree(), 6);  // the widened root in each copy
  // Figure 2(c): (10,3) — 3-regular under K-TREE.
  EXPECT_TRUE(build(10, 3, Constraint::kKTree).is_regular(3));
  // Figure 3(a): (7,3) under K-DIAMOND (one added leaf).
  Graph g73 = build(7, 3, Constraint::kKDiamond);
  EXPECT_EQ(g73.min_degree(), 3);
  EXPECT_EQ(g73.max_degree(), 4);
  // Figure 3(b): (8,3) under K-DIAMOND — 3-regular (one unshared group).
  EXPECT_TRUE(build(8, 3, Constraint::kKDiamond).is_regular(3));
  // Figure 3(d): (14,3) under K-DIAMOND — 3-regular.
  EXPECT_TRUE(build(14, 3, Constraint::kKDiamond).is_regular(3));
}

TEST(Build, StrictJdMatchesKTreeOnRegularLattice) {
  // On lattice points both rules build k-regular graphs of equal size.
  for (const std::int32_t k : {3, 4, 5}) {
    for (std::int32_t alpha = 0; alpha <= 3; ++alpha) {
      const auto n = static_cast<NodeId>(2 * k + 2 * alpha * (k - 1));
      Graph jd_graph = build(n, k, Constraint::kStrictJD);
      Graph ktree_graph = build(n, k, Constraint::kKTree);
      EXPECT_EQ(jd_graph, ktree_graph) << "n=" << n << " k=" << k;
      EXPECT_TRUE(jd_graph.is_regular(k));
    }
  }
}

TEST(Build, ThrowsWhenNotRealizable) {
  EXPECT_THROW(build(5, 3, Constraint::kKTree), std::invalid_argument);
  EXPECT_THROW(build(9, 3, Constraint::kStrictJD), std::invalid_argument);
  EXPECT_THROW(build(5, 3, Constraint::kKDiamond), std::invalid_argument);
  EXPECT_THROW(build(10, 1, Constraint::kKTree), std::invalid_argument);
}

TEST(Build, DegreeBoundsAcrossResidues) {
  // K-TREE: every node degree in [k, 3k-3]; K-DIAMOND: in [k, 2k-2].
  const std::int32_t k = 4;
  for (NodeId n = 2 * k; n <= 2 * k + 30; ++n) {
    Graph kt = build(n, k, Constraint::kKTree);
    EXPECT_EQ(kt.min_degree(), k) << "n=" << n;
    EXPECT_LE(kt.max_degree(), 3 * k - 3) << "n=" << n;
    Graph kd = build(n, k, Constraint::kKDiamond);
    EXPECT_EQ(kd.min_degree(), k) << "n=" << n;
    EXPECT_LE(kd.max_degree(), 2 * k - 2) << "n=" << n;
  }
}

TEST(Build, EdgeCountNearHararyOptimum) {
  // An LHG spends at most (extra degree)/2 more edges than ceil(kn/2).
  const std::int32_t k = 3;
  for (NodeId n = 2 * k; n <= 60; ++n) {
    Graph g = build(n, k, Constraint::kKDiamond);
    const auto optimum = (static_cast<std::int64_t>(k) * n + 1) / 2;
    EXPECT_GE(g.num_edges(), optimum);
    EXPECT_LE(g.num_edges(), optimum + k);
  }
}

TEST(Build, ToStringNames) {
  EXPECT_EQ(to_string(Constraint::kStrictJD), "strict-jd");
  EXPECT_EQ(to_string(Constraint::kKTree), "k-tree");
  EXPECT_EQ(to_string(Constraint::kKDiamond), "k-diamond");
}

TEST(Build, LargeGraphQuickStats) {
  Graph g = build(20000, 5, Constraint::kKTree);
  EXPECT_EQ(g.num_nodes(), 20000);
  EXPECT_EQ(g.min_degree(), 5);
}

}  // namespace
}  // namespace lhg
