// Tests for canonical plan deltas: applying plan_delta(from, to) to the
// from-graph must reproduce the to-graph exactly, both built by the
// independent reference assembler (core/testing/reference_assemble.h),
// and delta sizes must match the O(k) / O(k²) bounds the incremental
// membership engine depends on.

#include "lhg/plan_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "core/testing/reference_assemble.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

using core::Edge;
using core::NodeId;
using core::testing::reference_assemble;

/// Applies a delta to the realized from-graph: drop removed_edges,
/// translate survivors through slot_map, append added_edges.  Dies (via
/// gtest assertions) if the delta is inconsistent with the from-graph.
core::Graph apply_delta(const core::Graph& from_g, const PlanDelta& d,
                        NodeId to_n) {
  std::vector<Edge> edges;
  std::size_t ri = 0;
  for (const Edge& e : from_g.edges()) {
    if (ri < d.removed_edges.size() && d.removed_edges[ri] == e) {
      ++ri;
      continue;
    }
    const NodeId u = d.slot_map[static_cast<std::size_t>(e.u)];
    const NodeId v = d.slot_map[static_cast<std::size_t>(e.v)];
    EXPECT_GE(u, 0) << "surviving edge endpoint dissolved: " << e.u;
    EXPECT_GE(v, 0) << "surviving edge endpoint dissolved: " << e.v;
    edges.push_back(core::canonical(u, v));
  }
  // Every removed edge must actually exist in the from-graph.
  EXPECT_EQ(ri, d.removed_edges.size());
  edges.insert(edges.end(), d.added_edges.begin(), d.added_edges.end());
  return core::Graph::from_edges(to_n, edges);
}

void check_delta_well_formed(const PlanDelta& d, std::int64_t from_n,
                             std::int64_t to_n) {
  EXPECT_EQ(d.slot_map.size(), static_cast<std::size_t>(from_n));
  EXPECT_TRUE(std::is_sorted(d.freed_slots.begin(), d.freed_slots.end()));
  EXPECT_TRUE(std::is_sorted(d.new_slots.begin(), d.new_slots.end()));
  EXPECT_TRUE(
      std::is_sorted(d.removed_edges.begin(), d.removed_edges.end()));
  EXPECT_TRUE(std::is_sorted(d.added_edges.begin(), d.added_edges.end()));
  // Matched elements on both sides balance: n - freed == n' - new.
  EXPECT_EQ(from_n - static_cast<std::int64_t>(d.freed_slots.size()),
            to_n - static_cast<std::int64_t>(d.new_slots.size()));
  // slot_map is injective into [0, to_n) away from freed slots.
  std::vector<NodeId> images;
  for (NodeId s = 0; s < static_cast<NodeId>(from_n); ++s) {
    const NodeId t = d.slot_map[static_cast<std::size_t>(s)];
    if (t < 0) continue;
    EXPECT_LT(t, to_n);
    images.push_back(t);
  }
  std::sort(images.begin(), images.end());
  EXPECT_TRUE(std::adjacent_find(images.begin(), images.end()) ==
              images.end());
}

struct Grid {
  Constraint c;
  std::int32_t k;
  NodeId lo;
  NodeId hi;
};

const Grid kGrids[] = {
    {Constraint::kKTree, 3, 6, 120},
    {Constraint::kKTree, 4, 8, 140},
    {Constraint::kKDiamond, 3, 9, 120},
    {Constraint::kKDiamond, 4, 12, 140},
    {Constraint::kStrictJD, 3, 6, 120},
};

TEST(PlanDelta, ConsecutiveSizesRoundTripAcrossAllConstraints) {
  for (const Grid& grid : kGrids) {
    NodeId prev = -1;
    for (NodeId n = grid.lo; n <= grid.hi; ++n) {
      if (!exists(n, grid.k, grid.c)) continue;
      if (prev >= 0) {
        SCOPED_TRACE(testing::Message()
                     << to_string(grid.c) << " k=" << grid.k << " " << prev
                     << "->" << n);
        const auto from = plan(prev, grid.k, grid.c);
        const auto to = plan(n, grid.k, grid.c);
        const auto d = plan_delta(from, to);
        check_delta_well_formed(d, prev, n);
        const auto from_g = reference_assemble(from);
        const auto to_g = reference_assemble(to);
        EXPECT_EQ(apply_delta(from_g, d, n), to_g);
        // And the reverse direction (a leave) round-trips too.
        const auto rd = plan_delta(to, from);
        check_delta_well_formed(rd, n, prev);
        EXPECT_EQ(apply_delta(to_g, rd, prev), from_g);
      }
      prev = n;
    }
  }
}

TEST(PlanDelta, BatchedJumpsRoundTrip) {
  for (const Grid& grid : kGrids) {
    std::vector<NodeId> sizes;
    for (NodeId n = grid.lo; n <= grid.hi; ++n) {
      if (exists(n, grid.k, grid.c)) sizes.push_back(n);
    }
    ASSERT_GE(sizes.size(), 8u);
    // Jump several realizable sizes at once, both directions.
    for (std::size_t i = 0; i + 7 < sizes.size(); i += 7) {
      const NodeId a = sizes[i];
      const NodeId b = sizes[i + 7];
      SCOPED_TRACE(testing::Message() << to_string(grid.c) << " k=" << grid.k
                                      << " " << a << "<->" << b);
      const auto pa = plan(a, grid.k, grid.c);
      const auto pb = plan(b, grid.k, grid.c);
      const auto d = plan_delta(pa, pb);
      check_delta_well_formed(d, a, b);
      EXPECT_EQ(apply_delta(reference_assemble(pa), d, b),
                reference_assemble(pb));
    }
  }
}

TEST(PlanDelta, IdenticalPlansYieldEmptyDelta) {
  const auto p = plan(60, 4, Constraint::kKDiamond);
  const auto d = plan_delta(p, p);
  EXPECT_TRUE(d.freed_slots.empty());
  EXPECT_TRUE(d.new_slots.empty());
  EXPECT_EQ(d.rewired(), 0);
  for (NodeId s = 0; s < 60; ++s) {
    EXPECT_EQ(d.slot_map[static_cast<std::size_t>(s)], s);
  }
}

// The bound the tentpole advertises: a single size step rewires O(k²)
// edges at reshape boundaries and exactly k at non-reshaping joins —
// never a whole subtree.  3k² covers promoting one leaf to an interior
// (k tree edges + re-homing the displaced leaf attachments); measured
// maxima over full sweeps: exactly 3k²-2k for K-TREE (tight), plus a
// few clique edges for K-DIAMOND's shared/unshared parity transition.
TEST(PlanDelta, SingleStepRewiringIsBoundedByKSquared) {
  for (const Grid& grid : kGrids) {
    const std::int64_t bound =
        3 * static_cast<std::int64_t>(grid.k) * grid.k;
    NodeId prev = -1;
    std::int64_t max_seen = 0;
    for (NodeId n = grid.lo; n <= grid.hi; ++n) {
      if (!exists(n, grid.k, grid.c)) continue;
      if (prev >= 0 && n == prev + 1) {
        const auto d =
            plan_delta(plan(prev, grid.k, grid.c), plan(n, grid.k, grid.c));
        max_seen = std::max(max_seen, d.rewired());
        EXPECT_LE(d.rewired(), bound)
            << to_string(grid.c) << " k=" << grid.k << " " << prev << "->"
            << n;
        if (d.freed_slots.empty()) {
          // Non-reshaping join: exactly the k attachments of one leaf.
          EXPECT_TRUE(d.removed_edges.empty());
          EXPECT_EQ(d.added_edges.size(),
                    static_cast<std::size_t>(grid.k));
        }
      }
      prev = n;
    }
    // The sweep must actually exercise a reshape boundary.
    EXPECT_GT(max_seen, grid.k) << to_string(grid.c) << " k=" << grid.k;
  }
}

TEST(PlanDelta, RejectsMismatchedK) {
  const auto a = plan(20, 3, Constraint::kKTree);
  const auto b = plan(20, 4, Constraint::kKTree);
  EXPECT_THROW(plan_delta(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace lhg
