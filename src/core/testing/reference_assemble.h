// Test-only reference construction of a pasted LHG.
//
// This is the edge-by-edge assembler `lhg::build` used before the
// closed-form view (lhg/implicit.h) became the one adjacency rule: it
// lists every tree edge, leaf attachment and clique edge of a TreePlan
// and hands the list to `Graph::from_edges`.  The equivalence
// suites (tests/test_implicit.cc, tests/test_plan_delta.cc) compare the
// production path against it, so it must stay independent: nothing
// here may call into lhg/implicit.h or lhg/plan_delta.h.
//
// Header-only and only ever included from tests/ and bench/; it is not
// part of any library.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "lhg/layout.h"
#include "lhg/tree_plan.h"

namespace lhg::core::testing {

/// Pastes k copies of the plan's tree together at the leaves:
///   * every interior is replicated once per copy, with the tree edges
///     of its copy;
///   * every shared leaf becomes a single node adjacent to its parent's
///     instance in every copy (degree k);
///   * every unshared leaf becomes a k-clique whose member c is adjacent
///     to its parent's instance in copy c (degree k).
///
/// If `layout_out` is non-null it receives the id map of the result.
inline Graph reference_assemble(const TreePlan& plan,
                                Layout* layout_out = nullptr) {
  Layout layout = layout_of(plan);

  const auto n = layout.total_nodes();
  LHG_CHECK(n <= INT32_MAX, "assemble: {} nodes exceed the NodeId range", n);
  std::vector<Edge> edges;

  // Tree edges, once per copy.
  for (std::int32_t c = 0; c < plan.k; ++c) {
    for (std::int32_t i = 1; i < plan.num_interiors(); ++i) {
      edges.push_back(
          {layout.interior(c, plan.interior_parent[static_cast<std::size_t>(i)]),
           layout.interior(c, i)});
    }
  }

  // Leaf attachments.
  for (std::int32_t l = 0; l < plan.num_leaves(); ++l) {
    const auto parent = plan.leaf_parent[static_cast<std::size_t>(l)];
    const auto slot = layout.leaf_slot[static_cast<std::size_t>(l)];
    if (plan.leaf_kind[static_cast<std::size_t>(l)] == LeafKind::kShared) {
      for (std::int32_t c = 0; c < plan.k; ++c) {
        edges.push_back({layout.interior(c, parent), layout.shared_leaf(slot)});
      }
    } else {
      for (std::int32_t c = 0; c < plan.k; ++c) {
        edges.push_back(
            {layout.interior(c, parent), layout.group_member(slot, c)});
        for (std::int32_t c2 = c + 1; c2 < plan.k; ++c2) {
          edges.push_back(
              {layout.group_member(slot, c), layout.group_member(slot, c2)});
        }
      }
    }
  }

  if (layout_out != nullptr) *layout_out = std::move(layout);
  return Graph::from_edges(static_cast<NodeId>(n), edges);
}

}  // namespace lhg::core::testing
