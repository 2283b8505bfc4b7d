// Node-id layout of a realized (pasted) LHG.
//
// The pasted graph mixes three node populations — replicated interiors,
// shared leaves, and unshared k-clique groups — in a single dense id
// space.  `Layout` records where each population lives so that tests,
// examples and the flooding harness can talk about "the root of copy 2"
// or "shared leaf 5" instead of raw ids.
//
// Id space (contiguous):
//   [0, k·I)                     interiors: copy c, interior i -> c·I + i
//   [k·I, k·I + Ls)              shared leaves in plan order
//   [k·I + Ls, k·I + Ls + k·G)   group g, member c -> base + g·k + c

#pragma once

#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "lhg/tree_plan.h"

namespace lhg {

struct Layout {
  std::int32_t k = 0;
  std::int32_t num_interiors = 0;       // I  (abstract, per copy)
  std::int32_t num_shared_leaves = 0;   // Ls
  std::int32_t num_unshared_groups = 0; // G

  /// For each abstract leaf: its index within its population (shared
  /// leaf index, or group index).
  std::vector<std::int32_t> leaf_slot;
  std::vector<LeafKind> leaf_kind;

  core::NodeId interior(std::int32_t copy, std::int32_t i) const {
    return copy * num_interiors + i;
  }
  core::NodeId root(std::int32_t copy) const { return interior(copy, 0); }
  core::NodeId shared_leaf(std::int32_t s) const {
    return k * num_interiors + s;
  }
  core::NodeId group_member(std::int32_t g, std::int32_t copy) const {
    return k * num_interiors + num_shared_leaves + g * k + copy;
  }
  std::int64_t total_nodes() const {
    return static_cast<std::int64_t>(k) * num_interiors + num_shared_leaves +
           static_cast<std::int64_t>(k) * num_unshared_groups;
  }

  /// True iff `node` is a replicated interior; if so, outputs which copy
  /// and which abstract interior it is.
  bool classify_interior(core::NodeId node, std::int32_t* copy,
                         std::int32_t* abstract_interior) const {
    if (node < 0 || node >= k * num_interiors) return false;
    *copy = node / num_interiors;
    *abstract_interior = node % num_interiors;
    return true;
  }
};

/// The id layout of `plan`'s realized graph: leaf slots are numbered in
/// plan order within their population.  The single definition of the
/// node-id map; ImplicitLhg (lhg/implicit.h) derives every neighbor
/// from it arithmetically.
inline Layout layout_of(const TreePlan& plan) {
  LHG_CHECK(plan.k >= 2, "layout_of: k must be >= 2, got {}", plan.k);
  Layout layout;
  layout.k = plan.k;
  layout.num_interiors = plan.num_interiors();
  layout.leaf_kind = plan.leaf_kind;
  layout.leaf_slot.resize(plan.leaf_kind.size());
  for (std::size_t l = 0; l < plan.leaf_kind.size(); ++l) {
    if (plan.leaf_kind[l] == LeafKind::kShared) {
      layout.leaf_slot[l] = layout.num_shared_leaves++;
    } else {
      layout.leaf_slot[l] = layout.num_unshared_groups++;
    }
  }
  return layout;
}

}  // namespace lhg
