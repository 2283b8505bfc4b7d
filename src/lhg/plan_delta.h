// Structural deltas between two TreePlans of the same k.
//
// Every LHG in this library is "k copies of a tree T pasted at the
// leaves", and the realized edge set is a pure function of T's abstract
// elements: a tree edge belongs to its child interior, a leaf-parent
// edge (and a K-DIAMOND clique) belongs to its leaf.  Two plans for
// nearby sizes therefore differ in a handful of elements, and the
// realized graphs differ in exactly the edges those elements own.  This
// module computes that difference *canonically*, which is what makes
// identity-stable incremental membership (membership/incremental.h)
// possible: a join or leave relocates only the occupants of dissolved
// slots instead of relabeling the whole overlay.
//
// Element matching:
//   * interiors match by BFS index — base_plan's parent structure is a
//     pure function of the index, so the common prefix is structurally
//     identical in both plans (checked);
//   * leaves match by (parent interior, kind) in occurrence order.
//     All leaves sharing a key have *identical* realized neighbor sets
//     (a shared leaf under p touches p's copy in every tree; unshared
//     group members are symmetric), so any within-key matching is
//     sound and the occurrence-order one is canonical.
//
// Matched elements keep their realized edges verbatim; the delta is
// exactly the edges owned by dissolved ("freed") and created ("new")
// elements.  A matched element's parent is matched too, so those are
// the edges of the closed-form view (lhg/implicit.h) incident to a
// freed or new slot: the module lists no edges of its own.
// Non-reshaping size steps free nothing and create one leaf (k edges);
// interior-count or leaf-kind transitions touch O(k²) edges — never a
// whole subtree.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "lhg/tree_plan.h"

namespace lhg {

/// The structural difference `from` -> `to` in realized-slot space
/// (slot = node id of layout_of(plan); see lhg/layout.h).
struct PlanDelta {
  /// For every from-slot: the to-slot of the same abstract element, or
  /// -1 if the element dissolved.  Size = layout_of(from).total_nodes().
  std::vector<core::NodeId> slot_map;

  /// From-slots whose element dissolved, ascending.
  std::vector<core::NodeId> freed_slots;
  /// To-slots whose element did not exist in `from`, ascending.
  std::vector<core::NodeId> new_slots;

  /// Edges of the from-graph incident to a freed slot, in from-slot
  /// space, canonical sorted.  Every edge of the from-graph absent from
  /// the to-graph (under the element matching) is here.
  std::vector<core::Edge> removed_edges;
  /// Edges of the to-graph incident to a new slot, in to-slot space,
  /// canonical sorted.
  std::vector<core::Edge> added_edges;

  std::int64_t rewired() const {
    return static_cast<std::int64_t>(removed_edges.size() +
                                     added_edges.size());
  }
};

/// Computes the canonical delta between two plans.  Requires equal k
/// and that the shared interior prefix agrees (always true for plans
/// produced by this library's planners).  O(n + delta) time.
PlanDelta plan_delta(const TreePlan& from, const TreePlan& to);

}  // namespace lhg
