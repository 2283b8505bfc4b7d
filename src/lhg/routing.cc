#include "lhg/routing.h"

#include <algorithm>

#include "core/check.h"
#include "lhg/implicit.h"

namespace lhg {

using core::NodeId;

Router::Router(TreePlan plan, Layout layout)
    : plan_(std::move(plan)), layout_(std::move(layout)) {
  LHG_CHECK(plan_.k == layout_.k &&
                plan_.num_interiors() == layout_.num_interiors,
            "Router: plan (k={}, interiors={}) does not match layout "
            "(k={}, interiors={})",
            plan_.k, plan_.num_interiors(), layout_.k, layout_.num_interiors);
  depth_ = plan_.interior_depths();
  first_leaf_of_.assign(static_cast<std::size_t>(plan_.num_interiors()), -1);
  first_interior_child_.assign(static_cast<std::size_t>(plan_.num_interiors()),
                               -1);
  for (std::int32_t i = 1; i < plan_.num_interiors(); ++i) {
    auto& slot = first_interior_child_[static_cast<std::size_t>(
        plan_.interior_parent[static_cast<std::size_t>(i)])];
    if (slot == -1) slot = i;
  }
  abstract_leaf_of_slot_[0].assign(
      static_cast<std::size_t>(layout_.num_shared_leaves), -1);
  abstract_leaf_of_slot_[1].assign(
      static_cast<std::size_t>(layout_.num_unshared_groups), -1);
  for (std::int32_t l = 0; l < plan_.num_leaves(); ++l) {
    const auto parent = plan_.leaf_parent[static_cast<std::size_t>(l)];
    auto& first = first_leaf_of_[static_cast<std::size_t>(parent)];
    if (first == -1) first = l;
    const auto kind_index =
        plan_.leaf_kind[static_cast<std::size_t>(l)] == LeafKind::kShared ? 0
                                                                          : 1;
    abstract_leaf_of_slot_[kind_index][static_cast<std::size_t>(
        layout_.leaf_slot[static_cast<std::size_t>(l)])] = l;
  }
}

Router::Position Router::classify(NodeId node) const {
  LHG_CHECK_RANGE(node, layout_.total_nodes());
  Position pos{};
  const auto interiors = layout_.k * layout_.num_interiors;
  if (node < interiors) {
    pos.kind = Kind::kInterior;
    pos.copy = node / layout_.num_interiors;
    pos.interior = node % layout_.num_interiors;
    return pos;
  }
  if (node < interiors + layout_.num_shared_leaves) {
    pos.kind = Kind::kSharedLeaf;
    pos.leaf = abstract_leaf_of_slot_[0][static_cast<std::size_t>(
        node - interiors)];
    return pos;
  }
  const auto index = node - interiors - layout_.num_shared_leaves;
  pos.kind = Kind::kGroupMember;
  pos.copy = index % layout_.k;
  pos.leaf = abstract_leaf_of_slot_[1][static_cast<std::size_t>(
      index / layout_.k)];
  return pos;
}

Router::Anchor Router::anchor(const Position& pos, NodeId node,
                              std::int32_t preferred_copy) const {
  Anchor a;
  switch (pos.kind) {
    case Kind::kInterior:
      a.copy = pos.copy;
      a.interior = pos.interior;
      a.prefix = {node};
      return a;
    case Kind::kSharedLeaf:
      // A shared leaf touches every copy: enter whichever copy the other
      // endpoint prefers.
      a.copy = preferred_copy >= 0 ? preferred_copy : 0;
      a.interior = plan_.leaf_parent[static_cast<std::size_t>(pos.leaf)];
      a.prefix = {node};
      return a;
    case Kind::kGroupMember: {
      const auto slot = layout_.leaf_slot[static_cast<std::size_t>(pos.leaf)];
      if (preferred_copy >= 0 && preferred_copy != pos.copy) {
        // Jump the clique first, then enter the preferred copy.
        a.copy = preferred_copy;
        a.interior = plan_.leaf_parent[static_cast<std::size_t>(pos.leaf)];
        a.prefix = {node, layout_.group_member(slot, preferred_copy)};
        return a;
      }
      a.copy = pos.copy;
      a.interior = plan_.leaf_parent[static_cast<std::size_t>(pos.leaf)];
      a.prefix = {node};
      return a;
    }
  }
  LHG_FAIL("Router: unknown position kind");
}

std::vector<NodeId> Router::tree_route(std::int32_t copy, std::int32_t a,
                                       std::int32_t b) const {
  // Climb the deeper endpoint until the two meet (LCA), recording both
  // sides, then splice.
  std::vector<std::int32_t> up_a{a};
  std::vector<std::int32_t> up_b{b};
  std::int32_t x = a;
  std::int32_t y = b;
  while (x != y) {
    if (depth_[static_cast<std::size_t>(x)] >=
        depth_[static_cast<std::size_t>(y)]) {
      x = plan_.interior_parent[static_cast<std::size_t>(x)];
      up_a.push_back(x);
    } else {
      y = plan_.interior_parent[static_cast<std::size_t>(y)];
      up_b.push_back(y);
    }
  }
  std::vector<NodeId> path;
  for (std::int32_t i : up_a) path.push_back(layout_.interior(copy, i));
  // up_b ends at the LCA, which up_a already contributed.
  for (auto it = up_b.rbegin() + 1; it != up_b.rend(); ++it) {
    path.push_back(layout_.interior(copy, *it));
  }
  return path;
}

std::vector<NodeId> Router::cross_copies(std::int32_t copy,
                                         std::int32_t interior,
                                         std::int32_t target_copy,
                                         std::int32_t* entry_interior) const {
  // Descend (excluding the starting interior itself) to the nearest
  // interior that hosts a leaf, then bridge through that leaf.
  std::vector<NodeId> path;
  std::int32_t at = interior;
  while (first_leaf_of_[static_cast<std::size_t>(at)] == -1) {
    at = first_interior_child_[static_cast<std::size_t>(at)];
    LHG_CHECK(at != -1, "Router: interior with no subtree leaf");
    path.push_back(layout_.interior(copy, at));
  }
  const auto leaf = first_leaf_of_[static_cast<std::size_t>(at)];
  const auto slot = layout_.leaf_slot[static_cast<std::size_t>(leaf)];
  if (plan_.leaf_kind[static_cast<std::size_t>(leaf)] == LeafKind::kShared) {
    path.push_back(layout_.shared_leaf(slot));
  } else {
    path.push_back(layout_.group_member(slot, copy));
    path.push_back(layout_.group_member(slot, target_copy));
  }
  *entry_interior = at;
  return path;
}

std::vector<NodeId> Router::route(NodeId from, NodeId to) const {
  if (from == to) return {from};
  const Position from_pos = classify(from);
  const Position to_pos = classify(to);

  // Fast path: clique siblings and other direct neighbors.
  if (from_pos.kind == Kind::kGroupMember &&
      to_pos.kind == Kind::kGroupMember && from_pos.leaf == to_pos.leaf) {
    return {from, to};
  }

  // Choose one working copy.  Interiors are pinned; group members can
  // jump their clique into any copy; shared leaves touch every copy.
  // Interiors get priority so that at most one endpoint (an interior on
  // the other side) can disagree — the only case needing a leaf bridge.
  std::int32_t target_copy = 0;
  if (to_pos.kind == Kind::kInterior) {
    target_copy = to_pos.copy;
  } else if (from_pos.kind == Kind::kInterior) {
    target_copy = from_pos.copy;
  } else if (to_pos.kind == Kind::kGroupMember) {
    target_copy = to_pos.copy;
  } else if (from_pos.kind == Kind::kGroupMember) {
    target_copy = from_pos.copy;
  }
  const Anchor a = anchor(from_pos, from, target_copy);
  const Anchor b = anchor(to_pos, to, target_copy);

  std::vector<NodeId> path = a.prefix;
  std::vector<NodeId> middle;
  if (a.copy == b.copy) {
    middle = tree_route(a.copy, a.interior, b.interior);
  } else {
    // Both endpoints are interiors pinned to different copies.
    std::int32_t entry = -1;
    const auto crossing = cross_copies(a.copy, a.interior, b.copy, &entry);
    middle = {layout_.interior(a.copy, a.interior)};
    middle.insert(middle.end(), crossing.begin(), crossing.end());
    const auto ascent = tree_route(b.copy, entry, b.interior);
    middle.insert(middle.end(), ascent.begin(), ascent.end());
  }
  // Splice, dropping duplicates where prefix meets anchor interior.
  for (NodeId node : middle) {
    if (path.empty() || path.back() != node) path.push_back(node);
  }
  for (auto it = b.prefix.rbegin(); it != b.prefix.rend(); ++it) {
    if (path.back() != *it) path.push_back(*it);
  }
  return path;
}

RoutedOverlay make_routed_overlay(core::NodeId n, std::int32_t k,
                                  Constraint constraint) {
  const ImplicitLhg view(n, k, constraint);
  return RoutedOverlay{view.materialize(), Router(view.plan(), view.layout())};
}

}  // namespace lhg
