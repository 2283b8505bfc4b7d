#include "lhg/plan_delta.h"

#include <algorithm>

#include "core/check.h"
#include "lhg/implicit.h"
#include "lhg/layout.h"

namespace lhg {

namespace {

using core::Edge;
using core::NodeId;

/// The edges of `view` with at least one endpoint in `slots`
/// (ascending; `in_set` is their membership test), each once, sorted.
template <typename InSet>
std::vector<Edge> incident_edges(const ImplicitLhg& view,
                                 const std::vector<NodeId>& slots,
                                 InSet in_set) {
  std::vector<Edge> edges;
  for (const NodeId s : slots) {
    for (std::int32_t i = 0; i < view.degree(s); ++i) {
      const NodeId t = view.neighbor(s, i);
      if (t < s && in_set(t)) continue;  // listed from t's side
      edges.push_back(core::canonical(s, t));
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Buckets leaf indices of `plan` by (parent, kind), preserving plan
/// order within each bucket.  Bucket id = parent * 2 + (kind ==
/// kUnshared) — flat vectors, no hashed iteration.
std::vector<std::vector<std::int32_t>> bucket_leaves(const TreePlan& plan) {
  std::vector<std::vector<std::int32_t>> buckets(
      static_cast<std::size_t>(plan.num_interiors()) * 2);
  for (std::int32_t l = 0; l < plan.num_leaves(); ++l) {
    const auto p = plan.leaf_parent[static_cast<std::size_t>(l)];
    const bool unshared =
        plan.leaf_kind[static_cast<std::size_t>(l)] == LeafKind::kUnshared;
    buckets[static_cast<std::size_t>(p) * 2 + (unshared ? 1u : 0u)].push_back(
        l);
  }
  return buckets;
}

/// Records the slot correspondence of one matched leaf pair into
/// `slot_map`.  Matched leaves have the same kind by construction.
void map_leaf(const TreePlan& from, const Layout& from_layout,
              const Layout& to_layout, std::int32_t lf, std::int32_t lt,
              std::vector<NodeId>* slot_map) {
  const auto sf = from_layout.leaf_slot[static_cast<std::size_t>(lf)];
  const auto st = to_layout.leaf_slot[static_cast<std::size_t>(lt)];
  if (from.leaf_kind[static_cast<std::size_t>(lf)] == LeafKind::kShared) {
    (*slot_map)[static_cast<std::size_t>(from_layout.shared_leaf(sf))] =
        to_layout.shared_leaf(st);
  } else {
    for (std::int32_t c = 0; c < from.k; ++c) {
      (*slot_map)[static_cast<std::size_t>(from_layout.group_member(sf, c))] =
          to_layout.group_member(st, c);
    }
  }
}

}  // namespace

PlanDelta plan_delta(const TreePlan& from, const TreePlan& to) {
  LHG_CHECK(from.k == to.k, "plan_delta: k mismatch ({} vs {})", from.k, to.k);
  const std::int32_t common =
      std::min(from.num_interiors(), to.num_interiors());
  for (std::int32_t i = 0; i < common; ++i) {
    LHG_CHECK(from.interior_parent[static_cast<std::size_t>(i)] ==
                  to.interior_parent[static_cast<std::size_t>(i)],
              "plan_delta: interior prefix diverges at {} ({} vs {})", i,
              from.interior_parent[static_cast<std::size_t>(i)],
              to.interior_parent[static_cast<std::size_t>(i)]);
  }

  const ImplicitLhg from_view(from);
  const ImplicitLhg to_view(to);
  const Layout& from_layout = from_view.layout();
  const Layout& to_layout = to_view.layout();
  const NodeId from_total = from_view.num_nodes();
  const NodeId to_total = to_view.num_nodes();

  PlanDelta delta;
  delta.slot_map.assign(static_cast<std::size_t>(from_total), -1);
  std::vector<std::uint8_t> to_matched(static_cast<std::size_t>(to_total), 0);

  // Interiors: BFS-index identity on the common prefix; the rest are
  // freed (from) or new (to).
  for (std::int32_t i = 0; i < common; ++i) {
    for (std::int32_t c = 0; c < from.k; ++c) {
      const auto s = from_layout.interior(c, i);
      delta.slot_map[static_cast<std::size_t>(s)] = to_layout.interior(c, i);
      to_matched[static_cast<std::size_t>(to_layout.interior(c, i))] = 1;
    }
  }

  // Leaves: match by (parent, kind) in occurrence order.  A bucket
  // beyond the other plan's interior count simply finds an empty
  // counterpart, so the loop runs over the larger bucket array.
  const auto from_buckets = bucket_leaves(from);
  const auto to_buckets = bucket_leaves(to);
  const std::size_t num_buckets =
      std::max(from_buckets.size(), to_buckets.size());
  static const std::vector<std::int32_t> kEmpty;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const auto& fb = b < from_buckets.size() ? from_buckets[b] : kEmpty;
    const auto& tb = b < to_buckets.size() ? to_buckets[b] : kEmpty;
    const std::size_t matched = std::min(fb.size(), tb.size());
    for (std::size_t i = 0; i < matched; ++i) {
      map_leaf(from, from_layout, to_layout, fb[i], tb[i], &delta.slot_map);
      const auto lt = tb[i];
      const auto st = to_layout.leaf_slot[static_cast<std::size_t>(lt)];
      if (to.leaf_kind[static_cast<std::size_t>(lt)] == LeafKind::kShared) {
        to_matched[static_cast<std::size_t>(to_layout.shared_leaf(st))] = 1;
      } else {
        for (std::int32_t c = 0; c < to.k; ++c) {
          to_matched[static_cast<std::size_t>(to_layout.group_member(st, c))] =
              1;
        }
      }
    }
  }

  for (NodeId s = 0; s < from_total; ++s) {
    if (delta.slot_map[static_cast<std::size_t>(s)] < 0) {
      delta.freed_slots.push_back(s);
    }
  }
  for (NodeId s = 0; s < to_total; ++s) {
    if (to_matched[static_cast<std::size_t>(s)] == 0) {
      delta.new_slots.push_back(s);
    }
  }

  // Matched elements keep every realized edge, so the delta is the
  // edges touching a freed slot (from) or a new slot (to).
  delta.removed_edges =
      incident_edges(from_view, delta.freed_slots, [&](NodeId v) {
        return delta.slot_map[static_cast<std::size_t>(v)] < 0;
      });
  delta.added_edges = incident_edges(to_view, delta.new_slots, [&](NodeId v) {
    return to_matched[static_cast<std::size_t>(v)] == 0;
  });
  return delta;
}

}  // namespace lhg
