#include "lhg/implicit.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"

namespace lhg {

using core::NodeId;

ImplicitLhg::ImplicitLhg(std::int64_t n, std::int32_t k, Constraint c)
    : ImplicitLhg(lhg::plan(n, k, c)) {
  LHG_CHECK(num_nodes_ == n,
            "ImplicitLhg: plan for (n={}, k={}) realizes {} nodes", n, k,
            num_nodes_);
}

ImplicitLhg::ImplicitLhg(TreePlan plan)
    : plan_(std::move(plan)), layout_(layout_of(plan_)) {
  build_tables();
}

void ImplicitLhg::build_tables() {
  k_ = plan_.k;
  interiors_ = plan_.num_interiors();
  const auto num_interiors = static_cast<std::size_t>(interiors_);

  const std::int64_t total = layout_.total_nodes();
  LHG_CHECK(total <= INT32_MAX,
            "ImplicitLhg: {} nodes exceed the NodeId range", total);
  first_shared_ = k_ * interiors_;
  first_group_ = first_shared_ + layout_.num_shared_leaves;
  num_nodes_ = static_cast<NodeId>(total);

  // Children of each interior are a contiguous index range: base_plan
  // fills slots in BFS order, so the parent sequence is non-decreasing.
  child_lo_.assign(num_interiors, 0);
  child_hi_.assign(num_interiors, 0);
  for (std::int32_t i = 1; i < interiors_; ++i) {
    const auto p =
        static_cast<std::size_t>(plan_.interior_parent[static_cast<std::size_t>(i)]);
    if (child_lo_[p] == child_hi_[p]) {
      child_lo_[p] = i;
      child_hi_[p] = i + 1;
    } else {
      LHG_CHECK(child_hi_[p] == i,
                "ImplicitLhg: children of interior {} are not contiguous "
                "(expected {}, got {})", p, child_hi_[p], i);
      child_hi_[p] = i + 1;
    }
  }

  // Leaf slots grouped by parent: shared slice first, then groups, each
  // ascending (slot counters increase with leaf index, so a stable
  // two-pass fill keeps every slice sorted).
  const auto num_leaves = static_cast<std::size_t>(plan_.num_leaves());
  std::vector<std::int32_t> shared_count(num_interiors, 0);
  std::vector<std::int32_t> group_count(num_interiors, 0);
  for (std::size_t l = 0; l < num_leaves; ++l) {
    const auto p = static_cast<std::size_t>(plan_.leaf_parent[l]);
    if (plan_.leaf_kind[l] == LeafKind::kShared) {
      ++shared_count[p];
    } else {
      ++group_count[p];
    }
  }
  leaf_lo_.assign(num_interiors, 0);
  leaf_mid_.assign(num_interiors, 0);
  leaf_hi_.assign(num_interiors, 0);
  std::int32_t offset = 0;
  for (std::size_t i = 0; i < num_interiors; ++i) {
    leaf_lo_[i] = offset;
    leaf_mid_[i] = offset + shared_count[i];
    leaf_hi_[i] = leaf_mid_[i] + group_count[i];
    offset = leaf_hi_[i];
  }
  slots_.assign(num_leaves, 0);
  shared_parent_.assign(static_cast<std::size_t>(layout_.num_shared_leaves), 0);
  group_parent_.assign(static_cast<std::size_t>(layout_.num_unshared_groups),
                       0);
  std::vector<std::int32_t> shared_cursor(leaf_lo_);
  std::vector<std::int32_t> group_cursor(leaf_mid_);
  for (std::size_t l = 0; l < num_leaves; ++l) {
    const auto p = static_cast<std::size_t>(plan_.leaf_parent[l]);
    const std::int32_t slot = layout_.leaf_slot[l];
    if (plan_.leaf_kind[l] == LeafKind::kShared) {
      slots_[static_cast<std::size_t>(shared_cursor[p]++)] = slot;
      shared_parent_[static_cast<std::size_t>(slot)] =
          static_cast<std::int32_t>(p);
    } else {
      slots_[static_cast<std::size_t>(group_cursor[p]++)] = slot;
      group_parent_[static_cast<std::size_t>(slot)] =
          static_cast<std::int32_t>(p);
    }
  }

  // Per-copy CSR arc offsets and forward-edge offsets over the abstract
  // interiors; copy c then lives at a constant stride from copy 0.
  arc_prefix_.assign(num_interiors + 1, 0);
  fwd_prefix_.assign(num_interiors + 1, 0);
  for (std::int32_t i = 0; i < interiors_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::int32_t deg = interior_degree(i);
    arc_prefix_[idx + 1] = arc_prefix_[idx] + deg;
    fwd_prefix_[idx + 1] = fwd_prefix_[idx] + deg - (i > 0 ? 1 : 0);
  }
  per_copy_arcs_ = arc_prefix_[num_interiors];
  per_copy_fwd_ = fwd_prefix_[num_interiors];

  const std::int64_t groups = layout_.num_unshared_groups;
  num_edges_ = static_cast<std::int64_t>(k_) * per_copy_fwd_ +
               groups * (static_cast<std::int64_t>(k_) * (k_ - 1) / 2);
  LHG_CHECK(2 * num_edges_ <= INT32_MAX,
            "ImplicitLhg: {} arcs exceed the 32-bit arc-id range",
            2 * num_edges_);
  num_arcs_ = static_cast<std::int32_t>(2 * num_edges_);
  group_edge_base_ = k_ * per_copy_fwd_;
  shared_arc_base_ = k_ * per_copy_arcs_;
  group_arc_base_ =
      shared_arc_base_ + layout_.num_shared_leaves * k_;
  LHG_CHECK(group_arc_base_ +
                    static_cast<std::int64_t>(groups) * k_ * k_ ==
                num_arcs_,
            "ImplicitLhg: arc-space accounting mismatch ({} vs {})",
            group_arc_base_ + groups * k_ * k_, num_arcs_);
}

NodeId ImplicitLhg::neighbor(NodeId v, std::int32_t i) const {
  LHG_DCHECK_RANGE(v, num_nodes_);
  LHG_DCHECK_RANGE(i, degree(v));
  if (v < first_shared_) {
    const std::int32_t c = copy_of(v);
    const std::int32_t a = abstract_of(v);
    const auto idx = static_cast<std::size_t>(a);
    std::int32_t j = i;
    if (a > 0) {
      if (j == 0) return c * interiors_ + plan_.interior_parent[idx];
      --j;
    }
    const std::int32_t nchild = child_hi_[idx] - child_lo_[idx];
    if (j < nchild) return c * interiors_ + child_lo_[idx] + j;
    j -= nchild;
    const std::int32_t nshared = leaf_mid_[idx] - leaf_lo_[idx];
    if (j < nshared) {
      return first_shared_ + slots_[static_cast<std::size_t>(leaf_lo_[idx] + j)];
    }
    j -= nshared;
    return first_group_ +
           slots_[static_cast<std::size_t>(leaf_mid_[idx] + j)] * k_ + c;
  }
  if (v < first_group_) {
    const std::int32_t s = v - first_shared_;
    return i * interiors_ + shared_parent_[static_cast<std::size_t>(s)];
  }
  const std::int32_t r = v - first_group_;
  const std::int32_t g = r / k_;
  const std::int32_t c = r % k_;
  if (i == 0) {
    return c * interiors_ + group_parent_[static_cast<std::size_t>(g)];
  }
  const std::int32_t other = i - 1 < c ? i - 1 : i;  // skip self
  return first_group_ + g * k_ + other;
}

std::int32_t ImplicitLhg::arc_begin(NodeId v) const {
  LHG_DCHECK_RANGE(v, num_nodes_);
  if (v < first_shared_) {
    return copy_of(v) * per_copy_arcs_ +
           arc_prefix_[static_cast<std::size_t>(abstract_of(v))];
  }
  if (v < first_group_) {
    return shared_arc_base_ + (v - first_shared_) * k_;
  }
  return group_arc_base_ + (v - first_group_) * k_;
}

NodeId ImplicitLhg::arc_target(std::int32_t arc) const {
  LHG_DCHECK_RANGE(arc, num_arcs_);
  if (arc < shared_arc_base_) {
    const std::int32_t c = arc / per_copy_arcs_;
    const std::int32_t r = arc % per_copy_arcs_;
    const auto it =
        std::upper_bound(arc_prefix_.begin(), arc_prefix_.end(), r);
    const auto a = static_cast<std::int32_t>(it - arc_prefix_.begin()) - 1;
    return neighbor(c * interiors_ + a,
                    r - arc_prefix_[static_cast<std::size_t>(a)]);
  }
  if (arc < group_arc_base_) {
    const std::int32_t r = arc - shared_arc_base_;
    return neighbor(first_shared_ + r / k_, r % k_);
  }
  const std::int32_t r = arc - group_arc_base_;
  return neighbor(first_group_ + r / k_, r % k_);
}

std::int32_t ImplicitLhg::edge_of_arc(std::int32_t arc) const {
  LHG_DCHECK_RANGE(arc, num_arcs_);
  if (arc < shared_arc_base_) {
    const std::int32_t c = arc / per_copy_arcs_;
    const std::int32_t r = arc % per_copy_arcs_;
    const auto it =
        std::upper_bound(arc_prefix_.begin(), arc_prefix_.end(), r);
    const auto a = static_cast<std::int32_t>(it - arc_prefix_.begin()) - 1;
    return incident_edge(c * interiors_ + a,
                         r - arc_prefix_[static_cast<std::size_t>(a)]);
  }
  if (arc < group_arc_base_) {
    const std::int32_t r = arc - shared_arc_base_;
    return incident_edge(first_shared_ + r / k_, r % k_);
  }
  const std::int32_t r = arc - group_arc_base_;
  return incident_edge(first_group_ + r / k_, r % k_);
}

std::int32_t ImplicitLhg::shared_pos(std::int32_t i, std::int32_t slot) const {
  const auto idx = static_cast<std::size_t>(i);
  const auto lo = slots_.begin() + leaf_lo_[idx];
  const auto hi = slots_.begin() + leaf_mid_[idx];
  const auto it = std::lower_bound(lo, hi, slot);
  if (it == hi || *it != slot) return -1;
  return static_cast<std::int32_t>(it - lo);
}

std::int32_t ImplicitLhg::group_pos(std::int32_t i, std::int32_t slot) const {
  const auto idx = static_cast<std::size_t>(i);
  const auto lo = slots_.begin() + leaf_mid_[idx];
  const auto hi = slots_.begin() + leaf_hi_[idx];
  const auto it = std::lower_bound(lo, hi, slot);
  if (it == hi || *it != slot) return -1;
  return static_cast<std::int32_t>(it - lo);
}

std::int32_t ImplicitLhg::incident_edge(NodeId v, std::int32_t i) const {
  LHG_DCHECK_RANGE(v, num_nodes_);
  LHG_DCHECK_RANGE(i, degree(v));
  if (v < first_shared_) {
    const std::int32_t c = copy_of(v);
    const std::int32_t a = abstract_of(v);
    const auto idx = static_cast<std::size_t>(a);
    if (a > 0 && i == 0) {
      // The parent edge is a *child* forward edge from the parent's side.
      const std::int32_t p = plan_.interior_parent[idx];
      return interior_fwd_begin(c, p) +
             (a - child_lo_[static_cast<std::size_t>(p)]);
    }
    return interior_fwd_begin(c, a) + (i - (a > 0 ? 1 : 0));
  }
  if (v < first_group_) {
    // Copy i's parent owns the forward edge to this shared leaf.
    const std::int32_t s = v - first_shared_;
    const std::int32_t p = shared_parent_[static_cast<std::size_t>(s)];
    const auto pi = static_cast<std::size_t>(p);
    return interior_fwd_begin(i, p) + (child_hi_[pi] - child_lo_[pi]) +
           shared_pos(p, s);
  }
  const std::int32_t r = v - first_group_;
  const std::int32_t g = r / k_;
  const std::int32_t c = r % k_;
  if (i == 0) {
    const std::int32_t p = group_parent_[static_cast<std::size_t>(g)];
    const auto pi = static_cast<std::size_t>(p);
    return interior_fwd_begin(c, p) + (child_hi_[pi] - child_lo_[pi]) +
           (leaf_mid_[pi] - leaf_lo_[pi]) + group_pos(p, g);
  }
  const std::int32_t other = i - 1 < c ? i - 1 : i;
  return other < c ? group_fwd_begin(g, other) + (c - other - 1)
                   : group_fwd_begin(g, c) + (other - c - 1);
}

std::int32_t ImplicitLhg::edge_index(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return -1;
  }
  const NodeId a = u < v ? u : v;
  const NodeId b = u < v ? v : u;
  if (a < first_shared_) {
    const std::int32_t c = copy_of(a);
    const std::int32_t i = abstract_of(a);
    const auto idx = static_cast<std::size_t>(i);
    const std::int32_t nchild = child_hi_[idx] - child_lo_[idx];
    if (b < first_shared_) {
      if (copy_of(b) != c) return -1;
      const std::int32_t ib = abstract_of(b);
      if (plan_.interior_parent[static_cast<std::size_t>(ib)] != i) return -1;
      return interior_fwd_begin(c, i) + (ib - child_lo_[idx]);
    }
    if (b < first_group_) {
      const std::int32_t s = b - first_shared_;
      const std::int32_t pos = shared_pos(i, s);
      if (pos < 0) return -1;
      return interior_fwd_begin(c, i) + nchild + pos;
    }
    const std::int32_t r = b - first_group_;
    if (r % k_ != c) return -1;  // member attaches to its own copy only
    const std::int32_t pos = group_pos(i, r / k_);
    if (pos < 0) return -1;
    return interior_fwd_begin(c, i) + nchild + (leaf_mid_[idx] - leaf_lo_[idx]) +
           pos;
  }
  if (a < first_group_) return -1;  // shared leaves only touch interiors
  const std::int32_t ra = a - first_group_;
  const std::int32_t rb = b - first_group_;
  if (ra / k_ != rb / k_) return -1;  // different cliques
  return group_fwd_begin(ra / k_, ra % k_) + (rb % k_ - ra % k_ - 1);
}

std::vector<std::int32_t> ImplicitLhg::shard_owners(
    std::int32_t shards, std::vector<std::int32_t> storage) const {
  LHG_CHECK(shards >= 1, "ImplicitLhg::shard_owners: shard count {} must be "
            ">= 1", shards);
  // Dealing depth: the shallowest with kDealtPerShard · S interiors.
  const std::vector<std::int32_t> depth = plan_.interior_depths();
  std::vector<std::int32_t> per_depth(
      static_cast<std::size_t>(*std::max_element(depth.begin(), depth.end())) +
          1,
      0);
  for (const std::int32_t d : depth) ++per_depth[static_cast<std::size_t>(d)];
  const std::int64_t wanted = std::int64_t{kDealtPerShard} * shards;
  std::int32_t deal = static_cast<std::int32_t>(per_depth.size()) - 1;
  for (std::int32_t d = 0; d < deal; ++d) {
    if (per_depth[static_cast<std::size_t>(d)] >= wanted) {
      deal = d;
      break;
    }
  }
  // Parents precede children, so an interior below the dealing depth
  // reads its parent's owner, already set.
  std::vector<std::int32_t> interior_owner(static_cast<std::size_t>(interiors_));
  std::int32_t dealt = 0;
  for (std::int32_t i = 0; i < interiors_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (depth[idx] < deal) {
      interior_owner[idx] = i % shards;
    } else if (depth[idx] == deal) {
      interior_owner[idx] = dealt++ % shards;
    } else {
      interior_owner[idx] = interior_owner[static_cast<std::size_t>(
          plan_.interior_parent[idx])];
    }
  }
  std::vector<std::int32_t> owner = std::move(storage);
  owner.resize(static_cast<std::size_t>(num_nodes_));  // every entry set below
  core::parallel_for(num_nodes_, /*grain=*/4096, [&](std::int64_t u, int) {
    const auto v = static_cast<NodeId>(u);
    const std::int32_t a =
        v < first_shared_ ? abstract_of(v)
        : v < first_group_
            ? shared_parent_[static_cast<std::size_t>(v - first_shared_)]
            : group_parent_[static_cast<std::size_t>((v - first_group_) / k_)];
    owner[static_cast<std::size_t>(u)] =
        interior_owner[static_cast<std::size_t>(a)];
  });
  return owner;
}

core::Graph ImplicitLhg::materialize() const {
  std::vector<std::int32_t> offsets(static_cast<std::size_t>(num_nodes_) + 1,
                                    0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] + degree(v);
  }
  std::vector<NodeId> adjacency(static_cast<std::size_t>(offsets.back()));
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::int32_t deg = degree(v);
    const auto base = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    for (std::int32_t i = 0; i < deg; ++i) {
      adjacency[base + static_cast<std::size_t>(i)] = neighbor(v, i);
    }
  }
  return core::Graph::from_csr(num_nodes_, std::move(offsets),
                               std::move(adjacency));
}

}  // namespace lhg
