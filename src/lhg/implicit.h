// Implicit adjacency view of a Logarithmic Harary Graph.
//
// The pasted-trees construction is pure index arithmetic: given the
// abstract TreePlan (interior parents, leaf attachment points, leaf
// kinds) and the Layout id map, every node's neighbor list is a
// closed-form function of its id.  `ImplicitLhg` exploits that to
// answer `degree(v)`, `neighbor(v, i)`, arc iteration and dense edge
// ids on demand from O(n/k) plan tables — it never stores an edge, so
// an n = 10^7 overlay costs megabytes instead of the ~32 bytes/edge a
// materialized `core::Graph` needs (CSR adjacency + canonical edge
// list + twin/edge-id arc companions).
//
// This closed form is the library's one LHG adjacency rule: `lhg::build`
// materializes it, the membership engine walks it in place, and
// `plan_delta` reads the edges incident to freed and new slots from it.  The edge-by-edge
// reference assembler in core/testing/reference_assemble.h is the
// independent oracle the tests hold it to.
//
// The view satisfies `core::EdgeIndexedGraph` (core/graph_concept.h):
// BFS, sampled diameter and the flooding BasicNetwork all run against
// it unchanged.  Neighbor enumeration is ascending by id, and the edge
// ids it computes coincide exactly with the canonical edge ordering of
// `materialize()`, so per-link state arrays transfer
// 1:1 between the implicit and materialized forms (pinned by
// tests/test_implicit.cc).
//
// Per-node neighbor order (all ascending):
//   interior (copy c, abstract i):
//     [parent interior]  c·I + parent(i)            (absent for the root)
//     child interiors    c·I + j, parent(j) = i     (contiguous j range)
//     shared leaves      k·I + s                    (slots ascending)
//     group members      k·I + Ls + g·k + c         (groups ascending)
//   shared leaf s:       c·I + parent(s) for every copy c
//   group member (g,c):  c·I + parent(g), then the k−1 other members
//
// Shard partition: `shard_owners(S)` deals whole abstract subtrees over
// S shards for the sharded flood engine.  An abstract interior, its k
// copies, its shared leaves and its unshared groups always share one
// shard, so the only cross-shard arcs are the tree edges between the
// few interiors above the dealing depth and the subtree roots below
// them — 328 of 4 000 008 arcs at n = 10⁶, k = 4, S = 4.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/graph_concept.h"
#include "lhg/layout.h"
#include "lhg/lhg.h"
#include "lhg/tree_plan.h"

namespace lhg {

class ImplicitLhg {
 public:
  /// Builds the implicit view of the LHG `lhg::build(n, k, c)` would
  /// return.  Only the abstract plan is materialized (O(n/k) memory);
  /// throws std::invalid_argument when the pair is not realizable.
  ImplicitLhg(std::int64_t n, std::int32_t k,
              Constraint c = Constraint::kKTree);

  /// Implicit view of an explicit plan (any constraint's output).
  explicit ImplicitLhg(TreePlan plan);

  // --- GraphLike -----------------------------------------------------
  core::NodeId num_nodes() const { return num_nodes_; }
  std::int64_t num_edges() const { return num_edges_; }

  std::int32_t degree(core::NodeId v) const {
    LHG_DCHECK_RANGE(v, num_nodes_);
    if (v < first_shared_) {
      return interior_degree(abstract_of(v));
    }
    return k_;  // shared leaves and group members are k-regular
  }

  core::NodeId neighbor(core::NodeId v, std::int32_t i) const;

  // --- Arc iteration (CSR-position arithmetic, no storage) -----------
  std::int32_t num_arcs() const { return num_arcs_; }
  std::int32_t arc_begin(core::NodeId v) const;
  core::NodeId arc_target(std::int32_t arc) const;
  std::int32_t edge_of_arc(std::int32_t arc) const;

  // --- EdgeIndexedGraph ----------------------------------------------
  /// Dense undirected edge id of {u, v} (canonical lexicographic order,
  /// identical to the materialized graph's), or -1 if absent.
  std::int32_t edge_index(core::NodeId u, core::NodeId v) const;

  /// Edge id of {v, neighbor(v, i)}.
  std::int32_t incident_edge(core::NodeId v, std::int32_t i) const;

  // --- Introspection & materialization -------------------------------
  std::int32_t k() const { return k_; }
  const TreePlan& plan() const { return plan_; }
  const Layout& layout() const { return layout_; }

  /// Interiors a dealing depth must hold per shard: the partition takes
  /// the shallowest abstract depth with at least kDealtPerShard · S
  /// interiors (or the deepest one, in trees too small for that).
  static constexpr std::int32_t kDealtPerShard = 8;

  /// Shard of every node (n entries in [0, shards)) for the sharded
  /// engine: the subtrees rooted at the dealing depth go round-robin
  /// over the shards in BFS order, interiors above it go `i % shards`,
  /// and everything else follows its abstract interior — all k copies,
  /// the shared leaves and the whole unshared groups hanging from it.
  /// BFS filling leaves the deeper leaves on the left of the tree, so
  /// dealing (rather than cutting contiguous ranges) balances every
  /// level.  A closed form of the plan: the same table on every call.
  /// The table is written into `storage`, whose capacity is reused.
  std::vector<std::int32_t> shard_owners(
      std::int32_t shards, std::vector<std::int32_t> storage = {}) const;

  /// Materializes the view as a `core::Graph` through the memory-lean
  /// `Graph::from_csr` path: degrees and sorted slices are emitted
  /// directly from the closed form — no hash-set dedup, no edge-list
  /// sort.  This is what `lhg::build` returns.
  core::Graph materialize() const;

 private:
  void build_tables();

  // Abstract interior index of a replicated interior id.
  std::int32_t abstract_of(core::NodeId v) const {
    return static_cast<std::int32_t>(v % interiors_);
  }
  std::int32_t copy_of(core::NodeId v) const {
    return static_cast<std::int32_t>(v / interiors_);
  }

  std::int32_t interior_degree(std::int32_t i) const {
    const auto idx = static_cast<std::size_t>(i);
    return (i > 0 ? 1 : 0) + (child_hi_[idx] - child_lo_[idx]) +
           (leaf_hi_[idx] - leaf_lo_[idx]);
  }

  // First forward-edge id (canonical order) of interior (c, i) /
  // group member (g, c).
  std::int32_t interior_fwd_begin(std::int32_t c, std::int32_t i) const {
    return c * per_copy_fwd_ + fwd_prefix_[static_cast<std::size_t>(i)];
  }
  std::int32_t group_fwd_begin(std::int32_t g, std::int32_t c) const {
    // Within group g, member c's forward edges follow the triangular
    // prefix sum over earlier members: sum_{j<c} (k-1-j).
    const std::int32_t tri = c * (k_ - 1) - c * (c - 1) / 2;
    return group_edge_base_ + g * (k_ * (k_ - 1) / 2) + tri;
  }

  // Position of `slot` within an interior's shared / group slot slice
  // (ascending), or -1 if not attached there.
  std::int32_t shared_pos(std::int32_t i, std::int32_t slot) const;
  std::int32_t group_pos(std::int32_t i, std::int32_t slot) const;

  TreePlan plan_;
  Layout layout_;

  std::int32_t k_ = 0;
  std::int32_t interiors_ = 0;       // I: abstract interiors per copy
  core::NodeId first_shared_ = 0;    // k·I
  core::NodeId first_group_ = 0;     // k·I + Ls
  core::NodeId num_nodes_ = 0;
  std::int64_t num_edges_ = 0;
  std::int32_t num_arcs_ = 0;

  // Abstract-interior tables (all size I, or I+1 for prefixes).
  std::vector<std::int32_t> child_lo_, child_hi_;   // contiguous BFS range
  std::vector<std::int32_t> leaf_lo_, leaf_mid_, leaf_hi_;  // into slots_
  std::vector<std::int32_t> arc_prefix_;  // per-copy CSR arc offsets (I+1)
  std::vector<std::int32_t> fwd_prefix_;  // per-copy forward-edge offsets (I+1)

  // Leaf slots grouped by parent interior: for each interior the slice
  // [leaf_lo_, leaf_mid_) holds its shared-leaf slots ascending and
  // [leaf_mid_, leaf_hi_) its unshared-group slots ascending.
  std::vector<std::int32_t> slots_;

  // Parent interior per shared-leaf slot / per group.
  std::vector<std::int32_t> shared_parent_, group_parent_;

  std::int32_t per_copy_arcs_ = 0;  // sum of interior degrees, one copy
  std::int32_t per_copy_fwd_ = 0;   // forward edges per copy: (I−1) + L
  std::int32_t group_edge_base_ = 0;  // k·per_copy_fwd_: first group edge id
  std::int32_t shared_arc_base_ = 0;  // k·per_copy_arcs_
  std::int32_t group_arc_base_ = 0;   // shared_arc_base_ + Ls·k
};

static_assert(core::EdgeIndexedGraph<ImplicitLhg>);
static_assert(core::EdgeIndexedGraph<core::Graph>);

}  // namespace lhg
