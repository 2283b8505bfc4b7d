// Identity-stable incremental membership for LHG overlays.
//
// membership::Overlay (membership.h) maintains the overlay by full
// reconstruction: every size change rebuilds lhg::build(n') and rewires
// the labeled-graph difference, which relabels whole subtrees when the
// tree re-shapes (E11 measured mean ~155 / p95 ~1240 edge changes per
// join at k = 4).  This module is the incremental protocol that wins
// that gap back.
//
// The engine separates *who* a node is from *where* it sits:
//
//   member id  — a persistent identity, assigned at join and never
//                reused; survivors keep theirs forever;
//   slot       — a node id of the canonical labeling of the *current*
//                plan (lhg::layout_of), i.e. a position in the k pasted
//                trees.
//
// A join or leave moves the overlay from plan(n) to plan(n±1).  The
// two plans are diffed canonically (lhg/plan_delta.h): matched tree
// elements keep their occupants and *all* their edges; only occupants
// of dissolved slots relocate into created slots.  The rewiring a
// change implies is therefore
//
//   * a non-reshaping join:   exactly k edge insertions (one added
//     leaf attaching to its parent's k copies);
//   * a non-reshaping leave:  k deletions if the leaver occupied the
//     dissolved leaf slot, plus ≤ 2k swap rewires when a survivor is
//     relocated into the leaver's surviving slot;
//   * an interior-count or leaf-kind boundary:  ≤ 3k² edges (promoting
//     one leaf to an interior and re-homing the absorbed extras; the
//     measured maxima over full size sweeps are exactly 3k² − 2k for
//     K-TREE and 3k² − 2k + 3 for K-DIAMOND's parity transition at
//     k = 3) — independent of n.
//
// All cases are ≤ c·k·log₂ n with c = 2 for the benched k = 4, n ≥ 32
// regime (in general c = ⌈3k/log₂ n⌉), against Θ(n) rebuild-and-diff.
// Batched view changes (apply_batch) pay one plan delta for the whole
// batch, so sustained churn composes sublinearly.  Every change, however
// large, takes this one path: on batches that dissolve most slots a
// dense rebuild-and-diff (membership::Overlay's approach) rewires as
// many or more edges (DESIGN.md §16).
//
// The canonical invariant: after every change the slot-space graph is
// bit-identical to lhg::build(size(), k, constraint) — the member
// graph is that graph under the pid permutation, so every paper
// property (P1–P4) transfers verbatim.  Everything here is
// deterministic: edge lists are emitted sorted, relocation assigns
// ascending freed occupants to ascending created slots, and no hashed
// container is ever iterated.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"
#include "lhg/tree_plan.h"

namespace lhg::membership {

/// Persistent member identity.  Dense graph node ids are a *view*
/// (member_graph); MemberIds survive any number of membership changes.
using MemberId = core::NodeId;

/// The rewiring one membership change (or batch) implies, in member-id
/// space.  Both edge lists are canonical (u < v) and sorted; an edge
/// never appears in both (no-op rewires are cancelled).
struct MemberDelta {
  std::vector<core::Edge> added;
  std::vector<core::Edge> removed;
  /// Ids assigned to the batch's joiners, ascending.
  std::vector<MemberId> joined;
  /// Surviving members whose tree position changed (their edges are
  /// fully rewired; identity is preserved).
  std::int32_t relocated = 0;

  std::int64_t total() const {
    return static_cast<std::int64_t>(added.size() + removed.size());
  }
};

class IncrementalOverlay {
 public:
  /// Seeds the overlay at size n: member i occupies canonical slot i,
  /// so the member graph starts bit-identical to lhg::build(n, k, c).
  /// Throws std::invalid_argument if (n, k) is not realizable under
  /// the constraint.
  IncrementalOverlay(core::NodeId n, std::int32_t k,
                     Constraint constraint = Constraint::kKTree);

  std::int32_t k() const { return k_; }
  Constraint constraint() const { return constraint_; }
  core::NodeId size() const { return view_.num_nodes(); }

  /// True iff the overlay can grow/shrink by one under its constraint.
  bool can_grow() const;
  bool can_shrink() const;

  /// Single join; the new member's id is returned via `id` (also in
  /// delta.joined).  Throws if size()+1 is not realizable.
  MemberDelta join(MemberId* id = nullptr);
  /// Single leave.  Throws if `id` is not a member or size()-1 is not
  /// realizable.
  MemberDelta leave(MemberId id);

  /// Applies a whole view change — all `leavers` depart and `joins`
  /// fresh members arrive — as ONE plan delta, the batching path for
  /// sustained churn.  Intermediate sizes need not be realizable; only
  /// the final size is checked.  Throws on unknown/duplicate leavers
  /// or an unrealizable final size; the overlay is unchanged on throw.
  MemberDelta apply_batch(std::span<const MemberId> leavers,
                          std::int32_t joins);

  bool is_member(MemberId id) const {
    return id >= 0 && id < next_id_ &&
           slot_of_member_[static_cast<std::size_t>(id)] >= 0;
  }
  /// Current member ids, ascending.
  std::vector<MemberId> members() const;
  /// Occupant of a canonical slot (slot in [0, size())).
  MemberId member_of_slot(core::NodeId slot) const;
  /// Canonical slot of a member, or -1 if not a member.
  core::NodeId slot_of_member(MemberId id) const;
  /// The id the next joiner will receive.
  MemberId next_member_id() const { return next_id_; }

  /// The current abstract plan (always the planner's canonical output
  /// for (size, k, constraint)).
  const TreePlan& plan() const { return view_.plan(); }
  /// Slot-space overlay, materialized on each call: bit-identical to
  /// lhg::build(size, k, c).
  core::Graph canonical_graph() const { return view_.materialize(); }
  /// The overlay over member identities, densified: node i of the
  /// result is the i-th smallest member id (written to `ids`).
  core::Graph member_graph(std::vector<MemberId>* ids = nullptr) const;

  /// Cumulative |added| + |removed| across all changes.
  std::int64_t cumulative_churn() const { return cumulative_churn_; }
  /// Membership changes applied (batches count once).
  std::int64_t generations() const { return generations_; }

 private:
  void commit(TreePlan new_plan, std::vector<MemberId> new_member_of_slot,
              std::span<const MemberId> leavers, MemberDelta* delta);

  std::int32_t k_;
  Constraint constraint_;
  ImplicitLhg view_;  // closed-form slot-space graph of the current plan
  std::vector<MemberId> member_of_slot_;   // size == size()
  std::vector<core::NodeId> slot_of_member_;  // indexed by id; -1 = departed
  MemberId next_id_ = 0;
  std::int64_t cumulative_churn_ = 0;
  std::int64_t generations_ = 0;
};

}  // namespace lhg::membership
