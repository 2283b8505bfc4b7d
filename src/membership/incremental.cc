#include "membership/incremental.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "lhg/plan_delta.h"

namespace lhg::membership {

namespace {

using core::Edge;
using core::NodeId;
using core::as_index;

/// Translates slot-space edges into member-id space through an
/// occupant map and appends them, re-canonicalized (the occupant
/// permutation does not preserve u < v).
void translate_edges(std::span<const Edge> edges,
                     std::span<const MemberId> occupant_of_slot,
                     std::vector<Edge>* out) {
  for (const Edge& e : edges) {
    out->push_back(core::canonical(occupant_of_slot[as_index(e.u)],
                                   occupant_of_slot[as_index(e.v)]));
  }
}

/// Sorts, dedups, and cancels: edges present in both lists are no-op
/// rewires (an occupant pair that stays adjacent across the change)
/// and are dropped from both.
void finalize_edge_delta(std::vector<Edge>* removed, std::vector<Edge>* added) {
  std::sort(removed->begin(), removed->end());
  removed->erase(std::unique(removed->begin(), removed->end()),
                 removed->end());
  std::sort(added->begin(), added->end());
  added->erase(std::unique(added->begin(), added->end()), added->end());
  std::vector<Edge> removed_only;
  std::vector<Edge> added_only;
  std::set_difference(removed->begin(), removed->end(), added->begin(),
                      added->end(), std::back_inserter(removed_only));
  std::set_difference(added->begin(), added->end(), removed->begin(),
                      removed->end(), std::back_inserter(added_only));
  *removed = std::move(removed_only);
  *added = std::move(added_only);
}

}  // namespace

IncrementalOverlay::IncrementalOverlay(NodeId n, std::int32_t k,
                                       Constraint constraint)
    : k_(k),
      constraint_(constraint),
      view_(lhg::plan(n, k, constraint)) {
  LHG_CHECK(view_.num_nodes() == n,
            "IncrementalOverlay: planner realized {} nodes for n={}",
            view_.num_nodes(), n);
  member_of_slot_.resize(as_index(n));
  slot_of_member_.resize(as_index(n));
  for (NodeId i = 0; i < n; ++i) {
    member_of_slot_[as_index(i)] = i;
    slot_of_member_[as_index(i)] = i;
  }
  next_id_ = n;
}

bool IncrementalOverlay::can_grow() const {
  return lhg::exists(static_cast<std::int64_t>(size()) + 1, k_, constraint_);
}

bool IncrementalOverlay::can_shrink() const {
  return lhg::exists(static_cast<std::int64_t>(size()) - 1, k_, constraint_);
}

MemberDelta IncrementalOverlay::join(MemberId* id) {
  const MemberId assigned = next_id_;
  MemberDelta delta = apply_batch(std::span<const MemberId>(), 1);
  if (id != nullptr) *id = assigned;
  return delta;
}

MemberDelta IncrementalOverlay::leave(MemberId id) {
  LHG_CHECK(is_member(id), "leave: {} is not a member", id);
  const MemberId leaver[1] = {id};
  return apply_batch(leaver, 0);
}

MemberDelta IncrementalOverlay::apply_batch(std::span<const MemberId> leavers,
                                            std::int32_t joins) {
  LHG_CHECK(joins >= 0, "apply_batch: negative join count {}", joins);
  std::vector<MemberId> sorted_leavers(leavers.begin(), leavers.end());
  std::sort(sorted_leavers.begin(), sorted_leavers.end());
  LHG_CHECK(std::adjacent_find(sorted_leavers.begin(), sorted_leavers.end()) ==
                sorted_leavers.end(),
            "apply_batch: duplicate leaver");
  for (const MemberId id : sorted_leavers) {
    LHG_CHECK(is_member(id), "apply_batch: leaver {} is not a member", id);
  }

  const NodeId old_n = size();
  const std::int64_t new_n64 = static_cast<std::int64_t>(old_n) -
                               static_cast<std::int64_t>(sorted_leavers.size()) +
                               joins;
  LHG_CHECK(lhg::exists(new_n64, k_, constraint_),
            "apply_batch: no {} LHG on {} nodes for k={}",
            to_string(constraint_), new_n64, k_);
  if (sorted_leavers.empty() && joins == 0) return {};
  const NodeId new_n = core::checked_cast<NodeId>(new_n64);

  TreePlan new_plan = lhg::plan(new_n, k_, constraint_);
  const PlanDelta d = plan_delta(view_.plan(), new_plan);
  std::vector<std::uint8_t> leaving_slot(as_index(old_n), 0);
  for (const MemberId id : sorted_leavers) {
    leaving_slot[as_index(slot_of_member_[as_index(id)])] = 1;
  }

  // Occupants of dissolved slots that are NOT leaving must relocate;
  // their destinations are the created slots plus the surviving slots
  // the leavers vacated.  Ascending occupants to ascending slots is
  // the canonical (deterministic) assignment; joiners take whatever
  // remains, in id order (fresh ids exceed every pool id, so the
  // concatenation stays sorted).
  std::vector<MemberId> incoming;
  for (const NodeId s : d.freed_slots) {
    if (leaving_slot[as_index(s)] == 0) {
      incoming.push_back(member_of_slot_[as_index(s)]);
    }
  }
  std::sort(incoming.begin(), incoming.end());
  MemberDelta delta;
  delta.relocated = static_cast<std::int32_t>(incoming.size());
  for (std::int32_t j = 0; j < joins; ++j) {
    delta.joined.push_back(next_id_ + j);
    incoming.push_back(next_id_ + j);
  }

  std::vector<NodeId> targets = d.new_slots;
  for (const MemberId id : sorted_leavers) {
    const NodeId t = d.slot_map[as_index(slot_of_member_[as_index(id)])];
    if (t >= 0) targets.push_back(t);
  }
  std::sort(targets.begin(), targets.end());
  LHG_CHECK(incoming.size() == targets.size(),
            "apply_batch: relocation imbalance ({} members for {} slots)",
            incoming.size(), targets.size());

  std::vector<MemberId> new_member_of_slot(as_index(new_n), -1);
  for (NodeId s = 0; s < old_n; ++s) {
    const NodeId t = d.slot_map[as_index(s)];
    if (t >= 0 && leaving_slot[as_index(s)] == 0) {
      new_member_of_slot[as_index(t)] = member_of_slot_[as_index(s)];
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    new_member_of_slot[as_index(targets[i])] = incoming[i];
  }

  // Edge delta in member-id space: (a) edges owned by dissolved /
  // created elements, translated through the respective occupant maps;
  // (b) slot edges that survive but whose endpoint occupant changed —
  // only the leavers' surviving slots change occupant, so walking
  // their adjacency covers all of (b) (twice when two such slots are
  // adjacent; finalize dedups).
  translate_edges(d.removed_edges, member_of_slot_, &delta.removed);
  translate_edges(d.added_edges, new_member_of_slot, &delta.added);
  for (const MemberId id : sorted_leavers) {
    const NodeId s = slot_of_member_[as_index(id)];
    const NodeId t = d.slot_map[as_index(s)];
    if (t < 0) continue;
    for (std::int32_t i = 0; i < view_.degree(s); ++i) {
      const NodeId nbr = view_.neighbor(s, i);
      const NodeId nbr_t = d.slot_map[as_index(nbr)];
      if (nbr_t < 0) continue;
      delta.removed.push_back(core::canonical(member_of_slot_[as_index(s)],
                                              member_of_slot_[as_index(nbr)]));
      delta.added.push_back(
          core::canonical(new_member_of_slot[as_index(t)],
                          new_member_of_slot[as_index(nbr_t)]));
    }
  }
  finalize_edge_delta(&delta.removed, &delta.added);

  commit(std::move(new_plan), std::move(new_member_of_slot), sorted_leavers,
         &delta);
  return delta;
}

void IncrementalOverlay::commit(TreePlan new_plan,
                                std::vector<MemberId> new_member_of_slot,
                                std::span<const MemberId> leavers,
                                MemberDelta* delta) {
  view_ = ImplicitLhg(std::move(new_plan));
  member_of_slot_ = std::move(new_member_of_slot);
  slot_of_member_.resize(as_index(next_id_ + static_cast<MemberId>(
                                                 delta->joined.size())),
                         -1);
  for (const MemberId id : leavers) {
    slot_of_member_[as_index(id)] = -1;
  }
  for (NodeId t = 0; t < size(); ++t) {
    slot_of_member_[as_index(member_of_slot_[as_index(t)])] = t;
  }
  next_id_ += static_cast<MemberId>(delta->joined.size());
  cumulative_churn_ += delta->total();
  ++generations_;
}

std::vector<MemberId> IncrementalOverlay::members() const {
  std::vector<MemberId> ids = member_of_slot_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

MemberId IncrementalOverlay::member_of_slot(NodeId slot) const {
  LHG_CHECK_RANGE(slot, size());
  return member_of_slot_[as_index(slot)];
}

NodeId IncrementalOverlay::slot_of_member(MemberId id) const {
  return is_member(id) ? slot_of_member_[as_index(id)] : -1;
}

core::Graph IncrementalOverlay::member_graph(
    std::vector<MemberId>* ids) const {
  const std::vector<MemberId> sorted = members();
  // Dense node id of each slot: its occupant's rank among the members.
  std::vector<NodeId> dense(as_index(size()));
  for (NodeId i = 0; i < size(); ++i) {
    dense[as_index(slot_of_member_[as_index(sorted[as_index(i)])])] = i;
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(view_.num_edges()));
  for (NodeId u = 0; u < size(); ++u) {
    for (std::int32_t i = 0; i < view_.degree(u); ++i) {
      const NodeId v = view_.neighbor(u, i);
      if (u < v) edges.push_back({dense[as_index(u)], dense[as_index(v)]});
    }
  }
  if (ids != nullptr) *ids = sorted;
  return core::Graph::from_edges(size(), edges);
}

}  // namespace lhg::membership
