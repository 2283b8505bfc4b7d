// Tests for the identity-stable incremental membership engine.
//
// The load-bearing invariants: (1) the slot-space overlay is always
// bit-identical to lhg::build(size) — the canonical invariant; (2) the
// emitted member-space delta, applied to the previous member-space edge
// set, reproduces the next one exactly — no phantom or missing rewires;
// (3) non-reshaping changes cost O(k), reshaping ones O(k²), never a
// relabeled subtree; (4) everything is deterministic at any LHG_THREADS.

#include "membership/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/connectivity.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/failure.h"
#include "flooding/reliable_broadcast.h"
#include "flooding/trial_runner.h"
#include "lhg/verifier.h"
#include "membership/membership.h"

namespace lhg::membership {
namespace {

using core::Edge;
using core::NodeId;

/// The overlay's edge set over member ids (canonical sorted).
std::vector<Edge> member_space_edges(const IncrementalOverlay& o) {
  std::vector<Edge> edges;
  const core::Graph slot_graph = o.canonical_graph();
  for (const Edge& e : slot_graph.edges()) {
    edges.push_back(
        core::canonical(o.member_of_slot(e.u), o.member_of_slot(e.v)));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Applies a MemberDelta to a sorted member-space edge set in place,
/// checking exact applicability (every removal present, no addition
/// duplicated).
void apply_delta(std::vector<Edge>* edges, const MemberDelta& delta) {
  EXPECT_TRUE(std::is_sorted(delta.removed.begin(), delta.removed.end()));
  EXPECT_TRUE(std::is_sorted(delta.added.begin(), delta.added.end()));
  EXPECT_TRUE(std::includes(edges->begin(), edges->end(),
                            delta.removed.begin(), delta.removed.end()))
      << "delta removes an edge the overlay does not have";
  std::vector<Edge> next;
  std::set_difference(edges->begin(), edges->end(), delta.removed.begin(),
                      delta.removed.end(), std::back_inserter(next));
  const std::size_t before = next.size();
  next.insert(next.end(), delta.added.begin(), delta.added.end());
  std::sort(next.begin(), next.end());
  EXPECT_TRUE(std::adjacent_find(next.begin(), next.end()) == next.end())
      << "delta adds an edge the overlay already has";
  EXPECT_EQ(next.size(), before + delta.added.size());
  *edges = std::move(next);
}

TEST(Incremental, SeedsAtCanonicalIdentity) {
  const IncrementalOverlay o(40, 4);
  EXPECT_EQ(o.size(), 40);
  EXPECT_EQ(o.canonical_graph(), build(40, 4));
  EXPECT_EQ(o.members().size(), 40u);
  EXPECT_EQ(o.next_member_id(), 40);
  for (NodeId s = 0; s < 40; ++s) {
    EXPECT_EQ(o.member_of_slot(s), s);
    EXPECT_EQ(o.slot_of_member(s), s);
  }
  std::vector<MemberId> ids;
  EXPECT_EQ(o.member_graph(&ids), build(40, 4));
}

TEST(Incremental, NonReshapingJoinCostsExactlyK) {
  // 2k + 2·3(k-1) is a K-TREE lattice point at k = 4 (cf. the Overlay
  // test): the next join attaches one leaf, k edges, nobody relocates.
  IncrementalOverlay o(2 * 4 + 2 * 3 * (4 - 1), 4);
  MemberId id = -1;
  const auto delta = o.join(&id);
  EXPECT_EQ(id, o.next_member_id() - 1);
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(delta.added.size(), 4u);
  EXPECT_EQ(delta.relocated, 0);
  EXPECT_EQ(delta.joined, (std::vector<MemberId>{id}));
  // Every new edge touches the joiner.
  for (const Edge& e : delta.added) {
    EXPECT_TRUE(e.u == id || e.v == id) << e.u << "," << e.v;
  }
  EXPECT_EQ(o.canonical_graph(), build(o.size(), 4));
}

TEST(Incremental, LeaveOfLatestLeafIsCheap) {
  IncrementalOverlay o(2 * 4 + 2 * 3 * (4 - 1), 4);
  MemberId id = -1;
  o.join(&id);
  const auto delta = o.leave(id);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_EQ(delta.removed.size(), 4u);
  EXPECT_FALSE(o.is_member(id));
  EXPECT_EQ(o.canonical_graph(), build(o.size(), 4));
}

TEST(Incremental, DeltasReplayExactlyUnderRandomChurn) {
  for (const Constraint c :
       {Constraint::kKTree, Constraint::kKDiamond, Constraint::kStrictJD}) {
    SCOPED_TRACE(to_string(c));
    const std::int32_t k = 3;
    IncrementalOverlay o(24, k, c);
    std::vector<Edge> shadow = member_space_edges(o);
    core::Rng rng(std::uint64_t{0xfeed} + static_cast<std::uint64_t>(c));
    for (int step = 0; step < 120; ++step) {
      const bool grow =
          !o.can_shrink() || (o.can_grow() && rng.next_bool(0.55));
      MemberDelta delta;
      if (grow) {
        if (!o.can_grow()) continue;  // strict-JD gap in both directions
        delta = o.join();
      } else {
        const auto ids = o.members();
        delta = o.leave(ids[rng.next_below(ids.size())]);
      }
      apply_delta(&shadow, delta);
      ASSERT_EQ(shadow, member_space_edges(o)) << "step " << step;
      ASSERT_EQ(o.canonical_graph(), build(o.size(), k, c)) << "step "
                                                            << step;
    }
    EXPECT_GT(o.generations(), 0);
  }
}

TEST(Incremental, BatchedViewChangeReplaysExactly) {
  IncrementalOverlay o(64, 4);
  std::vector<Edge> shadow = member_space_edges(o);
  core::Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const auto ids = o.members();
    std::vector<MemberId> leavers;
    for (const MemberId id : ids) {
      if (leavers.size() < 5 && rng.next_bool(0.08)) leavers.push_back(id);
    }
    const auto joins = static_cast<std::int32_t>(rng.next_below(6));
    if (!exists(o.size() - static_cast<NodeId>(leavers.size()) + joins, 4)) {
      continue;
    }
    const auto delta = o.apply_batch(leavers, joins);
    EXPECT_EQ(delta.joined.size(), static_cast<std::size_t>(joins));
    for (const MemberId id : leavers) EXPECT_FALSE(o.is_member(id));
    apply_delta(&shadow, delta);
    ASSERT_EQ(shadow, member_space_edges(o)) << "round " << round;
    ASSERT_EQ(o.canonical_graph(), build(o.size(), 4)) << "round " << round;
  }
}

// Acceptance bound: at non-reshaping sizes a single join or leave
// rewires at most c·k·log₂ n edges with c = 2 (documented in
// incremental.h and DESIGN.md §16); reshaping steps stay ≤ 3k²-2k.
TEST(Incremental, SingleChangeRewiringIsLogBounded) {
  const std::int32_t k = 4;
  IncrementalOverlay o(32, k);
  std::int64_t max_seen = 0;
  while (o.size() < 256) {
    const auto delta = o.join();
    const double log2n = std::log2(static_cast<double>(o.size()));
    max_seen = std::max(max_seen, delta.total());
    EXPECT_LE(delta.total(), static_cast<std::int64_t>(2.0 * k * log2n))
        << "n=" << o.size();
    if (delta.removed.empty() && delta.relocated == 0) {
      EXPECT_EQ(delta.total(), k);
    }
  }
  EXPECT_LE(max_seen, 3 * k * k - 2 * k);
  // And back down again.
  while (o.size() > 32) {
    const auto ids = o.members();
    const auto delta = o.leave(ids.back());
    const double log2n = std::log2(static_cast<double>(o.size() + 1));
    EXPECT_LE(delta.total(), static_cast<std::int64_t>(2.0 * k * log2n))
        << "n=" << o.size();
  }
}

TEST(Incremental, SurvivorEdgesUntouchedByNonReshapingChange) {
  // Identity stability in its sharpest form: a join that frees no slot
  // must not move or rewire anyone — the delta touches the joiner only.
  IncrementalOverlay o(2 * 4 + 2 * 3 * (4 - 1), 4);
  const auto before = member_space_edges(o);
  MemberId id = -1;
  const auto delta = o.join(&id);
  ASSERT_TRUE(delta.removed.empty());
  const auto after = member_space_edges(o);
  // `before` is a subset of `after`: nobody lost an edge.
  EXPECT_TRUE(
      std::includes(after.begin(), after.end(), before.begin(), before.end()));
}

// Batches far past any single-step reshape (most slots dissolve or are
// created) still take the plan-delta path: the delta replays exactly,
// the slot graph stays canonical and the member graph k-connected.
TEST(Incremental, LargeBatchesStayCanonical) {
  struct Batch {
    NodeId n;
    std::int32_t k;
    std::int32_t leaves;
    std::int32_t joins;
  };
  const Batch batches[] = {
      {64, 4, 40, 0},      {30, 3, 0, 100},   {1024, 4, 600, 0},
      {1024, 4, 0, 1500},  {200, 3, 150, 150},
  };
  for (const Batch& b : batches) {
    SCOPED_TRACE(testing::Message() << "n=" << b.n << " k=" << b.k
                                    << " leaves=" << b.leaves
                                    << " joins=" << b.joins);
    IncrementalOverlay o(b.n, b.k);
    std::vector<Edge> shadow = member_space_edges(o);
    core::Rng rng(static_cast<std::uint64_t>(b.n) * 31 +
                  static_cast<std::uint64_t>(b.leaves));
    std::vector<MemberId> ids = o.members();
    std::vector<MemberId> leavers;
    for (std::int32_t i = 0; i < b.leaves; ++i) {
      const std::size_t pick = rng.next_below(ids.size());
      leavers.push_back(ids[pick]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const auto delta = o.apply_batch(leavers, b.joins);
    EXPECT_EQ(o.size(), b.n - b.leaves + b.joins);
    apply_delta(&shadow, delta);
    EXPECT_EQ(shadow, member_space_edges(o));
    EXPECT_EQ(o.canonical_graph(), build(o.size(), b.k));
    EXPECT_EQ(core::vertex_connectivity(o.member_graph(), b.k + 1), b.k);
  }
}

TEST(Incremental, MemberGraphIsAnLhgUnderChurnedIds) {
  IncrementalOverlay o(40, 4);
  core::Rng rng(5);
  for (int step = 0; step < 30; ++step) {
    if (o.can_grow() && rng.next_bool(0.6)) {
      o.join();
    } else if (o.can_shrink()) {
      const auto ids = o.members();
      o.leave(ids[rng.next_below(ids.size())]);
    }
  }
  // Ids are now sparse and shuffled relative to slots; the dense view
  // must still verify as a full LHG.
  std::vector<MemberId> ids;
  const auto g = o.member_graph(&ids);
  EXPECT_EQ(static_cast<std::size_t>(g.num_nodes()), ids.size());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  const auto report = verify(g, 4, {.minimality_sample = 24});
  EXPECT_TRUE(report.is_lhg());
}

TEST(Incremental, ThrowParityWithExistsAtBoundaries) {
  // K-TREE floor n = 2k.
  IncrementalOverlay floor_overlay(8, 4);
  EXPECT_FALSE(floor_overlay.can_shrink());
  EXPECT_THROW(floor_overlay.leave(0), std::invalid_argument);
  EXPECT_TRUE(floor_overlay.is_member(0));  // unchanged on throw
  EXPECT_EQ(floor_overlay.size(), 8);

  // Strict-JD gap: (8,3) exists, (9,3) does not.
  IncrementalOverlay jd(8, 3, Constraint::kStrictJD);
  EXPECT_FALSE(jd.can_grow());
  EXPECT_THROW(jd.join(), std::invalid_argument);
  EXPECT_EQ(jd.size(), 8);
  // But a batch can jump the gap: +2 lands on realizable 10.
  const auto delta = jd.apply_batch({}, 2);
  EXPECT_EQ(jd.size(), 10);
  EXPECT_EQ(delta.joined.size(), 2u);
  EXPECT_EQ(jd.canonical_graph(), build(10, 3, Constraint::kStrictJD));

  // Unknown / duplicate leavers throw without mutating.
  IncrementalOverlay o(24, 3);
  EXPECT_THROW(o.leave(999), std::invalid_argument);
  const MemberId dup[2] = {3, 3};
  EXPECT_THROW(o.apply_batch(dup, 0), std::invalid_argument);
  EXPECT_THROW(o.apply_batch({}, -1), std::invalid_argument);
  EXPECT_EQ(o.size(), 24);
  EXPECT_EQ(o.generations(), 0);
}

// --- Satellite: 1-vs-N LHG_THREADS bit-identity ----------------------
//
// membership::diff and the incremental delta path both emit sorted edge
// lists; folding them through a position-sensitive hash makes any
// ordering or content difference visible.  The trial bodies also run
// the parallel connectivity kernel so the sweep genuinely exercises
// multi-threaded code paths.

std::uint64_t mix(std::uint64_t x) { return core::splitmix64(x); }

std::uint64_t fold_edges(std::uint64_t h, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    h = mix(h ^ (core::edge_key(e.u, e.v) + 0x9e3779b97f4a7c15ULL));
  }
  return h;
}

std::uint64_t churn_trial_hash(std::uint64_t trial_seed) {
  core::Rng rng(trial_seed);
  IncrementalOverlay o(26, 3);
  Overlay baseline(26, 3);
  std::uint64_t h = 0;
  for (int step = 0; step < 12; ++step) {
    const bool grow = !o.can_shrink() || rng.next_bool(0.6);
    MemberDelta delta;
    if (grow) {
      delta = o.join();
      h = mix(h ^ static_cast<std::uint64_t>(baseline.add_node().total()));
    } else {
      const auto ids = o.members();
      delta = o.leave(ids[rng.next_below(ids.size())]);
      h = mix(h ^ static_cast<std::uint64_t>(baseline.remove_node().total()));
    }
    h = fold_edges(h, delta.added);
    h = fold_edges(h, delta.removed);
    // membership::diff over the canonical generations, same hash fold.
    const auto churn = diff(o.canonical_graph(), baseline.graph());
    h = fold_edges(h, churn.added);
    h = fold_edges(h, churn.removed);
    // diff of identical graphs is empty both ways: the two engines
    // realize the same canonical overlay at every size.
    h = mix(h ^ static_cast<std::uint64_t>(churn.total()));
  }
  h = mix(h ^ static_cast<std::uint64_t>(
                  core::vertex_connectivity(o.member_graph(), 4)));
  return h;
}

std::uint64_t run_churn_sweep(int threads) {
  core::set_global_thread_count(threads);
  const flooding::TrialRunner runner{.seed = 20260809};
  return runner.run(
      16, std::uint64_t{0},
      [](std::int64_t t, core::Rng& rng) {
        (void)t;
        return churn_trial_hash(rng());
      },
      // XOR: associative with identity 0, so the fold is schedule-free.
      [](std::uint64_t a, std::uint64_t b) { return a ^ b; });
}

TEST(IncrementalParallelDeterminism, DeltaStreamsIdenticalAtAnyThreadCount) {
  const std::uint64_t serial = run_churn_sweep(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run_churn_sweep(threads), serial) << threads;
  }
  core::set_global_thread_count(core::ThreadPool::default_thread_count());
}

// --- Satellite: continuous verification under churn + chaos ----------
//
// LHG(≈512, 4): every simulated minute a view batch of 1–10% of the
// membership (interleaved joins, graceful leaves, and crash-style
// removals) is applied through the incremental engine; after EVERY
// batch the certificate + max-flow verifier (upper_limit = k+1)
// must confirm κ = k on the member graph — not just at quiescence.
// The view change itself is disseminated over the live overlay by the
// ack/retry flood under Gilbert–Elliott bursty loss composed with a
// transient network partition, and must reach every member.  At
// quiescence the overlay must still be the canonical lhg::build.

TEST(Integration, ChurnWithContinuousVerificationStaysKConnected) {
  const std::int32_t k = 4;
  IncrementalOverlay o(512, k);
  core::Rng rng(0xC0FFEE);
  flooding::ChaosSpec chaos = flooding::ChaosSpec::bursty(0.05, 0.3, 0.6);

  std::int64_t crashes_applied = 0;
  for (int minute = 0; minute < 12; ++minute) {
    SCOPED_TRACE(testing::Message() << "minute " << minute);
    // 1–10% churn for this view: a mix of graceful leaves and crash
    // removals, plus enough joins to stay near 512.
    const auto ids = o.members();
    const auto n = static_cast<std::int64_t>(ids.size());
    const std::int64_t budget =
        1 + static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(n / 10)));
    std::vector<MemberId> leavers;
    std::vector<std::uint8_t> taken(ids.size(), 0);
    while (static_cast<std::int64_t>(leavers.size()) < budget) {
      const std::size_t pick = rng.next_below(ids.size());
      if (taken[pick]) continue;
      taken[pick] = 1;
      leavers.push_back(ids[pick]);
      if (rng.next_bool(0.4)) ++crashes_applied;  // crash, not goodbye
    }
    std::int32_t joins =
        static_cast<std::int32_t>(rng.next_below(
            static_cast<std::uint64_t>(budget) + 1));
    while (!exists(n - static_cast<std::int64_t>(leavers.size()) + joins,
                   k)) {
      ++joins;  // realizability fallback: widen the batch
    }

    const auto delta = o.apply_batch(leavers, joins);
  
    // Continuous verification: κ(member graph) == k, capped at k+1 so
    // the probe stack certifies at the cheap limit (PR 8 stack).
    std::vector<MemberId> dense_ids;
    const auto g = o.member_graph(&dense_ids);
    ASSERT_EQ(core::vertex_connectivity(g, k + 1), k);

    // Disseminate this view change over the overlay we just rewired,
    // under bursty loss plus a transient partition window.
    flooding::FailurePlan net_plan;
    if (minute % 3 == 1) {
      flooding::PartitionWindow window;
      window.side.resize(static_cast<std::size_t>(g.num_nodes()), 0);
      for (std::size_t i = 0; i < window.side.size(); ++i) {
        window.side[i] = static_cast<std::uint8_t>(rng.next_below(2));
      }
      window.start = 1.0;
      window.end = 7.0;
      net_plan.partitions.push_back(window);
    }
    flooding::ReliableBroadcastConfig cfg;
    cfg.source = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(g.num_nodes())));
    cfg.seed = rng();
    cfg.chaos = chaos;
    cfg.backoff = flooding::BackoffPolicy::fixed(3.0, 10);
    // Retry through the partition window instead of abandoning copies
    // whose first attempt was refused at the cut.
    cfg.backoff.persist_when_blocked = true;
    const auto rel = flooding::reliable_broadcast(g, cfg, net_plan);
    EXPECT_TRUE(rel.all_alive_delivered());
  }

  EXPECT_GT(crashes_applied, 0);
  // Quiescence: the overlay converged back to the canonical build.
  EXPECT_EQ(o.canonical_graph(), build(o.size(), k));
  const auto report = verify(o.member_graph(), k, {.minimality_sample = 32});
  EXPECT_TRUE(report.is_lhg());
}

}  // namespace
}  // namespace lhg::membership
