// Failure-plan generation for the fault-tolerance experiments.
//
// A FailurePlan is the adversary's move: which nodes crash (and, in the
// crash-recovery model, when they come back), which links fail or flap,
// which partitions cut the overlay — and when.  Generators cover the
// spectrum the evaluation needs — uniformly random crashes (E5/E7),
// degree-targeted crashes, minimum-cut-targeted crashes (the strongest
// adversary: it aims at an actual minimum vertex cut of the topology),
// random link cuts, timed crash-recovery cycles, link flaps, and
// partition schedules.  Every generator takes the injection time as an
// argument, so adversaries can strike mid-broadcast, and plans compose
// with `operator|=`-style merging via `compose`.
//
// `apply_failure_plan` is the single place a plan meets a Network:
// time <= 0 entries fire before the first protocol event, later ones
// are scheduled on the simulator.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/rng.h"
#include "flooding/network.h"

namespace lhg::flooding {

struct NodeCrash {
  core::NodeId node;
  double time = 0.0;
};

/// Crash-recovery model: `node` rejoins (with no protocol state) at
/// `time`.  Meaningful only with a matching earlier NodeCrash.
struct NodeRecovery {
  core::NodeId node;
  double time = 0.0;
};

struct LinkFailure {
  core::Edge link;
  double time = 0.0;
};

/// Transient link failure: down during [down, up).
struct LinkFlap {
  core::Edge link;
  double down = 0.0;
  double up = 0.0;
};

/// Bipartition cut active during [start, end): messages between nodes
/// on different sides are blocked/dropped for the window.
struct PartitionWindow {
  std::vector<std::uint8_t> side;  // one entry per node, 0 or 1
  double start = 0.0;
  double end = 0.0;
};

struct FailurePlan {
  std::vector<NodeCrash> crashes;
  std::vector<LinkFailure> link_failures;
  std::vector<NodeRecovery> recoveries;
  std::vector<LinkFlap> flaps;
  std::vector<PartitionWindow> partitions;

  std::size_t total_failures() const {
    return crashes.size() + link_failures.size() + flaps.size() +
           partitions.size();
  }
};

/// Appends every entry of `extra` to `plan` (the composed adversary).
void compose(FailurePlan& plan, const FailurePlan& extra);

/// `count` distinct nodes crash at `time`, chosen uniformly at random,
/// never including `protect` (the broadcast source).  Requires
/// count <= n - 1.
FailurePlan random_crashes(const core::Graph& g, std::int32_t count,
                           core::NodeId protect, core::Rng& rng,
                           double time = 0.0);

/// The `count` highest-degree nodes crash at `time` (ties by id),
/// skipping `protect`.
FailurePlan targeted_crashes(const core::Graph& g, std::int32_t count,
                             core::NodeId protect, double time = 0.0);

/// Crashes `count` nodes drawn from a minimum vertex cut of `g` (the
/// strongest structural adversary) at `time`.  If the cut is smaller
/// than `count`, the remainder is filled with random nodes; `protect`
/// is never chosen.
FailurePlan cut_targeted_crashes(const core::Graph& g, std::int32_t count,
                                 core::NodeId protect, core::Rng& rng,
                                 double time = 0.0);

/// `count` distinct links fail at `time`, chosen uniformly at random.
/// Requires count <= m.
FailurePlan random_link_failures(const core::Graph& g, std::int32_t count,
                                 core::Rng& rng, double time = 0.0);

/// Crash-recovery cycles: `count` distinct random nodes (never
/// `protect`) crash at `crash_time` and recover `downtime` later.
FailurePlan random_crash_recoveries(const core::Graph& g, std::int32_t count,
                                    core::NodeId protect, core::Rng& rng,
                                    double crash_time, double downtime);

/// `count` distinct random links go down at `down` and come back at
/// `up` (down < up).
FailurePlan random_link_flaps(const core::Graph& g, std::int32_t count,
                              core::Rng& rng, double down, double up);

/// A uniformly random bipartition cut active during [start, end): each
/// node lands on side 1 independently with probability `fraction`
/// (side 0 is forced non-empty by pinning node 0 to it).
FailurePlan random_partition(const core::Graph& g, core::Rng& rng,
                             double start, double end, double fraction = 0.5);

/// Partition along a minimum vertex cut: the cut nodes and one side of
/// the split they induce form side 1, active during [start, end).
/// Falls back to random_partition when `g` has no vertex cut (complete
/// graph).
FailurePlan cut_partition(const core::Graph& g, core::Rng& rng, double start,
                          double end);

/// The strongest composed adversary: `count` cut-targeted crashes at
/// `crash_time` plus a minimum-cut-aligned partition over
/// [partition_start, partition_end).
FailurePlan adversarial_chaos(const core::Graph& g, std::int32_t count,
                              core::NodeId protect, core::Rng& rng,
                              double crash_time, double partition_start,
                              double partition_end);

namespace detail {

/// Pairs each recovery with the earliest still-unmatched crash of the
/// same node strictly before it (composed plans then behave as the
/// union of their down windows).  Returns, per recovery index, the
/// paired crash index or npos; `paired[crash]` marks consumed crashes.
inline std::vector<std::size_t> pair_crash_recoveries(
    const std::vector<NodeCrash>& crashes,
    const std::vector<NodeRecovery>& recoveries) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> crash_of(recoveries.size(), npos);
  // Recoveries in (time, index) order claim crashes in (time, index)
  // order per node; plans are small, so the quadratic scan is fine.
  std::vector<std::size_t> rec_order(recoveries.size());
  for (std::size_t i = 0; i < rec_order.size(); ++i) rec_order[i] = i;
  std::sort(rec_order.begin(), rec_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (recoveries[a].time != recoveries[b].time) {
                return recoveries[a].time < recoveries[b].time;
              }
              return a < b;
            });
  std::vector<std::uint8_t> crash_used(crashes.size(), 0);
  for (const std::size_t r : rec_order) {
    if (recoveries[r].time <= 0.0) continue;  // immediate: no window
    std::size_t best = npos;
    for (std::size_t c = 0; c < crashes.size(); ++c) {
      if (crash_used[c] != 0 || crashes[c].node != recoveries[r].node ||
          crashes[c].time >= recoveries[r].time) {
        continue;
      }
      if (best == npos || crashes[c].time < crashes[best].time) best = c;
    }
    if (best != npos) {
      crash_used[best] = 1;
      crash_of[r] = best;
    }
  }
  return crash_of;
}

}  // namespace detail

/// Applies `plan` to a live network: entries with time <= 0 fire
/// immediately (before the first protocol event), later ones are
/// scheduled at their absolute times.  Works with any overlay the
/// network is parameterized over (plans only address nodes and links),
/// and with either network engine — `Net` is a BasicNetwork or a
/// ShardedNetwork, whose mutators both come from FaultModel (network.h;
/// the sharded network schedules the timed ones as control events).
///
/// Timed windows are overlap-safe: each recovery is paired with the
/// earliest preceding crash of its node and each flap restore with its
/// own failure, both epoch-guarded (network.h), so composed plans whose
/// windows overlap keep state down until the *latest* window ends
/// instead of letting the first window's end-event revive it; the same
/// guard protects partition windows from stale clears.
template <typename Net>
void apply_failure_plan(Net& net, const FailurePlan& plan) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::vector<std::size_t> crash_of =
      detail::pair_crash_recoveries(plan.crashes, plan.recoveries);
  std::vector<std::size_t> crash_window(plan.crashes.size(), npos);
  std::vector<std::uint8_t> crash_paired(plan.crashes.size(), 0);
  for (const std::size_t c : crash_of) {
    if (c != npos) crash_paired[c] = 1;
  }
  for (std::size_t c = 0; c < plan.crashes.size(); ++c) {
    const NodeCrash& crash = plan.crashes[c];
    if (crash_paired[c] != 0) {
      crash_window[c] = net.crash_windowed(crash.node, crash.time);
    } else if (crash.time <= 0.0) {
      net.crash_now(crash.node);
    } else {
      net.crash_at(crash.node, crash.time);
    }
  }
  for (std::size_t r = 0; r < plan.recoveries.size(); ++r) {
    const NodeRecovery& recovery = plan.recoveries[r];
    if (crash_of[r] != npos) {
      net.recover_windowed(recovery.node, recovery.time,
                           crash_window[crash_of[r]]);
    } else if (recovery.time <= 0.0) {
      net.recover_now(recovery.node);
    } else {
      net.recover_at(recovery.node, recovery.time);
    }
  }
  for (const LinkFailure& failure : plan.link_failures) {
    if (failure.time <= 0.0) {
      net.fail_link_now(failure.link.u, failure.link.v);
    } else {
      net.fail_link_at(failure.link.u, failure.link.v, failure.time);
    }
  }
  for (const LinkFlap& flap : plan.flaps) {
    LHG_CHECK(flap.down < flap.up, "flap: empty window [{}, {})", flap.down,
              flap.up);
    const std::size_t w =
        net.fail_link_windowed(flap.link.u, flap.link.v, flap.down);
    net.restore_link_windowed(flap.link.u, flap.link.v, flap.up, w);
  }
  for (const PartitionWindow& window : plan.partitions) {
    if (window.start <= 0.0) {
      net.partition_until(window.side, window.end);
    } else {
      net.partition_during(window.side, window.start, window.end);
    }
  }
}

}  // namespace lhg::flooding
