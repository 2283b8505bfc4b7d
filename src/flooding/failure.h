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
// `apply_failure_plan` is the single place a plan meets a network, and
// the only way to inject a fault: every entry opens or closes a counted
// window, so composed plans whose windows nest, overlap or coincide
// follow one rule on both engines.

#pragma once

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

/// Crash-recovery model: `node` closes one of its open crash windows at
/// `time` and rejoins (with no protocol state) once none is left open.
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

/// Per node, 1 when the node is down once every crash and recovery of
/// `plan` has run under the fault rule of `apply_failure_plan` — the
/// final membership.  Node ids must be in [0, num_nodes).
std::vector<std::uint8_t> crashed_at_end(const FailurePlan& plan,
                                         core::NodeId num_nodes);

/// Applies `plan` to a network that has not run yet, on either engine
/// (`Net` is a BasicNetwork or a ShardedNetwork, network.h).  This is
/// the only way to change fault state, under one rule:
///
///   * every entry opens a window that holds its fault until the entry
///     that closes it: a recovery closes one open crash window of its
///     node, a flap's end closes the flap;
///   * a node or link is faulty while at least one window holds it;
///   * a transmission is cut while any open partition window separates
///     its endpoints;
///   * a crash with no recovery, or a link failure, never closes; a
///     recovery with no open crash window does nothing.
///
/// An entry with time <= 0 applies at once, before the first protocol
/// event; a later one becomes exactly one scheduled mutation (a control
/// event on the sharded engine).  At equal times mutations run in kind
/// order — crashes, recoveries, link failures, flaps, partitions — so a
/// crash and a recovery of one node at one instant leave one window
/// fewer open.  The whole plan is validated before anything applies.
template <typename Net>
void apply_failure_plan(Net& net, const FailurePlan& plan) {
  LHG_CHECK(net.simulator().events_processed() == 0,
            "apply_failure_plan: the engine has already run {} events",
            net.simulator().events_processed());
  const core::NodeId n = net.topology().num_nodes();
  for (const NodeCrash& crash : plan.crashes) LHG_CHECK_RANGE(crash.node, n);
  for (const NodeRecovery& recovery : plan.recoveries) {
    LHG_CHECK_RANGE(recovery.node, n);
  }
  auto link_id = [&](const core::Edge& link) {
    LHG_CHECK_RANGE(link.u, n);
    LHG_CHECK_RANGE(link.v, n);
    return net.link_of(link.u, link.v, "failure plan");
  };
  for (const LinkFailure& failure : plan.link_failures) link_id(failure.link);
  for (const LinkFlap& flap : plan.flaps) {
    LHG_CHECK(flap.down < flap.up, "flap: empty window [{}, {})", flap.down,
              flap.up);
    link_id(flap.link);
  }
  for (const PartitionWindow& window : plan.partitions) {
    LHG_CHECK(window.start < window.end, "partition: empty window [{}, {})",
              window.start, window.end);
    LHG_CHECK(static_cast<core::NodeId>(window.side.size()) == n,
              "partition: side map has {} entries for n={}",
              window.side.size(), n);
    for (const std::uint8_t s : window.side) {
      LHG_CHECK(s <= 1, "partition: side {} is not 0 or 1", s);
    }
  }

  for (const NodeCrash& crash : plan.crashes) {
    net.mutate_at(crash.time,
                  [&net, node = crash.node] { net.open_crash(node); });
  }
  for (const NodeRecovery& recovery : plan.recoveries) {
    net.mutate_at(recovery.time,
                  [&net, node = recovery.node] { net.close_crash(node); });
  }
  for (const LinkFailure& failure : plan.link_failures) {
    net.mutate_at(failure.time, [&net, link = link_id(failure.link)] {
      net.open_link(link);
    });
  }
  for (const LinkFlap& flap : plan.flaps) {
    const std::int32_t link = link_id(flap.link);
    net.mutate_at(flap.down, [&net, link] { net.open_link(link); });
    net.mutate_at(flap.up, [&net, link] { net.close_link(link); });
  }
  for (const PartitionWindow& window : plan.partitions) {
    const std::uint8_t* side = net.add_cut(window.side);
    net.mutate_at(window.start, [&net, side] { net.open_cut(side); });
    net.mutate_at(window.end, [&net, side] { net.close_cut(side); });
  }
}

}  // namespace lhg::flooding
