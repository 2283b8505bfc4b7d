// Tests for failure-plan generators.

#include "flooding/failure.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/connectivity.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::NodeId;

TEST(Failure, RandomCrashesRespectProtectAndCount) {
  const auto g = lhg::build(30, 3);
  core::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto plan = random_crashes(g, 5, /*protect=*/7, rng, /*time=*/0.0);
    EXPECT_EQ(plan.crashes.size(), 5u);
    std::set<NodeId> seen;
    for (const auto& crash : plan.crashes) {
      EXPECT_NE(crash.node, 7);
      EXPECT_GE(crash.node, 0);
      EXPECT_LT(crash.node, 30);
      EXPECT_TRUE(seen.insert(crash.node).second);
    }
  }
}

TEST(Failure, RandomCrashesValidation) {
  const auto g = lhg::build(10, 3);
  core::Rng rng(1);
  EXPECT_THROW(random_crashes(g, 10, 0, rng), std::invalid_argument);
  EXPECT_THROW(random_crashes(g, -1, 0, rng), std::invalid_argument);
  EXPECT_TRUE(random_crashes(g, 0, 0, rng).crashes.empty());
}

TEST(Failure, TargetedCrashesPickHighestDegrees) {
  // (9,3) K-TREE has three degree-6 roots; they must be hit first.
  const auto g = lhg::build(9, 3);
  const auto plan = targeted_crashes(g, 3, /*protect=*/8, /*time=*/0.0);
  ASSERT_EQ(plan.crashes.size(), 3u);
  for (const auto& crash : plan.crashes) {
    EXPECT_EQ(g.degree(crash.node), 6);
  }
}

TEST(Failure, CutTargetedCrashesHitAMinimumCut) {
  const auto g = lhg::build(14, 3);
  core::Rng rng(3);
  const auto plan = cut_targeted_crashes(g, 3, /*protect=*/0, rng, /*time=*/0.0);
  EXPECT_EQ(plan.crashes.size(), 3u);
  // With k crashes aimed at a k-cut the graph should disconnect
  // (unless the source-protection displaced a cut member).
  std::vector<NodeId> removed;
  for (const auto& crash : plan.crashes) removed.push_back(crash.node);
  // The plan must at least contain a full minimum cut or k distinct nodes.
  std::set<NodeId> unique(removed.begin(), removed.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Failure, LinkFailuresAreDistinctLinks) {
  const auto g = lhg::build(22, 3);
  core::Rng rng(5);
  const auto plan = random_link_failures(g, 8, rng, /*time=*/0.0);
  EXPECT_EQ(plan.link_failures.size(), 8u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& failure : plan.link_failures) {
    EXPECT_TRUE(g.has_edge(failure.link.u, failure.link.v));
    EXPECT_TRUE(seen.insert({failure.link.u, failure.link.v}).second);
  }
  EXPECT_THROW(
      random_link_failures(g, static_cast<std::int32_t>(g.num_edges()) + 1, rng),
      std::invalid_argument);
}

TEST(Failure, TotalFailuresCountsBoth) {
  FailurePlan plan;
  plan.crashes.push_back({1, 0.0});
  plan.link_failures.push_back({{0, 1}, 0.0});
  EXPECT_EQ(plan.total_failures(), 2u);
}

// --- Timed injection ------------------------------------------------

TEST(Failure, GeneratorsStampTheInjectionTime) {
  const auto g = lhg::build(30, 3);
  core::Rng rng(11);
  for (const auto& crash : random_crashes(g, 4, 0, rng, 2.5).crashes) {
    EXPECT_DOUBLE_EQ(crash.time, 2.5);
  }
  for (const auto& crash : targeted_crashes(g, 4, 0, 7.0).crashes) {
    EXPECT_DOUBLE_EQ(crash.time, 7.0);
  }
  for (const auto& crash : cut_targeted_crashes(g, 2, 0, rng, 1.5).crashes) {
    EXPECT_DOUBLE_EQ(crash.time, 1.5);
  }
  for (const auto& failure : random_link_failures(g, 3, rng, 4.0).link_failures) {
    EXPECT_DOUBLE_EQ(failure.time, 4.0);
  }
}

TEST(Failure, CrashRecoveriesPairEveryCrashWithALaterRecovery) {
  const auto g = lhg::build(30, 3);
  core::Rng rng(2);
  const auto plan = random_crash_recoveries(g, 3, /*protect=*/0, rng,
                                            /*crash_time=*/2.0,
                                            /*downtime=*/5.0);
  ASSERT_EQ(plan.crashes.size(), 3u);
  ASSERT_EQ(plan.recoveries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.recoveries[i].node, plan.crashes[i].node);
    EXPECT_DOUBLE_EQ(plan.crashes[i].time, 2.0);
    EXPECT_DOUBLE_EQ(plan.recoveries[i].time, 7.0);
    EXPECT_NE(plan.crashes[i].node, 0);
  }
  EXPECT_THROW(random_crash_recoveries(g, 3, 0, rng, 2.0, 0.0),
               std::invalid_argument);
}

TEST(Failure, LinkFlapsCarryTheirWindow) {
  const auto g = lhg::build(22, 3);
  core::Rng rng(5);
  const auto plan = random_link_flaps(g, 4, rng, /*down=*/1.0, /*up=*/6.0);
  ASSERT_EQ(plan.flaps.size(), 4u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& flap : plan.flaps) {
    EXPECT_TRUE(g.has_edge(flap.link.u, flap.link.v));
    EXPECT_TRUE(seen.insert({flap.link.u, flap.link.v}).second);
    EXPECT_DOUBLE_EQ(flap.down, 1.0);
    EXPECT_DOUBLE_EQ(flap.up, 6.0);
  }
  EXPECT_THROW(random_link_flaps(g, 4, rng, 6.0, 1.0), std::invalid_argument);
}

TEST(Failure, RandomPartitionPinsNodeZeroToSideZero) {
  const auto g = lhg::build(40, 3);
  core::Rng rng(9);
  const auto plan = random_partition(g, rng, 2.0, 8.0);
  ASSERT_EQ(plan.partitions.size(), 1u);
  const auto& window = plan.partitions[0];
  EXPECT_DOUBLE_EQ(window.start, 2.0);
  EXPECT_DOUBLE_EQ(window.end, 8.0);
  ASSERT_EQ(window.side.size(), 40u);
  EXPECT_EQ(window.side[0], 0);
  int ones = 0;
  for (const auto s : window.side) {
    EXPECT_LE(s, 1);
    ones += s;
  }
  EXPECT_GT(ones, 0);  // overwhelmingly likely at n=40, f=0.5
  EXPECT_THROW(random_partition(g, rng, 8.0, 2.0), std::invalid_argument);
  EXPECT_THROW(random_partition(g, rng, 2.0, 8.0, 1.5), std::invalid_argument);
}

TEST(Failure, CutPartitionSeparatesTheGraph) {
  const auto g = lhg::build(26, 3);
  core::Rng rng(4);
  const auto plan = cut_partition(g, rng, 1.0, 5.0);
  ASSERT_EQ(plan.partitions.size(), 1u);
  const auto& side = plan.partitions[0].side;
  int ones = 0;
  for (const auto s : side) ones += s;
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, 26);
  // The cut must sever at least one overlay edge (otherwise it would
  // not partition anything).
  int severed = 0;
  for (const auto& e : g.edges()) {
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)]) {
      ++severed;
    }
  }
  EXPECT_GT(severed, 0);
}

TEST(Failure, AdversarialChaosComposesCrashesAndPartition) {
  const auto g = lhg::build(26, 3);
  core::Rng rng(6);
  const auto plan =
      adversarial_chaos(g, 2, /*protect=*/0, rng, /*crash_time=*/2.0,
                        /*partition_start=*/3.0, /*partition_end=*/9.0);
  EXPECT_EQ(plan.crashes.size(), 2u);
  ASSERT_EQ(plan.partitions.size(), 1u);
  for (const auto& crash : plan.crashes) {
    EXPECT_DOUBLE_EQ(crash.time, 2.0);
    EXPECT_NE(crash.node, 0);
  }
  EXPECT_DOUBLE_EQ(plan.partitions[0].start, 3.0);
  EXPECT_DOUBLE_EQ(plan.partitions[0].end, 9.0);
  EXPECT_EQ(plan.total_failures(), 3u);
}

TEST(Failure, ComposeAppendsEveryKind) {
  const auto g = lhg::build(22, 3);
  core::Rng rng(8);
  FailurePlan plan = random_crashes(g, 2, 0, rng, 1.0);
  compose(plan, random_link_flaps(g, 2, rng, 1.0, 4.0));
  compose(plan, random_partition(g, rng, 2.0, 6.0));
  compose(plan, random_crash_recoveries(g, 1, 0, rng, 1.0, 3.0));
  EXPECT_EQ(plan.crashes.size(), 3u);
  EXPECT_EQ(plan.recoveries.size(), 1u);
  EXPECT_EQ(plan.flaps.size(), 2u);
  EXPECT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.total_failures(), 6u);
}

// Regression for the stale partition-window clear: compose two plans
// whose partition windows overlap (random_partition [2, 6) and
// cut_partition [4, 10)).  The first window's end once dissolved the
// second cut four time units early; each cut holds until its own end.
TEST(Failure, ComposedOverlappingPartitionsKeepTheLaterCut) {
  const auto g = lhg::build(26, 3);
  core::Rng rng(11);
  FailurePlan plan = random_partition(g, rng, 2.0, 6.0);
  compose(plan, cut_partition(g, rng, 4.0, 10.0));
  ASSERT_EQ(plan.partitions.size(), 2u);
  const auto& side = plan.partitions[1].side;
  // Pick an overlay edge the second cut severs; the probe rides it.
  NodeId u = -1;
  NodeId v = -1;
  for (const auto& e : g.edges()) {
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)]) {
      u = e.u;
      v = e.v;
      break;
    }
  }
  ASSERT_GE(u, 0) << "cut_partition must sever at least one edge";

  Simulator sim;
  core::Rng net_rng(1);
  Network net(g, sim, LatencySpec::fixed(1.0), net_rng);
  apply_failure_plan(net, plan);
  sim.schedule_at(7.0, [&] {
    EXPECT_TRUE(net.partition_active());
    EXPECT_FALSE(net.send(u, v, 1));  // second cut still active
  });
  sim.schedule_at(11.0, [&] {
    EXPECT_FALSE(net.partition_active());
    EXPECT_TRUE(net.send(u, v, 2));
  });
  sim.run();
  EXPECT_EQ(net.stats().blocked_partition, 1);
}

// Composed crash-recovery windows overlapping on the same node behave
// as the union of their down windows: each recovery closes one of the
// two open windows, and only the second brings the node back.
TEST(Failure, ComposedOverlappingCrashWindowsStayDownUntilLatest) {
  const auto g = lhg::build(12, 3);
  FailurePlan plan;
  plan.crashes = {{2, 5.0}, {2, 8.0}};
  plan.recoveries = {{2, 15.0}, {2, 30.0}};

  Simulator sim;
  core::Rng net_rng(1);
  Network net(g, sim, LatencySpec::fixed(1.0), net_rng);
  apply_failure_plan(net, plan);
  sim.schedule_at(20.0, [&] { EXPECT_FALSE(net.is_alive(2)); });
  sim.schedule_at(31.0, [&] { EXPECT_TRUE(net.is_alive(2)); });
  sim.run();
  EXPECT_TRUE(net.is_alive(2));
}

// Same for link flaps: two overlapping flap windows on one link keep
// it down until the later restore.
TEST(Failure, ComposedOverlappingFlapsStayDownUntilLatest) {
  const auto g = lhg::build(12, 3);
  const core::Edge link = g.edges().front();
  FailurePlan plan;
  plan.flaps = {{link, 5.0, 15.0}, {link, 8.0, 30.0}};

  Simulator sim;
  core::Rng net_rng(1);
  Network net(g, sim, LatencySpec::fixed(1.0), net_rng);
  apply_failure_plan(net, plan);
  sim.schedule_at(20.0,
                  [&] { EXPECT_FALSE(net.link_ok(link.u, link.v)); });
  sim.schedule_at(31.0, [&] { EXPECT_TRUE(net.link_ok(link.u, link.v)); });
  sim.run();
  EXPECT_TRUE(net.link_ok(link.u, link.v));
}

// A recovery with no crash in its own plan closes the crash window an
// earlier plan opened on its node (pre-crashed nodes come back).
TEST(Failure, UnpairedRecoveryStaysUnconditional) {
  const auto g = lhg::build(12, 3);
  FailurePlan crash;
  crash.crashes = {{3, 0.0}};  // crashed outside the plan
  FailurePlan plan;
  plan.recoveries = {{3, 5.0}};

  Simulator sim;
  core::Rng net_rng(1);
  Network net(g, sim, LatencySpec::fixed(1.0), net_rng);
  apply_failure_plan(net, crash);
  apply_failure_plan(net, plan);
  sim.run();
  EXPECT_TRUE(net.is_alive(3));
}

}  // namespace
}  // namespace lhg::flooding
