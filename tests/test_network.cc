// Tests for the overlay network model: latency, crashes, link failures.

#include "flooding/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "engine_fixtures.h"
#include "flooding/failure.h"

namespace lhg::flooding {
namespace {

using core::Graph;
using core::NodeId;
using testing_engines::on_every_engine;
using testing_engines::path3;

struct Delivery {
  NodeId to;
  NodeId from;
  std::int64_t message;
  double time;
};

TEST(Network, DeliversAlongLinks) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(2.0), rng);
  std::vector<Delivery> log;
  net.set_receive_handler([&](NodeId to, NodeId from, std::int64_t msg) {
    log.push_back({to, from, msg, sim.now()});
  });
  EXPECT_TRUE(net.send(0, 1, 42));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, 1);
  EXPECT_EQ(log[0].from, 0);
  EXPECT_EQ(log[0].message, 42);
  EXPECT_DOUBLE_EQ(log[0].time, 2.0);
  EXPECT_EQ(net.stats().sent, 1);
}

TEST(Network, RejectsNonLinkSends) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  EXPECT_THROW(net.send(0, 2, 1), std::invalid_argument);
}

TEST(Network, CrashedSenderSendsNothing) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan plan;
  plan.crashes = {{0, 0.0}};
  apply_failure_plan(net, plan);
  EXPECT_FALSE(net.is_alive(0));
  EXPECT_EQ(net.alive_count(), 2);
  EXPECT_FALSE(net.send(0, 1, 7));
  EXPECT_EQ(net.stats().sent, 0);
}

TEST(Network, CrashedReceiverDropsInFlight) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  FailurePlan plan;
  plan.crashes = {{1, 2.0}};  // crashes at t=2...
  apply_failure_plan(net, plan);
  net.send(0, 1, 7);  // ...before this copy arrives at t=5
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().sent, 1);  // the attempt still cost a message
}

TEST(Network, SenderCrashDoesNotRecallInFlightMessages) {
  // Fail-stop semantics: the sender's state is checked at *send* time
  // only.  A copy already in flight when the sender dies still arrives;
  // a crash does not reach back into the network and recall packets.
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  std::vector<Delivery> log;
  net.set_receive_handler([&](NodeId to, NodeId from, std::int64_t msg) {
    log.push_back({to, from, msg, sim.now()});
  });
  FailurePlan plan;
  plan.crashes = {{0, 2.0}};  // sender dies mid-flight
  apply_failure_plan(net, plan);
  EXPECT_TRUE(net.send(0, 1, 7));  // arrives at t=5
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, 1);
  EXPECT_EQ(log[0].from, 0);
  EXPECT_DOUBLE_EQ(log[0].time, 5.0);
  // But the crash does block every later send.
  EXPECT_FALSE(net.send(0, 1, 8));
  EXPECT_EQ(net.stats().sent, 1);
}

TEST(Network, LinkFailureDropsMessages) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  FailurePlan plan;
  plan.link_failures = {{{0, 1}, 1.0}};  // mid-flight cut
  apply_failure_plan(net, plan);
  net.send(0, 1, 7);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_FALSE(net.link_ok(0, 1));
  // Sends on a failed link are refused outright.
  EXPECT_FALSE(net.send(0, 1, 8));
}

TEST(Network, PerLinkLatencyIsStable) {
  Simulator sim;
  core::Rng rng(7);
  Graph g = path3();
  Network net(g, sim, LatencySpec::per_link(1.0, 3.0), rng);
  std::vector<double> times;
  net.set_receive_handler(
      [&](NodeId, NodeId, std::int64_t) { times.push_back(sim.now()); });
  net.send(0, 1, 1);
  sim.run();
  const double first = times.at(0);
  net.send(0, 1, 2);
  sim.run();
  EXPECT_DOUBLE_EQ(times.at(1) - first, first);  // same latency again
  EXPECT_GE(first, 1.0);
  EXPECT_LE(first, 4.0);
}

TEST(Network, Validation) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  EXPECT_THROW(Network(g, sim, LatencySpec::fixed(-1.0), rng),
               std::invalid_argument);
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan bad_node;
  bad_node.crashes = {{9, 0.0}};
  EXPECT_THROW(apply_failure_plan(net, bad_node), std::invalid_argument);
  FailurePlan bad_link;
  bad_link.link_failures = {{{0, 2}, 0.0}};
  EXPECT_THROW(apply_failure_plan(net, bad_link), std::invalid_argument);
}

TEST(Network, DoubleCrashIsIdempotent) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan plan;
  plan.crashes = {{1, 0.0}, {1, 0.0}};
  apply_failure_plan(net, plan);
  EXPECT_EQ(net.alive_count(), 2);
}

// --- Crash-recovery -------------------------------------------------

TEST(Network, RecoveryRestoresDeliveryAndSending) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  std::vector<Delivery> log;
  net.set_receive_handler([&](NodeId to, NodeId from, std::int64_t msg) {
    log.push_back({to, from, msg, sim.now()});
  });
  FailurePlan plan;
  plan.crashes = {{1, 0.0}};
  plan.recoveries = {{1, 2.0}};  // back up with no state
  apply_failure_plan(net, plan);
  net.send(0, 1, 7);  // arrives t=1, receiver down: dropped
  sim.schedule_at(3.0, [&] {
    EXPECT_TRUE(net.send(0, 1, 8));  // arrives t=4, receiver alive
    EXPECT_TRUE(net.send(1, 0, 9));  // recovered node can send again
  });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].message, 8);
  EXPECT_DOUBLE_EQ(log[0].time, 4.0);
  EXPECT_EQ(log[1].message, 9);
  EXPECT_EQ(net.alive_count(), 3);
  EXPECT_EQ(net.stats().dropped_receiver_crashed, 1);
  EXPECT_EQ(net.stats().delivered, 2);
}

TEST(Network, RecoverOnAliveNodeIsIdempotent) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan recover_only;
  recover_only.recoveries = {{1, 0.0}};
  apply_failure_plan(net, recover_only);
  EXPECT_EQ(net.alive_count(), 3);
  FailurePlan plan;
  plan.crashes = {{1, 0.0}};
  plan.recoveries = {{1, 0.0}, {1, 0.0}};  // the second finds no window
  apply_failure_plan(net, plan);
  EXPECT_EQ(net.alive_count(), 3);
  EXPECT_TRUE(net.is_alive(1));
}

TEST(Network, LinkFlapBlocksOnlyDuringWindow) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  FailurePlan plan;
  plan.flaps = {{{0, 1}, 2.0, 5.0}};
  apply_failure_plan(net, plan);
  net.send(0, 1, 1);  // t=0, arrives t=1 before the cut: delivered
  sim.schedule_at(3.0, [&] {
    EXPECT_FALSE(net.send(0, 1, 2));  // inside the down window: refused
  });
  sim.schedule_at(6.0, [&] {
    EXPECT_TRUE(net.send(0, 1, 3));  // restored: accepted and delivered
  });
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_TRUE(net.link_ok(0, 1));
  EXPECT_EQ(net.stats().blocked_link_down, 1);
}

// --- Partitions -----------------------------------------------------

TEST(Network, PartitionBlocksCrossSideTraffic) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  FailurePlan plan;
  plan.partitions = {{{0, 0, 1}, 0.0, 5.0}};  // cut between nodes 1 and 2
  apply_failure_plan(net, plan);
  EXPECT_TRUE(net.partition_active());
  EXPECT_TRUE(net.send(0, 1, 1));   // same side: flows
  EXPECT_FALSE(net.send(1, 2, 2));  // cross side: refused at send
  sim.schedule_at(6.0, [&] {
    EXPECT_FALSE(net.partition_active());
    EXPECT_TRUE(net.send(1, 2, 3));
  });
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.stats().blocked_partition, 1);
}

TEST(Network, PartitionDropsInFlightCrossTraffic) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  FailurePlan plan;
  plan.partitions = {{{0, 0, 1}, 2.0, 9.0}};
  apply_failure_plan(net, plan);
  net.send(1, 2, 7);  // arrives t=5, inside the window
  sim.schedule_at(10.0, [&] {
    EXPECT_TRUE(net.send(1, 2, 8));  // window over: flows again
  });
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().dropped_partition, 1);
  EXPECT_FALSE(net.partition_active());
}

// --- Overlapping windows, on both engines ----------------------------
// The fault rule (failure.h) is shared by the single-queue network and
// the sharded one, so each window test below runs its body on both
// (engine_fixtures.h).  Every window holds its fault until its own end.

// Regression: two overlapping partition windows.  The first window's
// end once dissolved the *second* cut mid-window; the second cut holds
// until its own end.
TEST(Network, OverlappingPartitionWindowsKeepTheSecondCut) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    int received = 0;
    e.count_receipts(&received);
    FailurePlan plan;
    plan.partitions = {{{0, 0, 1}, 2.0, 6.0}, {{1, 0, 0}, 4.0, 10.0}};
    apply_failure_plan(net, plan);
    e.at(7.0, 0, [&](std::int32_t s) {
      // The first window ended at t=6, but its end must not dissolve
      // the second cut: (0, 1) still crosses it.
      EXPECT_TRUE(net.partition_active());
      EXPECT_FALSE(e.send(s, 0, 1, 1));
    });
    e.at(11.0, 0, [&](std::int32_t s) {
      EXPECT_FALSE(net.partition_active());  // second window over
      EXPECT_TRUE(e.send(s, 0, 1, 2));
    });
    e.run();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(net.stats().blocked_partition, 1);
  });
}

// A cut opened at setup outlives a window that ends inside it.
TEST(Network, DirectPartitionSurvivesStaleWindowClear) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.partitions = {{{0, 0, 1}, 2.0, 6.0}, {{1, 0, 0}, 0.0, 20.0}};
    apply_failure_plan(net, plan);
    e.at(7.0, 0, [&](std::int32_t s) {
      EXPECT_TRUE(net.partition_active());
      EXPECT_FALSE(e.send(s, 0, 1, 1));
    });
    e.run();
    EXPECT_EQ(net.stats().blocked_partition, 1);
  });
}

// Overlapping crash/recovery windows: the node stays down until the
// latest window ends (the union of the windows).
TEST(Network, OverlappingCrashWindowsKeepNodeDownUntilLatest) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.crashes = {{2, 5.0}, {2, 8.0}};
    plan.recoveries = {{2, 15.0}, {2, 30.0}};
    apply_failure_plan(net, plan);
    e.at(20.0, 2, [&](std::int32_t) { EXPECT_FALSE(net.is_alive(2)); });
    e.at(31.0, 2, [&](std::int32_t) { EXPECT_TRUE(net.is_alive(2)); });
    e.run();
    EXPECT_TRUE(net.is_alive(2));
    EXPECT_EQ(net.alive_count(), 3);
  });
}

// A crash with no recovery inside a crash/recovery window keeps the
// node down after the window's recovery.
TEST(Network, DirectCrashNotClobberedByWindowedRecovery) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.crashes = {{2, 5.0}, {2, 10.0}};  // the operator re-downs it
    plan.recoveries = {{2, 15.0}};
    apply_failure_plan(net, plan);
    e.at(20.0, 2, [&](std::int32_t) { EXPECT_FALSE(net.is_alive(2)); });
    e.run();
    EXPECT_FALSE(net.is_alive(2));
  });
}

// Overlapping link flap windows, same shape as the crash case: the
// link stays down until the later window's restore.
TEST(Network, OverlappingLinkFlapWindowsKeepLinkDownUntilLatest) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    int received = 0;
    e.count_receipts(&received);
    FailurePlan plan;
    plan.flaps = {{{0, 1}, 5.0, 15.0}, {{0, 1}, 8.0, 30.0}};
    apply_failure_plan(net, plan);
    e.at(20.0, 0, [&](std::int32_t s) {
      EXPECT_FALSE(net.link_ok(0, 1));
      EXPECT_FALSE(e.send(s, 0, 1, 1));
    });
    e.at(31.0, 0, [&](std::int32_t s) {
      EXPECT_TRUE(net.link_ok(0, 1));
      EXPECT_TRUE(e.send(s, 0, 1, 2));
    });
    e.run();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(net.stats().blocked_link_down, 1);
  });
}

TEST(Network, PartitionValidation) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan bad_size;
  bad_size.partitions = {{{0, 1}, 0.0, 1.0}};
  EXPECT_THROW(apply_failure_plan(net, bad_size), std::invalid_argument);
  FailurePlan bad_side;
  bad_side.partitions = {{{0, 1, 2}, 0.0, 1.0}};
  EXPECT_THROW(apply_failure_plan(net, bad_side), std::invalid_argument);
}

// --- Chaos channel --------------------------------------------------

TEST(Network, ChaosAccountingInvariantUnderLossAndDuplication) {
  Simulator sim;
  core::Rng rng(123);
  Graph g = path3();
  ChaosSpec chaos;
  chaos.loss = 0.3;
  chaos.duplicate = 0.4;
  Network net(g, sim, LatencySpec::fixed(1.0), rng, chaos);
  std::int64_t received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  for (int i = 0; i < 200; ++i) net.send(0, 1, i);
  sim.run();
  const NetworkStats& st = net.stats();
  EXPECT_EQ(st.sent, 200);
  EXPECT_GT(st.lost, 0);
  EXPECT_GT(st.duplicated, 0);
  // Every accepted transmission ends in exactly one bucket per copy.
  EXPECT_EQ(st.delivered + st.undelivered(), st.sent + st.duplicated);
  EXPECT_EQ(st.delivered, received);
}

TEST(Network, GilbertElliottLosesInBursts) {
  Simulator sim;
  core::Rng rng(9);
  Graph g = path3();
  // Bad state is near-total loss and sticky: drops should clump.
  ChaosSpec chaos = ChaosSpec::bursty(0.2, 0.2, 0.95);
  Network net(g, sim, LatencySpec::fixed(1.0), rng, chaos);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  for (int i = 0; i < 400; ++i) net.send(0, 1, i);
  sim.run();
  EXPECT_GT(net.stats().lost, 0);
  EXPECT_GT(received, 0);
  EXPECT_EQ(net.stats().lost + received, 400);
}

TEST(Network, ReorderJitterDelaysSomeCopies) {
  Simulator sim;
  core::Rng rng(5);
  Graph g = path3();
  ChaosSpec chaos;
  chaos.reorder = 0.5;
  chaos.reorder_jitter = 10.0;
  Network net(g, sim, LatencySpec::fixed(1.0), rng, chaos);
  std::vector<double> times;
  net.set_receive_handler(
      [&](NodeId, NodeId, std::int64_t) { times.push_back(sim.now()); });
  for (int i = 0; i < 50; ++i) net.send(0, 1, i);
  sim.run();
  ASSERT_EQ(times.size(), 50u);
  bool delayed = false;
  for (double t : times) {
    EXPECT_GE(t, 1.0);
    EXPECT_LE(t, 11.0);
    if (t > 1.0) delayed = true;
  }
  EXPECT_TRUE(delayed);
}

TEST(Network, DisabledChaosConsumesNoRngDraws) {
  // The golden-trace contract: with every chaos knob off, the send path
  // must not touch the Rng, so two networks sharing a seed stay in
  // lockstep whether or not a ChaosSpec was passed.
  Graph g = path3();
  Simulator sim_a;
  core::Rng rng_a(77);
  Network a(g, sim_a, LatencySpec::per_send(1.0, 2.0), rng_a);
  Simulator sim_b;
  core::Rng rng_b(77);
  Network b(g, sim_b, LatencySpec::per_send(1.0, 2.0), rng_b,
            ChaosSpec::none());
  std::vector<double> ta, tb;
  a.set_receive_handler(
      [&](NodeId, NodeId, std::int64_t) { ta.push_back(sim_a.now()); });
  b.set_receive_handler(
      [&](NodeId, NodeId, std::int64_t) { tb.push_back(sim_b.now()); });
  for (int i = 0; i < 20; ++i) {
    a.send(0, 1, i);
    b.send(0, 1, i);
  }
  sim_a.run();
  sim_b.run();
  EXPECT_EQ(ta, tb);
}

TEST(Network, ChaosValidation) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  ChaosSpec bad_dup;
  bad_dup.duplicate = 1.0;
  EXPECT_THROW(Network(g, sim, LatencySpec::fixed(1.0), rng, bad_dup),
               std::invalid_argument);
  ChaosSpec bad_ge = ChaosSpec::bursty(-0.1, 0.5, 0.5);
  EXPECT_THROW(Network(g, sim, LatencySpec::fixed(1.0), rng, bad_ge),
               std::invalid_argument);
  ChaosSpec bad_reorder;
  bad_reorder.reorder = 0.5;
  bad_reorder.reorder_jitter = -1.0;
  EXPECT_THROW(Network(g, sim, LatencySpec::fixed(1.0), rng, bad_reorder),
               std::invalid_argument);
}

TEST(Network, StatsCountBlockedSends) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan plan;
  plan.crashes = {{0, 0.0}};
  plan.link_failures = {{{1, 2}, 0.0}};
  apply_failure_plan(net, plan);
  EXPECT_FALSE(net.send(0, 1, 1));
  EXPECT_FALSE(net.send(1, 2, 2));
  EXPECT_EQ(net.stats().blocked_sender_crashed, 1);
  EXPECT_EQ(net.stats().blocked_link_down, 1);
  EXPECT_EQ(net.stats().sent, 0);
}

}  // namespace
}  // namespace lhg::flooding
