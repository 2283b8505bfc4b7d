// Tests for the overlay network model: latency, crashes, link failures.

#include "flooding/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "flooding/shard_net.h"

namespace lhg::flooding {
namespace {

using core::Edge;
using core::Graph;
using core::NodeId;

Graph path3() {
  return Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
}

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
  EXPECT_EQ(net.messages_sent(), 1);
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
  net.crash_now(0);
  EXPECT_FALSE(net.is_alive(0));
  EXPECT_EQ(net.alive_count(), 2);
  EXPECT_FALSE(net.send(0, 1, 7));
  EXPECT_EQ(net.messages_sent(), 0);
}

TEST(Network, CrashedReceiverDropsInFlight) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  net.send(0, 1, 7);          // arrives at t=5
  net.crash_at(1, 2.0);       // crashes first
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_sent(), 1);  // the attempt still cost a message
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
  EXPECT_TRUE(net.send(0, 1, 7));  // arrives at t=5
  net.crash_at(0, 2.0);            // sender dies mid-flight
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, 1);
  EXPECT_EQ(log[0].from, 0);
  EXPECT_DOUBLE_EQ(log[0].time, 5.0);
  // But the crash does block every later send.
  EXPECT_FALSE(net.send(0, 1, 8));
  EXPECT_EQ(net.messages_sent(), 1);
}

TEST(Network, LinkFailureDropsMessages) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  net.send(0, 1, 7);
  net.fail_link_at(0, 1, 1.0);  // mid-flight cut
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
  EXPECT_THROW(net.crash_now(9), std::invalid_argument);
  EXPECT_THROW(net.fail_link_now(0, 2), std::invalid_argument);
}

TEST(Network, DoubleCrashIsIdempotent) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  net.crash_now(1);
  net.crash_now(1);
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
  net.crash_now(1);
  net.send(0, 1, 7);       // arrives t=1, receiver down: dropped
  net.recover_at(1, 2.0);  // back up with no state
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
  net.recover_now(1);
  EXPECT_EQ(net.alive_count(), 3);
  net.crash_now(1);
  net.recover_now(1);
  net.recover_now(1);
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
  net.fail_link_at(0, 1, 2.0);
  net.restore_link_at(0, 1, 5.0);
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
  net.set_partition({0, 0, 1});  // cut between nodes 1 and 2
  EXPECT_TRUE(net.partition_active());
  EXPECT_TRUE(net.send(0, 1, 1));   // same side: flows
  EXPECT_FALSE(net.send(1, 2, 2));  // cross side: refused at send
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().blocked_partition, 1);
  net.clear_partition();
  EXPECT_FALSE(net.partition_active());
  EXPECT_TRUE(net.send(1, 2, 3));
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, PartitionDropsInFlightCrossTraffic) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = path3();
  Network net(g, sim, LatencySpec::fixed(5.0), rng);
  int received = 0;
  net.set_receive_handler([&](NodeId, NodeId, std::int64_t) { ++received; });
  net.send(1, 2, 7);                        // arrives t=5...
  net.partition_during({0, 0, 1}, 2.0, 9.0);  // ...inside the window
  sim.schedule_at(10.0, [&] {
    EXPECT_TRUE(net.send(1, 2, 8));  // window over: flows again
  });
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().dropped_partition, 1);
  EXPECT_FALSE(net.partition_active());
}

// --- Epoch-guarded windows, on both engines ---------------------------
// FaultModel (network.h) is shared by the single-queue network and the
// sharded one, so each window test below runs its body on both: the
// serial Network, and ShardedNetwork at S=1 and S=4 (on three nodes,
// S=4 gives every node its own shard).  `at(t, node, fn)` runs `fn` as
// an event of `node`, where `send` is legal; `control_at(t, fn)` runs a
// mutation, which the sharded engine allows only between windows.

class SerialEngine {
 public:
  explicit SerialEngine(const Graph& g)
      : net_(g, sim_, LatencySpec::fixed(1.0), rng_) {}
  Network& net() { return net_; }
  template <typename F>
  void at(double t, NodeId /*node*/, F fn) {
    sim_.schedule_at(t, std::move(fn));
  }
  template <typename F>
  void control_at(double t, F fn) {
    sim_.schedule_at(t, std::move(fn));
  }
  bool send(NodeId from, NodeId to, std::int64_t message) {
    return net_.send(from, to, message);
  }
  void count_receipts(int* received) {
    net_.set_receive_handler(
        [received](NodeId, NodeId, std::int64_t) { ++*received; });
  }
  void run() { sim_.run(); }

 private:
  Simulator sim_;
  core::Rng rng_{1};
  Network net_;
};

template <std::int32_t Shards>
class ShardedEngine {
 public:
  explicit ShardedEngine(const Graph& g)
      : sim_(g.num_nodes(), Shards),
        net_(g, sim_, LatencySpec::fixed(1.0), rng_, ChaosSpec::none()) {}
  ShardedNetwork<Graph>& net() { return net_; }
  template <typename F>
  void at(double t, NodeId node, F fn) {
    sim_.schedule_node_at(ShardedSimulator::kEnvOrigin, t, node,
                          [this, fn = std::move(fn)](std::int32_t shard) {
                            shard_ = shard;
                            fn();
                          });
  }
  template <typename F>
  void control_at(double t, F fn) {
    sim_.schedule_control_at(t, [fn = std::move(fn)](std::int32_t) { fn(); });
  }
  bool send(NodeId from, NodeId to, std::int64_t message) {
    return net_.send(shard_, from, to, message);
  }
  void count_receipts(int* received) {
    net_.set_receive_handler([received](std::int32_t, NodeId, NodeId,
                                        std::int64_t) { ++*received; });
  }
  void run() { sim_.run(); }

 private:
  ShardedSimulator sim_;
  core::Rng rng_{1};
  ShardedNetwork<Graph> net_;
  std::int32_t shard_ = 0;  // shard of the node event now running
};

/// Runs `body.template operator()<Engine>()` on every engine.
template <typename Body>
void on_every_engine(Body body) {
  {
    SCOPED_TRACE("serial Network");
    body.template operator()<SerialEngine>();
  }
  {
    SCOPED_TRACE("ShardedNetwork, S=1");
    body.template operator()<ShardedEngine<1>>();
  }
  {
    SCOPED_TRACE("ShardedNetwork, S=4");
    body.template operator()<ShardedEngine<4>>();
  }
}

// Regression: two overlapping partition windows.  The first window's
// scheduled clear used to fire unconditionally at its end time, which
// dissolved the *second* cut mid-window; the epoch guard keeps the
// replacement cut alive until its own end.
TEST(Network, OverlappingPartitionWindowsKeepTheSecondCut) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    int received = 0;
    e.count_receipts(&received);
    net.partition_during({0, 0, 1}, 2.0, 6.0);
    net.partition_during({1, 0, 0}, 4.0, 10.0);  // replaces the first at t=4
    e.at(7.0, 0, [&] {
      // The first window ended at t=6, but its clear must not dissolve
      // the second cut: (0, 1) still crosses it.
      EXPECT_TRUE(net.partition_active());
      EXPECT_FALSE(e.send(0, 1, 1));
    });
    e.at(11.0, 0, [&] {
      EXPECT_FALSE(net.partition_active());  // second window over
      EXPECT_TRUE(e.send(0, 1, 2));
    });
    e.run();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(net.stats().blocked_partition, 1);
  });
}

// A direct set_partition mid-window also advances the epoch: the
// window's stale clear must not tear down the cut the caller installed.
TEST(Network, DirectPartitionSurvivesStaleWindowClear) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    net.partition_during({0, 0, 1}, 2.0, 6.0);
    e.control_at(4.0, [&] { net.set_partition({1, 0, 0}); });
    e.at(7.0, 0, [&] {
      EXPECT_TRUE(net.partition_active());
      EXPECT_FALSE(e.send(0, 1, 1));
    });
    e.run();
    EXPECT_TRUE(net.partition_active());
  });
}

// Overlapping crash/recovery windows via the paired API: the first
// window's recovery is stale once the second crash lands, so the node
// stays down until the latest window ends (the union of the windows).
TEST(Network, OverlappingCrashWindowsKeepNodeDownUntilLatest) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    const std::size_t w1 = net.crash_windowed(2, 5.0);
    net.recover_windowed(2, 15.0, w1);
    const std::size_t w2 = net.crash_windowed(2, 8.0);
    net.recover_windowed(2, 30.0, w2);
    e.at(20.0, 2, [&] { EXPECT_FALSE(net.is_alive(2)); });
    e.at(31.0, 2, [&] { EXPECT_TRUE(net.is_alive(2)); });
    e.run();
    EXPECT_TRUE(net.is_alive(2));
    EXPECT_EQ(net.alive_count(), 3);
  });
}

// A direct crash_now during a window invalidates the window's pending
// recovery instead of being clobbered by it.
TEST(Network, DirectCrashNotClobberedByWindowedRecovery) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    const std::size_t w = net.crash_windowed(2, 5.0);
    net.recover_windowed(2, 15.0, w);
    e.control_at(10.0, [&] { net.crash_now(2); });  // operator re-downs it
    e.at(20.0, 2, [&] { EXPECT_FALSE(net.is_alive(2)); });
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
    const std::size_t w1 = net.fail_link_windowed(0, 1, 5.0);
    net.restore_link_windowed(0, 1, 15.0, w1);
    const std::size_t w2 = net.fail_link_windowed(0, 1, 8.0);
    net.restore_link_windowed(0, 1, 30.0, w2);
    e.at(20.0, 0, [&] {
      EXPECT_FALSE(net.link_ok(0, 1));
      EXPECT_FALSE(e.send(0, 1, 1));
    });
    e.at(31.0, 0, [&] {
      EXPECT_TRUE(net.link_ok(0, 1));
      EXPECT_TRUE(e.send(0, 1, 2));
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
  EXPECT_THROW(net.set_partition({0, 1}), std::invalid_argument);  // size
  EXPECT_THROW(net.set_partition({0, 1, 2}), std::invalid_argument);  // side
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
  EXPECT_GT(net.messages_lost(), 0);
  EXPECT_GT(received, 0);
  EXPECT_EQ(net.messages_lost() + received, 400);
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
  net.crash_now(0);
  net.fail_link_now(1, 2);
  EXPECT_FALSE(net.send(0, 1, 1));
  EXPECT_FALSE(net.send(1, 2, 2));
  EXPECT_EQ(net.stats().blocked_sender_crashed, 1);
  EXPECT_EQ(net.stats().blocked_link_down, 1);
  EXPECT_EQ(net.stats().sent, 0);
}

}  // namespace
}  // namespace lhg::flooding
