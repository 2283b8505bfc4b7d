// Tests for reliable broadcast over lossy links.

#include "flooding/reliable_broadcast.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "flooding/protocols.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

TEST(ReliableBroadcast, LosslessMatchesFlooding) {
  const auto g = lhg::build(30, 3);
  const auto reliable = reliable_broadcast(g, {.source = 0});
  const auto plain = flood(g, {.source = 0});
  EXPECT_TRUE(reliable.all_alive_delivered());
  EXPECT_EQ(reliable.completion_hops, plain.completion_hops);
  EXPECT_EQ(reliable.retransmissions, 0);
  // Every DATA delivery produces one ACK.
  EXPECT_EQ(reliable.acks_sent, plain.messages_sent);
}

TEST(ReliableBroadcast, PlainFloodLosesNodesOnLossyLinks) {
  // Calibration: at 40% loss, plain flooding on a sparse graph misses
  // nodes for at least one of these seeds — the problem the protocol
  // exists to fix.  (Plain flood treats a lost transmission as sent.)
  const auto g = lhg::build(62, 3);
  int incomplete = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Simulator sim;
    core::Rng rng(seed);
    Network net(g, sim, LatencySpec::fixed(1.0), rng, ChaosSpec::iid(0.4));
    std::vector<bool> delivered(static_cast<std::size_t>(g.num_nodes()), false);
    net.set_receive_handler(
        [&](core::NodeId self, core::NodeId from, std::int64_t hops) {
          if (delivered[static_cast<std::size_t>(self)]) return;
          delivered[static_cast<std::size_t>(self)] = true;
          for (core::NodeId v : g.neighbors(self)) {
            if (v != from) net.send(self, v, hops + 1);
          }
        });
    delivered[0] = true;
    sim.schedule_at(0.0, [&] {
      for (core::NodeId v : g.neighbors(0)) net.send(0, v, 0);
    });
    sim.run();
    for (bool d : delivered) {
      if (!d) {
        ++incomplete;
        break;
      }
    }
  }
  EXPECT_GT(incomplete, 0);
}

TEST(ReliableBroadcast, DeliversEverythingAtFortyPercentLoss) {
  const auto g = lhg::build(62, 3);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = reliable_broadcast(
        g, {.source = 0, .seed = seed, .chaos = ChaosSpec::iid(0.4),
            .backoff = BackoffPolicy::fixed(3.0, 8)});
    EXPECT_TRUE(result.all_alive_delivered()) << "seed " << seed;
    EXPECT_GT(result.retransmissions, 0) << "seed " << seed;
    EXPECT_GT(result.net.lost, 0) << "seed " << seed;
  }
}

TEST(ReliableBroadcast, SurvivesLossPlusCrashes) {
  const auto g = lhg::build(46, 3);
  core::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto plan = random_crashes(g, 2, 0, rng, /*time=*/0.0);
    const auto result = reliable_broadcast(
        g, {.source = 0, .seed = static_cast<std::uint64_t>(trial) + 1,
            .chaos = ChaosSpec::iid(0.25),
            .backoff = BackoffPolicy::fixed(3.0, 8)},
        plan);
    EXPECT_TRUE(result.all_alive_delivered()) << "trial " << trial;
  }
}

TEST(ReliableBroadcast, RetryBudgetExhaustionCanLose) {
  // With zero retries the protocol degenerates to plain flooding: at
  // heavy loss it must miss someone for at least one of these seeds.
  const auto g = lhg::build(62, 3);
  int incomplete = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = reliable_broadcast(
        g, {.source = 0, .seed = seed, .chaos = ChaosSpec::iid(0.5),
            .backoff = BackoffPolicy::fixed(3.0, 0)});
    incomplete += result.all_alive_delivered() ? 0 : 1;
  }
  EXPECT_GT(incomplete, 0);
}

TEST(ReliableBroadcast, DeterministicPerSeed) {
  const auto g = lhg::build(30, 3);
  const ReliableBroadcastConfig config{
      .source = 0, .seed = 9, .chaos = ChaosSpec::iid(0.3)};
  const auto a = reliable_broadcast(g, config);
  const auto b = reliable_broadcast(g, config);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

// Exact pin of reliable broadcast under loss and crashes: DATA, ACK
// and retransmission copies draw from their arcs' channel streams.
TEST(ReliableBroadcast, ExactPinLossAndCrashes) {
  const auto g = lhg::build(64, 4);
  core::Rng plan_rng(19);
  const auto plan = random_crashes(g, 3, /*protect=*/0, plan_rng, /*time=*/2.0);
  ReliableBroadcastConfig cfg;
  cfg.source = 0;
  cfg.latency = LatencySpec::per_send(0.5, 1.0);
  cfg.seed = 11;
  cfg.chaos = ChaosSpec::iid(0.2);
  const auto result = reliable_broadcast(g, cfg, plan);
  double delivery_time_sum = 0.0;
  for (const double t : result.delivery_time) {
    if (t >= 0.0) delivery_time_sum += t;
  }
  EXPECT_EQ(result.messages_sent, 592);
  EXPECT_EQ(delivery_time_sum, 0x1.234321340d758p+8);
  EXPECT_EQ(result.retransmissions, 170);
  EXPECT_EQ(result.acks_sent, 230);
  EXPECT_EQ(result.net, (NetworkStats{.sent = 592,
                                      .delivered = 410,
                                      .lost = 128,
                                      .duplicated = 0,
                                      .blocked_sender_crashed = 0,
                                      .blocked_link_down = 0,
                                      .blocked_partition = 0,
                                      .dropped_receiver_crashed = 54,
                                      .dropped_link_down = 0,
                                      .dropped_partition = 0}));
}

TEST(ReliableBroadcast, Validation) {
  const auto g = lhg::build(10, 3);
  EXPECT_THROW(reliable_broadcast(g, {.source = 99}), std::invalid_argument);
  EXPECT_THROW(reliable_broadcast(
                   g, {.source = 0, .backoff = BackoffPolicy::fixed(0.0, 5)}),
               std::invalid_argument);
  EXPECT_THROW(reliable_broadcast(
                   g, {.source = 0, .backoff = BackoffPolicy::fixed(3.0, -1)}),
               std::invalid_argument);
  EXPECT_THROW(
      reliable_broadcast(g, {.source = 0, .chaos = ChaosSpec::iid(1.0)}),
      std::invalid_argument);
}

TEST(Network, LossySendStillCountsMessages) {
  const auto g = lhg::build(10, 3);
  Simulator sim;
  core::Rng rng(1);
  Network net(g, sim, LatencySpec::fixed(1.0), rng, ChaosSpec::iid(0.9));
  int received = 0;
  net.set_receive_handler(
      [&](core::NodeId, core::NodeId, std::int64_t) { ++received; });
  const auto e = g.edges()[0];
  for (int i = 0; i < 200; ++i) net.send(e.u, e.v, 1);
  sim.run();
  EXPECT_EQ(net.stats().sent, 200);
  EXPECT_EQ(net.stats().lost + received, 200);
  EXPECT_GT(net.stats().lost, 150);  // ~90% drop
  EXPECT_THROW(
      Network(g, sim, LatencySpec::fixed(1.0), rng, ChaosSpec::iid(-0.1)),
      std::invalid_argument);
}

}  // namespace
}  // namespace lhg::flooding
