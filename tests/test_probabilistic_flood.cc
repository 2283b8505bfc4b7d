// Tests for probabilistic (gossip-style) flooding over the overlay.

#include <gtest/gtest.h>

#include <stdexcept>

#include "flooding/protocols.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

TEST(ProbabilisticFlood, ProbabilityOneIsDeterministicFlooding) {
  const auto g = lhg::build(46, 3);
  const auto probabilistic =
      probabilistic_flood(g, {.source = 0, .forward_probability = 1.0});
  const auto deterministic = flood(g, {.source = 0});
  EXPECT_TRUE(probabilistic.all_alive_delivered());
  EXPECT_EQ(probabilistic.messages_sent, deterministic.messages_sent);
  EXPECT_EQ(probabilistic.completion_hops, deterministic.completion_hops);
}

TEST(ProbabilisticFlood, ProbabilityZeroReachesOnlyNeighbors) {
  const auto g = lhg::build(22, 3);
  const auto result =
      probabilistic_flood(g, {.source = 0, .forward_probability = 0.0});
  // Source sends to all its neighbors; nobody relays.
  EXPECT_EQ(result.delivered_alive, 1 + g.degree(0));
  EXPECT_EQ(result.messages_sent, g.degree(0));
}

TEST(ProbabilisticFlood, DeliveryMonotoneInP) {
  const auto g = lhg::build(150, 3);
  double previous = 0;
  for (const double p : {0.2, 0.5, 0.8, 1.0}) {
    double delivered = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      delivered += probabilistic_flood(
                       g, {.source = 0, .forward_probability = p,
                           .seed = seed})
                       .delivery_ratio();
    }
    delivered /= 20;
    EXPECT_GE(delivered + 0.02, previous) << "p=" << p;  // allow MC noise
    previous = delivered;
  }
  EXPECT_NEAR(previous, 1.0, 1e-12);  // p = 1 is deterministic
}

TEST(ProbabilisticFlood, SavesMessagesVersusDeterministic) {
  const auto g = lhg::build(150, 4);
  const auto deterministic = flood(g, {.source = 0});
  const auto probabilistic = probabilistic_flood(
      g, {.source = 0, .forward_probability = 0.7, .seed = 5});
  EXPECT_LT(probabilistic.messages_sent, deterministic.messages_sent);
}

TEST(ProbabilisticFlood, DeterministicPerSeed) {
  const auto g = lhg::build(60, 3);
  const ProbabilisticFloodConfig config{
      .source = 3, .forward_probability = 0.6, .seed = 11};
  const auto a = probabilistic_flood(g, config);
  const auto b = probabilistic_flood(g, config);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

// Exact pin of the coin and latency draw order under crashes: the
// coin stream is split off before the network takes its arc seed, and
// each relay flips one coin per neighbor other than the sender, in
// adjacency order.
TEST(ProbabilisticFlood, ExactPinUnderCrashes) {
  const auto g = lhg::build(64, 4);
  core::Rng plan_rng(13);
  const auto plan = random_crashes(g, 3, /*protect=*/0, plan_rng, /*time=*/1.5);
  const auto result = probabilistic_flood(
      g,
      {.source = 0, .forward_probability = 0.7,
       .latency = LatencySpec::per_send(0.5, 1.0), .seed = 11},
      plan);
  double delivery_time_sum = 0.0;
  for (const double t : result.delivery_time) {
    if (t >= 0.0) delivery_time_sum += t;
  }
  EXPECT_EQ(result.messages_sent, 136);
  EXPECT_EQ(delivery_time_sum, 0x1.b3821a7480f79p+7);
  EXPECT_EQ(result.net, (NetworkStats{.sent = 136,
                                      .delivered = 130,
                                      .lost = 0,
                                      .duplicated = 0,
                                      .blocked_sender_crashed = 0,
                                      .blocked_link_down = 0,
                                      .blocked_partition = 0,
                                      .dropped_receiver_crashed = 6,
                                      .dropped_link_down = 0,
                                      .dropped_partition = 0}));
}

TEST(ProbabilisticFlood, Validation) {
  const auto g = lhg::build(10, 3);
  EXPECT_THROW(
      probabilistic_flood(g, {.source = 0, .forward_probability = 1.5}),
      std::invalid_argument);
  EXPECT_THROW(
      probabilistic_flood(g, {.source = 0, .forward_probability = -0.1}),
      std::invalid_argument);
  EXPECT_THROW(probabilistic_flood(g, {.source = 42}), std::invalid_argument);
}

}  // namespace
}  // namespace lhg::flooding
