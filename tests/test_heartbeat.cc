// Tests for the heartbeat failure-detection layer.

#include "flooding/heartbeat.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lhg/lhg.h"
#include "obs/obs.h"

namespace lhg::flooding {
namespace {

TEST(Heartbeat, QuietWhenNothingFails) {
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(g, {.horizon = 20.0});
  EXPECT_EQ(result.false_suspicions, 0);
  EXPECT_TRUE(result.detections.empty());
  // n nodes × deg k × horizon/interval beats.
  EXPECT_GT(result.heartbeats_sent, 0);
  EXPECT_LE(result.heartbeats_sent,
            static_cast<std::int64_t>(2 * g.num_edges()) * 20);
}

TEST(Heartbeat, BoundedRunConservesWithCopiesInFlight) {
  // Latencies up to 6 outlast the run's end at horizon + timeout + 1 =
  // 14.5, so beats sent near the horizon are still queued there; with
  // loss and a crash, every accepted copy is delivered, counted as
  // undelivered, or in flight.
  const auto g = lhg::build(22, 3);
  FailurePlan plan;
  plan.crashes.push_back({4, 3.0});
  const auto result = run_heartbeat(
      g,
      {.timeout = 3.5, .horizon = 10.0,
       .latency = LatencySpec::per_link(4.0, 2.0), .loss_probability = 0.1,
       .seed = 5},
      plan);
  EXPECT_GT(result.in_flight, 0);
  EXPECT_GT(result.net.lost, 0);
  EXPECT_GT(result.net.dropped_receiver_crashed, 0);
  EXPECT_TRUE(result.net.conserved(result.in_flight));
  EXPECT_FALSE(result.net.conserved());
}

TEST(Heartbeat, DetectsACrashWithinTimeoutPlusInterval) {
  const auto g = lhg::build(22, 3);
  FailurePlan plan;
  plan.crashes.push_back({5, 10.0});
  const auto result = run_heartbeat(
      g, {.interval = 1.0, .timeout = 3.0, .horizon = 30.0}, plan);
  ASSERT_EQ(result.detections.size(), 1u);
  const auto& detection = result.detections[0];
  EXPECT_EQ(detection.node, 5);
  EXPECT_GE(detection.detection_latency, 0.0);
  // Last beat at t<=10, suspicion within timeout + interval + latency.
  EXPECT_LE(detection.detection_latency, 3.0 + 1.0 + 0.5);
  EXPECT_TRUE(result.all_crashes_detected());
  EXPECT_EQ(result.false_suspicions, 0);
}

TEST(Heartbeat, DetectsMultipleCrashes) {
  const auto g = lhg::build(30, 3);
  FailurePlan plan;
  plan.crashes.push_back({2, 8.0});
  plan.crashes.push_back({9, 15.0});
  const auto result = run_heartbeat(g, {.horizon = 40.0}, plan);
  EXPECT_EQ(result.detections.size(), 2u);
  EXPECT_TRUE(result.all_crashes_detected());
  EXPECT_GT(result.max_detection_latency(), 0.0);
}

TEST(Heartbeat, LossCausesFalseSuspicions) {
  // With aggressive timeout (2 intervals) and 40% loss, some pair will
  // miss 2 beats in a row over a long horizon.
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(
      g, {.interval = 1.0, .timeout = 2.1, .horizon = 60.0,
          .loss_probability = 0.4, .seed = 3});
  EXPECT_GT(result.false_suspicions, 0);
}

TEST(Heartbeat, GenerousTimeoutSuppressesFalseSuspicions) {
  const auto g = lhg::build(22, 3);
  const auto result = run_heartbeat(
      g, {.interval = 1.0, .timeout = 8.0, .horizon = 60.0,
          .loss_probability = 0.2, .seed = 3});
  EXPECT_EQ(result.false_suspicions, 0);
}

TEST(Heartbeat, LinkFailureMakesBothEndpointsSuspectEachOther) {
  // Cut one link mid-run: both (live) endpoints stop hearing each other
  // and must raise a suspicion within the timeout — counted as false
  // suspicions because neither node actually crashed.
  const auto g = lhg::build(22, 3);
  const core::NodeId u = 0;
  const core::NodeId v = g.neighbors(0)[0];
  FailurePlan plan;
  plan.link_failures.push_back({{u, v}, 10.0});
  const auto result = run_heartbeat(
      g, {.interval = 1.0, .timeout = 3.0, .horizon = 30.0}, plan);
  // Exactly the two directed arcs across the cut go silent; every other
  // pair keeps beating.
  EXPECT_EQ(result.false_suspicions, 2);
  EXPECT_TRUE(result.detections.empty());
}

TEST(Heartbeat, CrashAfterHorizonIgnored) {
  const auto g = lhg::build(10, 3);
  FailurePlan plan;
  plan.crashes.push_back({1, 100.0});
  const auto result = run_heartbeat(g, {.horizon = 20.0}, plan);
  EXPECT_TRUE(result.detections.empty());
}

// Exact pin of the detector's draw order and timing: beats, false
// suspicions and every detection latency under loss, per-send latency
// jitter, a permanent crash, a crash that recovers, and a link flap.
// The recovered node's neighbors rebut their suspicions once it beats
// again, so its detection reads as incomplete (-1).
TEST(Heartbeat, ExactPinLossCrashFlapRecovery) {
  const auto g = lhg::build(64, 4);
  FailurePlan plan;
  plan.crashes.push_back({7, 6.0});
  plan.crashes.push_back({20, 9.0});
  plan.recoveries.push_back({20, 18.0});
  plan.flaps.push_back({{0, g.neighbors(0)[1]}, 4.0, 11.0});
  const auto result = run_heartbeat(
      g,
      {.interval = 1.0, .timeout = 3.5, .horizon = 40.0,
       .latency = LatencySpec::per_send(0.05, 0.1),
       .loss_probability = 0.2, .seed = 5},
      plan);
  EXPECT_EQ(result.heartbeats_sent, 10370);
  EXPECT_EQ(result.false_suspicions, 56);
  ASSERT_EQ(result.detections.size(), 2u);
  EXPECT_EQ(result.detections[0].node, 7);
  EXPECT_EQ(result.detections[0].crash_time, 6.0);
  EXPECT_EQ(result.detections[0].detection_latency, 0x1.513996b33cffp+1);
  EXPECT_EQ(result.detections[1].node, 20);
  EXPECT_EQ(result.detections[1].crash_time, 9.0);
  EXPECT_EQ(result.detections[1].detection_latency, -1.0);
}

// --- HeartbeatDetector driven directly ------------------------------

struct Suspicion {
  core::NodeId observer;
  core::NodeId target;
  bool false_alarm;
  double time;
};

TEST(HeartbeatDetector, LossyRunStaysInsideInlineCallbackSlots) {
  const auto g = lhg::build(64, 4);
  Simulator sim;
  core::Rng rng(7);
  Network net(g, sim, LatencySpec::fixed(0.1), rng, ChaosSpec::iid(0.3));
  HeartbeatDetector detector(
      net, /*interval=*/1.0, /*timeout=*/2.1, /*horizon=*/30.0,
      [&](core::NodeId u, core::NodeId v, std::int32_t arc) {
        return net.send_link(u, v, g.edge_of_arc(arc), 0);
      });
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.on_beat(self, from); });
  detector.start();
  sim.run();
  EXPECT_GT(detector.false_suspicions(), 0);  // the loss did bite
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

TEST(HeartbeatDetector, CrashedNodesSkipTheirBeats) {
  // 10 ticks per node (t = 1..10).  Node 3 is down for ticks 5..7, so
  // it beats 7 times; hb.beats and the accepted sends both count only
  // the beats of live nodes, and nothing is refused at the Network.
  const auto g = lhg::build(16, 3);
  Simulator sim;
  core::Rng rng(1);
  Network net(g, sim, LatencySpec::fixed(0.1), rng);
  obs::Runtime obs_rt({.metrics = true});
  net.set_obs(obs_rt.obs());
  HeartbeatDetector detector(
      net, /*interval=*/1.0, /*timeout=*/3.5, /*horizon=*/10.0,
      [&](core::NodeId u, core::NodeId v, std::int32_t arc) {
        return net.send_link(u, v, g.edge_of_arc(arc), 0);
      });
  detector.set_obs(obs_rt.obs());
  FailurePlan plan;
  plan.crashes.push_back({3, 4.5});
  plan.recoveries.push_back({3, 7.5});
  apply_failure_plan(net, plan);
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.on_beat(self, from); });
  detector.start();
  sim.run();
  const auto metrics = obs_rt.metrics_snapshot();
  const obs::MetricSample* beats = metrics.find("hb.beats");
  ASSERT_NE(beats, nullptr);
  EXPECT_EQ(beats->value, 15 * 10 + 7);
  EXPECT_EQ(detector.beats_sent(),
            2 * g.num_edges() * 10 - 3 * static_cast<std::int64_t>(g.degree(3)));
  EXPECT_EQ(net.stats().blocked_sender_crashed, 0);
}

TEST(HeartbeatDetector, OnSuspectSeesFalseAlarmsAndRealCrashes) {
  const auto g = lhg::build(22, 3);
  const core::NodeId crashed = 5;
  const core::Edge flapped{0, g.neighbors(0)[0]};
  ASSERT_NE(flapped.v, crashed);
  ASSERT_FALSE(g.has_edge(0, crashed));
  Simulator sim;
  core::Rng rng(2);
  Network net(g, sim, LatencySpec::fixed(0.1), rng);
  std::vector<Suspicion> seen;
  HeartbeatDetector detector(
      net, /*interval=*/1.0, /*timeout=*/3.0, /*horizon=*/30.0,
      [&](core::NodeId u, core::NodeId v, std::int32_t arc) {
        return net.send_link(u, v, g.edge_of_arc(arc), 0);
      },
      [&](core::NodeId observer, core::NodeId target, bool false_alarm) {
        seen.push_back({observer, target, false_alarm, sim.now()});
      });
  FailurePlan plan;
  plan.crashes.push_back({crashed, 10.0});
  plan.flaps.push_back({flapped, 12.0, 20.0});
  apply_failure_plan(net, plan);
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.on_beat(self, from); });
  detector.start();
  sim.run();

  // Exactly the crashed node's neighbors (real) and both ends of the
  // flapped link (false) raise a suspicion, each once.
  std::int32_t real = 0;
  std::int32_t false_alarms = 0;
  for (const Suspicion& s : seen) {
    if (s.target == crashed) {
      EXPECT_FALSE(s.false_alarm);
      EXPECT_TRUE(g.has_edge(s.observer, crashed));
      EXPECT_GT(detector.suspected_since(g.arc_index(s.observer, crashed)),
                10.0);
      ++real;
    } else {
      EXPECT_TRUE(s.false_alarm);
      EXPECT_TRUE((s.observer == flapped.u && s.target == flapped.v) ||
                  (s.observer == flapped.v && s.target == flapped.u));
      EXPECT_GT(s.time, 12.0);
      EXPECT_LT(s.time, 20.0);
      // The link came back: the rebuttal beat cleared the suspicion.
      EXPECT_EQ(detector.suspected_since(g.arc_index(s.observer, s.target)),
                -1.0);
      ++false_alarms;
    }
  }
  EXPECT_EQ(real, g.degree(crashed));
  EXPECT_EQ(false_alarms, 2);
  EXPECT_EQ(detector.false_suspicions(), 2);
}

TEST(HeartbeatDetector, NoSuspicionAfterTheHorizon) {
  // A crash one interval before the horizon would be suspected at
  // ~ crash + timeout, past the horizon: no check may fire then, though
  // the engine drains every pending check.
  const auto g = lhg::build(22, 3);
  Simulator sim;
  core::Rng rng(3);
  Network net(g, sim, LatencySpec::fixed(0.1), rng);
  std::int32_t suspicions = 0;
  HeartbeatDetector detector(
      net, /*interval=*/1.0, /*timeout=*/3.0, /*horizon=*/20.0,
      [&](core::NodeId u, core::NodeId v, std::int32_t arc) {
        return net.send_link(u, v, g.edge_of_arc(arc), 0);
      },
      [&](core::NodeId, core::NodeId, bool) {
        EXPECT_LE(sim.now(), 20.0);
        ++suspicions;
      });
  FailurePlan plan;
  plan.crashes.push_back({5, 19.0});
  apply_failure_plan(net, plan);
  net.set_receive_handler([&](core::NodeId self, core::NodeId from,
                              std::int64_t) { detector.on_beat(self, from); });
  detector.start();
  sim.run();
  EXPECT_GT(sim.now(), 20.0);  // checks armed before the horizon ran
  EXPECT_EQ(suspicions, 0);
}

TEST(Heartbeat, Validation) {
  const auto g = lhg::build(10, 3);
  EXPECT_THROW(run_heartbeat(g, {.interval = 0.0}), std::invalid_argument);
  EXPECT_THROW(run_heartbeat(g, {.interval = 2.0, .timeout = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(run_heartbeat(g, {.horizon = -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace lhg::flooding
