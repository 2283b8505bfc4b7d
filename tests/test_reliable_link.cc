// Tests for the per-link ACK/retransmit/backoff layer.

#include "flooding/reliable_link.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "flooding/failure.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace lhg::flooding {
namespace {

using core::Edge;
using core::Graph;
using core::NodeId;

Graph pair2() { return Graph::from_edges(2, std::vector<Edge>{{0, 1}}); }

struct Delivery {
  NodeId to;
  NodeId from;
  std::int64_t payload;
  double time;
};

TEST(BackoffPolicy, ExponentialScheduleWithCap) {
  const BackoffPolicy policy{1.0, 2.0, 5.0, 10, false};
  EXPECT_DOUBLE_EQ(policy.delay(0), 1.0);
  EXPECT_DOUBLE_EQ(policy.delay(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.delay(2), 4.0);
  EXPECT_DOUBLE_EQ(policy.delay(3), 5.0);  // capped
  EXPECT_DOUBLE_EQ(policy.delay(9), 5.0);
}

TEST(BackoffPolicy, FixedFactoryMatchesClassicSchedule) {
  const auto policy = BackoffPolicy::fixed(3.0, 5);
  EXPECT_DOUBLE_EQ(policy.delay(0), 3.0);
  EXPECT_DOUBLE_EQ(policy.delay(4), 3.0);
  EXPECT_EQ(policy.max_retries, 5);
  EXPECT_FALSE(policy.persist_when_blocked);
}

TEST(ReliableLink, LosslessDeliversOnceWithOneAck) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 5));
  std::vector<Delivery> log;
  link.set_deliver_handler([&](NodeId to, NodeId from, std::int64_t payload) {
    log.push_back({to, from, payload, sim.now()});
  });
  EXPECT_TRUE(link.send(0, 1, 42));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, 1);
  EXPECT_EQ(log[0].from, 0);
  EXPECT_EQ(log[0].payload, 42);
  EXPECT_DOUBLE_EQ(log[0].time, 1.0);
  EXPECT_EQ(link.acks_sent(), 1);
  EXPECT_EQ(link.retransmissions(), 0);
  EXPECT_EQ(net.stats().sent, 2);  // DATA + ACK
}

TEST(ReliableLink, RetransmitsUntilDeliveredUnderHeavyLoss) {
  Simulator sim;
  core::Rng rng(3);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng, ChaosSpec::iid(0.6));
  ReliableLink link(net, BackoffPolicy::fixed(2.0, 20));
  std::vector<std::int64_t> got;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    got.push_back(payload);
  });
  for (std::int64_t m = 0; m < 10; ++m) link.send(0, 1, m);
  sim.run();
  // 21 tries at 60% loss: every payload makes it, exactly once.
  ASSERT_EQ(got.size(), 10u);
  EXPECT_GT(link.retransmissions(), 0);
}

TEST(ReliableLink, SuppressesDuplicatedFrames) {
  Simulator sim;
  core::Rng rng(5);
  Graph g = pair2();
  ChaosSpec chaos;
  chaos.duplicate = 0.9;
  Network net(g, sim, LatencySpec::fixed(1.0), rng, chaos);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 5));
  int deliveries = 0;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t) { ++deliveries; });
  for (std::int64_t m = 0; m < 20; ++m) link.send(0, 1, m);
  sim.run();
  EXPECT_EQ(deliveries, 20);  // duplicates absorbed below the application
  EXPECT_GT(link.duplicates_suppressed(), 0);
  EXPECT_GT(net.stats().duplicated, 0);
}

TEST(ReliableLink, AbandonsAfterRetriesExhausted) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(2.0, 3));
  int deliveries = 0;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t) { ++deliveries; });
  FailurePlan plan;
  plan.crashes = {{1, 0.0}};  // receiver dead: DATA is transmitted but dropped
  apply_failure_plan(net, plan);
  EXPECT_TRUE(link.send(0, 1, 7));
  sim.run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(link.retransmissions(), 3);  // bounded: 1 + 3 transmissions
  EXPECT_EQ(net.stats().sent, 4);
}

TEST(ReliableLink, BlockedSendAbandonsByDefault) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(2.0, 5));
  FailurePlan plan;
  plan.link_failures = {{{0, 1}, 0.0}};
  apply_failure_plan(net, plan);
  EXPECT_FALSE(link.send(0, 1, 7));
  sim.run();
  EXPECT_EQ(net.stats().sent, 0);
  EXPECT_EQ(link.retransmissions(), 0);
}

TEST(ReliableLink, PersistentPolicyRidesOutALinkFlap) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  BackoffPolicy policy = BackoffPolicy::fixed(2.0, 10);
  policy.persist_when_blocked = true;
  ReliableLink link(net, policy);
  std::vector<Delivery> log;
  link.set_deliver_handler([&](NodeId to, NodeId from, std::int64_t payload) {
    log.push_back({to, from, payload, sim.now()});
  });
  FailurePlan plan;
  plan.flaps = {{{0, 1}, 0.0, 5.0}};
  apply_failure_plan(net, plan);
  EXPECT_TRUE(link.send(0, 1, 7));  // refused now, retried through the flap
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].payload, 7);
  EXPECT_GT(log[0].time, 5.0);
}

TEST(ReliableLink, PersistentPolicyReachesARecoveringReceiver) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  BackoffPolicy policy = BackoffPolicy::fixed(2.0, 10);
  policy.persist_when_blocked = true;
  ReliableLink link(net, policy);
  std::vector<Delivery> log;
  link.set_deliver_handler([&](NodeId to, NodeId from, std::int64_t payload) {
    log.push_back({to, from, payload, sim.now()});
  });
  FailurePlan plan;
  plan.crashes = {{1, 0.0}};
  plan.recoveries = {{1, 7.0}};
  apply_failure_plan(net, plan);
  EXPECT_TRUE(link.send(0, 1, 9));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].payload, 9);
  // The recovery event at t=7 is scheduled first, so a copy landing at
  // exactly t=7 is already deliverable.
  EXPECT_GE(log[0].time, 7.0);
}

TEST(ReliableLink, RawFramesBypassReliability) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 5));
  std::vector<std::int64_t> raw;
  int reliable = 0;
  link.set_raw_handler(
      [&](NodeId, NodeId, std::int64_t payload) { raw.push_back(payload); });
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t) { ++reliable; });
  EXPECT_TRUE(link.send_raw_arc(0, 1, g.arc_index(0, 1), 5));
  EXPECT_TRUE(link.send_raw_arc(0, 1, g.arc_index(0, 1), 5));  // no dedup
  sim.run();
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[0], 5);
  EXPECT_EQ(reliable, 0);
  EXPECT_EQ(link.acks_sent(), 0);   // raw frames are never ACKed
  EXPECT_EQ(net.stats().sent, 2);
}

TEST(ReliableLink, SequenceSpaceWrapsPastTheOldCap) {
  // Earlier revisions LHG_CHECK-aborted the 1025th send on one arc;
  // the sliding window must sail straight through the old cap with
  // every payload delivered exactly once.
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 0));
  std::vector<std::int64_t> got;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    got.push_back(payload);
  });
  // Paced sends (one per tick): the window never fills, nothing is
  // abandoned, and seqs wrap 1023 -> 1024 -> ... without incident.
  for (std::int64_t m = 0; m < 1500; ++m) {
    sim.schedule_at(static_cast<double>(m),
                    [&link, m] { EXPECT_TRUE(link.send(0, 1, m)); });
  }
  sim.run();
  ASSERT_EQ(got.size(), 1500u);
  for (std::int64_t m = 0; m < 1500; ++m) {
    EXPECT_EQ(got[static_cast<std::size_t>(m)], m);
  }
  EXPECT_EQ(link.window_overflows(), 0);
  EXPECT_EQ(link.duplicates_suppressed(), 0);
  // The reverse arc has its own sequence space.
  EXPECT_TRUE(link.send(1, 0, 0));
}

TEST(ReliableLink, WraparoundBoundaryDedupSuppressesOldSeqReplays) {
  // Around the seq 1023 -> 1024 boundary the dedup bitmap slot for
  // seq s is reused by s + 1024; duplicated frames on both sides of
  // the boundary must still be suppressed exactly.
  Simulator sim;
  core::Rng rng(5);
  Graph g = pair2();
  ChaosSpec chaos;
  chaos.duplicate = 0.9;  // most frames arrive twice
  Network net(g, sim, LatencySpec::fixed(1.0), rng, chaos);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 2));
  std::vector<std::int64_t> got;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    got.push_back(payload);
  });
  // 1100 paced sends cross the boundary; duplication + retransmits
  // replay seqs on both sides of it.
  for (std::int64_t m = 0; m < 1100; ++m) {
    sim.schedule_at(static_cast<double>(m),
                    [&link, m] { link.send(0, 1, m); });
  }
  sim.run();
  ASSERT_EQ(got.size(), 1100u);  // every payload exactly once, in order
  for (std::int64_t m = 0; m < 1100; ++m) {
    EXPECT_EQ(got[static_cast<std::size_t>(m)], m);
  }
  EXPECT_GT(link.duplicates_suppressed(), 0);
  EXPECT_EQ(link.window_overflows(), 0);
}

TEST(ReliableLink, BurstBeyondWindowAbandonsOldestAndCountsOverflows) {
  // A same-instant burst of window + 256 sends exceeds the in-flight
  // bound: the oldest frames are abandoned (counted), the newest 1024
  // all arrive, and nothing aborts.
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 2));
  std::vector<std::int64_t> got;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    got.push_back(payload);
  });
  const std::int64_t total = ReliableLink::kWindow + 256;
  for (std::int64_t m = 0; m < total; ++m) {
    EXPECT_TRUE(link.send(0, 1, m));
  }
  EXPECT_EQ(link.window_overflows(), 256);
  sim.run();
  // Lossless wire: every copy transmitted before abandonment still
  // arrives (abandonment only cancels future retries), so all payloads
  // land exactly once even though 256 lost their retry coverage.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  EXPECT_EQ(link.duplicates_suppressed(), 0);
}

TEST(ReliableLink, SoakFourThousandFramesOneArcUnderLoss) {
  // The headline regression: >4096 DATA frames over a single arc at
  // 20% i.i.d. loss.  The seed code LHG_CHECK-aborted at frame 1025;
  // the sliding window must deliver every frame exactly once.  Sends
  // are paced (8 per tick) so each frame's retry lifetime fits well
  // inside the 1024-seq window — the pacing contract under which
  // at-least-once holds (DESIGN.md §12).
  Simulator sim;
  core::Rng rng(11);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng, ChaosSpec::iid(0.2));
  ReliableLink link(net, BackoffPolicy::fixed(2.0, 20));

  obs::Runtime obs_rt(obs::ObsConfig{true, true, 1 << 12});
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  link.set_obs(obs_rt.obs());

  constexpr std::int64_t kFrames = 4800;
  constexpr std::int64_t kPerTick = 8;
  std::vector<std::uint8_t> seen(kFrames, 0);
  std::int64_t delivered = 0;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    ASSERT_LT(payload, kFrames);
    ASSERT_EQ(seen[static_cast<std::size_t>(payload)], 0)
        << "payload " << payload << " delivered twice";
    seen[static_cast<std::size_t>(payload)] = 1;
    ++delivered;
  });
  for (std::int64_t m = 0; m < kFrames; ++m) {
    sim.schedule_at(static_cast<double>(m / kPerTick),
                    [&link, m] { link.send(0, 1, m); });
  }
  sim.run();

  EXPECT_EQ(delivered, kFrames);  // at-least-once + dedup = exactly-once
  EXPECT_EQ(link.window_overflows(), 0);
  EXPECT_GT(link.retransmissions(), 0);  // 20% loss forced retries

  // The metrics layer saw the same run the counters did.
  const obs::Snapshot snap = obs_rt.metrics_snapshot();
  const obs::MetricSample* data = snap.find("link.data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->value, kFrames);
  const obs::MetricSample* retx = snap.find("link.retransmits");
  ASSERT_NE(retx, nullptr);
  EXPECT_EQ(retx->value, link.retransmissions());
  const obs::MetricSample* inflight = snap.find("link.inflight_span");
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->count, kFrames);  // observed once per send
  // The exhaustion detector: the in-flight span stayed inside the
  // window for the whole soak.
  for (std::int32_t b = obs::histogram_bucket(ReliableLink::kWindow) + 1;
       b < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(inflight->buckets[static_cast<std::size_t>(b)], 0);
  }

  // Tracing stayed within its ring: newest events retained, overflow
  // counted rather than grown.
  const obs::TraceLog log = obs_rt.trace_log();
  EXPECT_LE(log.events.size(), static_cast<std::size_t>(1) << 12);
  EXPECT_GT(log.events.size(), 0u);
}

TEST(ReliableLink, ValidatesBackoff) {
  Simulator sim;
  core::Rng rng(1);
  Graph g = pair2();
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  EXPECT_THROW(ReliableLink(net, BackoffPolicy{0.0, 1.0, 0.0, 5, false}),
               std::invalid_argument);
  EXPECT_THROW(ReliableLink(net, BackoffPolicy{1.0, 0.5, 0.0, 5, false}),
               std::invalid_argument);
  EXPECT_THROW(ReliableLink(net, BackoffPolicy{1.0, 1.0, 0.0, -1, false}),
               std::invalid_argument);
}

TEST(ReliableLink, SendRejectsNonNeighborPairs) {
  // Path 0 - 1 - 2: (0, 2) is not an overlay edge and 5 is no node, so
  // neither has an arc whose per-arc sequence state could be indexed.
  Simulator sim;
  core::Rng rng(1);
  Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Network net(g, sim, LatencySpec::fixed(1.0), rng);
  ReliableLink link(net, BackoffPolicy::fixed(3.0, 5));
  EXPECT_THROW(link.send(0, 2, 1), std::invalid_argument);
  EXPECT_THROW(link.send(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(link.send(-1, 1, 1), std::invalid_argument);
  EXPECT_TRUE(link.send(0, 1, 1));
  sim.run();
  EXPECT_EQ(net.stats().sent, 2);  // only the valid send's DATA + ACK
}

}  // namespace
}  // namespace lhg::flooding
