// Tests for the sharded deterministic simulator (flooding/shard_sim.h)
// and the sharded network + flood built on it.
//
// The load-bearing claims, in order:
//   * the engine executes in canonical (time, origin, seq) order, with
//     control events strictly before same-time node events;
//   * a sharded flood is BIT-IDENTICAL to the single-queue flood on
//     chaos-free fixtures (kFixed and kUniformPerLink latencies, with
//     and without a failure plan) — the golden-parity contract;
//   * sharded results are invariant across shard counts {1,2,4,8} and
//     thread counts {1,4} under full adversarial chaos (bursty loss +
//     duplication + reordering + crashes + flaps + partition), down to
//     the merged metrics snapshot.

#include "flooding/shard_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "flooding/failure.h"
#include "flooding/flood_generic.h"
#include "flooding/shard_net.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::NodeId;

// --- Engine unit tests -------------------------------------------------

TEST(ShardedSimulator, ControlEventsRunInTimeOrder) {
  ShardedSimulator sim(8, 4);
  std::vector<int> order;
  sim.schedule_control_at(3.0, [&](std::int32_t) { order.push_back(3); });
  sim.schedule_control_at(1.0, [&](std::int32_t) { order.push_back(1); });
  sim.schedule_control_at(2.0, [&](std::int32_t) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.env_now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ShardedSimulator, NodeEventsRunOnOwnerShardAndChain) {
  ShardedSimulator sim(8, 4);  // block = 2: node 5 lives on shard 2
  std::vector<std::int32_t> shards_seen;
  int depth = 0;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 5,
                       [&](std::int32_t shard) {
                         shards_seen.push_back(shard);
                         ++depth;
                         sim.schedule_node_at(shard, sim.now(shard) + 1.0, 5,
                                              [&](std::int32_t inner) {
                                                shards_seen.push_back(inner);
                                                ++depth;
                                              });
                       });
  sim.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(shards_seen, (std::vector<std::int32_t>{2, 2}));
  EXPECT_DOUBLE_EQ(sim.now(2), 2.0);
}

TEST(ShardedSimulator, ControlRunsBeforeSameTimeNodeEvents) {
  ShardedSimulator sim(4, 2);
  std::vector<int> order;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 0,
                       [&](std::int32_t) { order.push_back(2); });
  sim.schedule_control_at(1.0, [&](std::int32_t) { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulator, SameTimeEventsRunInCreationOrderPerOrigin) {
  // Ten same-time events from the environment run in creation order —
  // the serial engine's insertion-order contract, reproduced by the
  // canonical key.
  ShardedSimulator sim(4, 4);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 1,
                         [&order, i](std::int32_t) { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ShardedSimulator, SameTimeMidDrainInsertsSlotByKey) {
  // A handler scheduling a same-time event on its own shard must see it
  // execute within the same timestamp (the late-heap path).
  ShardedSimulator sim(2, 1);
  std::vector<int> order;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 0,
                       [&](std::int32_t shard) {
                         order.push_back(1);
                         sim.schedule_node_at(shard, 1.0, 0,
                                              [&](std::int32_t) {
                                                order.push_back(2);
                                              });
                       });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(0), 1.0);
}

TEST(ShardedSimulator, RunUntilStopsAtDeadlineAndDestructorCleansUp) {
  auto tracker = std::make_shared<int>(0);
  {
    ShardedSimulator sim(4, 2);
    int ran = 0;
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 0,
                         [&ran, tracker](std::int32_t) { ++ran; });
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 5.0, 3,
                         [&ran, tracker](std::int32_t) { ++ran; });
    sim.schedule_control_at(7.0, [&ran, tracker](std::int32_t) { ++ran; });
    sim.run_until(2.0);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_DOUBLE_EQ(sim.now(0), 2.0);
    EXPECT_DOUBLE_EQ(sim.env_now(), 2.0);
    EXPECT_EQ(tracker.use_count(), 3);  // two unexecuted captures live
  }
  // The destructor destroys unexecuted callables in buckets AND the
  // control lane (run_until leftovers).
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(ShardedSimulator, RejectsSchedulingInThePast) {
  ShardedSimulator sim(2, 2);
  sim.schedule_control_at(5.0, [](std::int32_t) {});
  sim.run();
  EXPECT_THROW(sim.schedule_control_at(1.0, [](std::int32_t) {}),
               std::invalid_argument);
  EXPECT_THROW(sim.set_lookahead(0.0), std::invalid_argument);
}

// --- Monotone-time contract ------------------------------------------

TEST(ShardedSimulator, RunUntilLeavesTheGapBeforeTheNextEventSchedulable) {
  // run_until(5) must not advance a shard's queue to its next pending
  // time (10): env scheduling in [5, 10) afterwards runs in order.
  ShardedSimulator sim(4, 2);
  std::vector<double> order;
  const auto record = [&](std::int32_t shard) {
    order.push_back(sim.now(shard));
  };
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 3, record);
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 10.0, 3, record);
  sim.run_until(5.0);
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 7.0, 3, record);
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 5.0, 3, record);
  sim.schedule_control_at(9.0, [&](std::int32_t) { order.push_back(-9.0); });
  EXPECT_THROW(sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 4.0, 3,
                                    record),
               std::invalid_argument);
  sim.run();
  EXPECT_EQ(order, (std::vector<double>{1.0, 5.0, 7.0, -9.0, 10.0}));
}

TEST(ShardedSimulator, EventAtAShardsCurrentTimeBetweenWindowsRuns) {
  // The shard drains t = 2 and stops at the deadline 2, so its current
  // time is exactly 2.  Events scheduled at 2 afterwards — from the
  // environment and from a control event — join the front run and must
  // still execute (not be lost behind the shard's clock).
  ShardedSimulator sim(4, 2);
  std::vector<int> order;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 2.0, 0,
                       [&](std::int32_t) { order.push_back(1); });
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 6.0, 0,
                       [&](std::int32_t) { order.push_back(5); });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now(0), 2.0);
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 2.0, 1,
                       [&](std::int32_t) { order.push_back(3); });
  sim.schedule_control_at(2.0, [&](std::int32_t) {
    order.push_back(2);
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 2.0, 0,
                         [&](std::int32_t) { order.push_back(4); });
  });
  sim.run();
  // Control first; then the two node events at 2 in canonical order
  // (both env-origin, so by creation).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ShardedSimulator, NegativeZeroIsTheSameTimeAsZero) {
  ShardedSimulator sim(2, 2);
  std::vector<int> order;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, 1,
                       [&](std::int32_t) { order.push_back(1); });
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, -0.0, 1,
                       [&](std::int32_t) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(std::signbit(sim.now(1)));
}

TEST(ShardedSimulator, WindowDeliverIntoThePastFailsTheDebugContract) {
  // The per-message path checks with LHG_DCHECK, which this test binary
  // keeps on; a one-shard engine runs its window inline.
  ShardedSimulator sim(2, 1);
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 5.0, 0,
                       [&](std::int32_t shard) {
                         sim.schedule_deliver_at(shard, 4.0, 0, 1, 0, 0);
                       });
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(ShardedSimulator, RunUntilRejectsNaNAndIgnoresNegativeDeadlines) {
  ShardedSimulator sim(2, 2);
  int fired = 0;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, 1,
                       [&](std::int32_t) { ++fired; });
  sim.run_until(-1.0);
  EXPECT_EQ(fired, 0);
  EXPECT_THROW(sim.run_until(std::nan("")), std::invalid_argument);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSimulator, RunLeavesEveryQueueBucketEmpty) {
  // Times spread over many radix buckets on every shard, same-time
  // chains, control events and a run_until cut: run() ends with its own
  // invariant check (pending() == 0 and every bucket empty).
  ShardedSimulator sim(16, 4);
  std::atomic<std::int64_t> fired{0};  // bumped from parallel lanes
  for (int i = 0; i < 200; ++i) {
    const double t = std::ldexp(1.0 + i % 7, i % 40 - 20);
    const std::int32_t node = i % 16;
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, t, node,
                         [&sim, &fired, node, t](std::int32_t shard) {
                           ++fired;
                           sim.schedule_node_at(shard, t, node,
                                                [](std::int32_t) {});
                         });
  }
  sim.schedule_control_at(0.5, [&](std::int32_t) { ++fired; });
  sim.run_until(1.0);
  EXPECT_GT(sim.pending(), 0u);
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fired, 201);
  EXPECT_EQ(sim.events_processed(), 401);
}

struct RecordingSink : ShardedSimulator::DeliverSink {
  struct Row {
    std::int32_t shard, from, to, link;
    std::int64_t message;
  };
  std::vector<Row> rows;
  void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                          std::int32_t to, std::int32_t link,
                          std::int64_t message) override {
    rows.push_back({shard, from, to, link, message});
  }
};

TEST(ShardedSimulator, CrossShardDeliveryCrossesTheBarrier) {
  ShardedSimulator sim(4, 2);  // shard 0: {0,1}, shard 1: {2,3}
  RecordingSink sink;
  sim.set_deliver_sink(&sink);
  sim.set_lookahead(1.0);
  // Node 1 (shard 0) acts at t=1 and sends to node 2 (shard 1) with
  // latency exactly the lookahead — legal, lands at the window edge.
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 1,
                       [&](std::int32_t shard) {
                         sim.schedule_deliver_at(shard, 2.0, 1, 2, 7, 42);
                       });
  sim.run();
  ASSERT_EQ(sink.rows.size(), 1u);
  EXPECT_EQ(sink.rows[0].shard, 1);  // executed by the receiver's shard
  EXPECT_EQ(sink.rows[0].from, 1);
  EXPECT_EQ(sink.rows[0].to, 2);
  EXPECT_EQ(sink.rows[0].link, 7);
  EXPECT_EQ(sink.rows[0].message, 42);
  EXPECT_DOUBLE_EQ(sim.now(1), 2.0);
}

// --- Flood parity ------------------------------------------------------

void expect_results_equal(const DisseminationResult& a,
                          const DisseminationResult& b) {
  EXPECT_EQ(a.delivery_time, b.delivery_time);    // bitwise doubles
  EXPECT_EQ(a.delivery_hops, b.delivery_hops);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.alive_nodes, b.alive_nodes);
  EXPECT_EQ(a.delivered_alive, b.delivered_alive);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.completion_hops, b.completion_hops);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.lost, b.net.lost);
  EXPECT_EQ(a.net.duplicated, b.net.duplicated);
  EXPECT_EQ(a.net.blocked_sender_crashed, b.net.blocked_sender_crashed);
  EXPECT_EQ(a.net.blocked_link_down, b.net.blocked_link_down);
  EXPECT_EQ(a.net.blocked_partition, b.net.blocked_partition);
  EXPECT_EQ(a.net.dropped_receiver_crashed, b.net.dropped_receiver_crashed);
  EXPECT_EQ(a.net.dropped_link_down, b.net.dropped_link_down);
  EXPECT_EQ(a.net.dropped_partition, b.net.dropped_partition);
}

/// Metrics comparison for single-queue vs sharded runs: every sample
/// must agree except sim.bucket_events, which the sharded engine
/// deliberately never records (per-drain bucket sizes are not
/// S-invariant; shard_sim.h).
void expect_metrics_equal_modulo_buckets(const obs::Snapshot& serial,
                                         const obs::Snapshot& sharded) {
  ASSERT_EQ(serial.samples.size(), sharded.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const obs::MetricSample& a = serial.samples[i];
    const obs::MetricSample& b = sharded.samples[i];
    ASSERT_EQ(a.name, b.name);
    if (a.name == "sim.bucket_events") continue;
    EXPECT_EQ(a.value, b.value) << a.name;
    EXPECT_EQ(a.count, b.count) << a.name;
    EXPECT_EQ(a.sum, b.sum) << a.name;
    EXPECT_EQ(a.buckets, b.buckets) << a.name;
  }
}

TEST(ShardedFlood, GoldenParityWithSingleQueueFixedLatency) {
  const auto g = lhg::build(22, 3);
  FloodConfig cfg;
  cfg.source = 3;
  cfg.seed = 7;
  cfg.obs.metrics = true;
  const DisseminationResult serial = flood(g, cfg);
  for (const std::int32_t shards : {2, 4, 8}) {
    FloodConfig sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    const DisseminationResult sharded = flood(g, sharded_cfg);
    expect_results_equal(serial, sharded);
    expect_metrics_equal_modulo_buckets(serial.metrics, sharded.metrics);
  }
}

TEST(ShardedFlood, GoldenParityWithSingleQueuePerLinkLatency) {
  const auto g = lhg::build(22, 3);
  FloodConfig cfg;
  cfg.source = 0;
  cfg.seed = 11;
  cfg.latency = LatencySpec::per_link(1.0, 0.5);
  const DisseminationResult serial = flood(g, cfg);
  FloodConfig sharded_cfg = cfg;
  sharded_cfg.shards = 4;
  expect_results_equal(serial, flood(g, sharded_cfg));
}

TEST(ShardedFlood, GoldenParityWithFailurePlan) {
  // Chaos-free failure plan: crashes, a flap, and a mid-broadcast
  // partition window exercise the control-phase mutators; the sharded
  // run must still be bit-equal to the single-queue run.
  const auto g = lhg::build(26, 3);
  core::Rng plan_rng(5);
  FailurePlan plan = random_crash_recoveries(g, 3, /*protect=*/0, plan_rng,
                                             /*crash_time=*/2.0,
                                             /*downtime=*/4.0);
  compose(plan, random_link_flaps(g, 2, plan_rng, /*down=*/1.0, /*up=*/6.0));
  compose(plan, random_partition(g, plan_rng, /*start=*/2.0, /*end=*/5.0));
  FloodConfig cfg;
  cfg.source = 0;
  cfg.seed = 9;
  const DisseminationResult serial = flood(g, cfg, plan);
  for (const std::int32_t shards : {2, 8}) {
    FloodConfig sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    expect_results_equal(serial, flood(g, sharded_cfg, plan));
  }
}

TEST(ShardedFlood, GoldenParityOnImplicitBackend) {
  // The storage-free overlay takes the same sharded path; edge ids
  // agree with the materialized form, so results match the serial
  // implicit flood bit for bit.
  const ImplicitLhg view(200, 4);
  FloodConfig cfg;
  cfg.source = 17;
  cfg.seed = 3;
  const DisseminationResult serial = flood(view, cfg);
  FloodConfig sharded_cfg = cfg;
  sharded_cfg.shards = 4;
  expect_results_equal(serial, flood(view, sharded_cfg));
}

FloodConfig chaos_config() {
  FloodConfig cfg;
  cfg.source = 1;
  cfg.seed = 13;
  cfg.chaos = ChaosSpec::bursty(0.08, 0.3, 0.45);
  cfg.chaos.duplicate = 0.05;
  cfg.chaos.reorder = 0.1;
  cfg.chaos.reorder_jitter = 0.7;
  cfg.obs.metrics = true;
  return cfg;
}

FailurePlan chaos_plan(const core::Graph& g) {
  core::Rng rng(21);
  FailurePlan plan =
      adversarial_chaos(g, /*count=*/2, /*protect=*/1, rng,
                        /*crash_time=*/2.0, /*partition_start=*/3.0,
                        /*partition_end=*/6.0);
  compose(plan, random_link_flaps(g, 3, rng, /*down=*/1.5, /*up=*/7.0));
  return plan;
}

TEST(ShardedFlood, OneVsManyShardsBitIdenticalUnderAdversarialChaos) {
  // Per-arc RNG streams make lossy runs shard-count-invariant: S=1
  // sharded is the baseline, S in {2,4,8} must match it exactly —
  // results, counters, and the full merged metrics snapshot.
  const auto g = lhg::build(40, 4);
  const FailurePlan plan = chaos_plan(g);
  FloodConfig cfg = chaos_config();
  cfg.shards = 1;
  const DisseminationResult base = sharded_flood(g, cfg, plan);
  EXPECT_GT(base.net.lost, 0);  // the chaos actually bites
  for (const std::int32_t shards : {2, 4, 8}) {
    FloodConfig sweep = cfg;
    sweep.shards = shards;
    const DisseminationResult got = sharded_flood(g, sweep, plan);
    expect_results_equal(base, got);
    EXPECT_EQ(base.metrics.to_json(), got.metrics.to_json());
  }
}

TEST(ShardedFlood, ShardThreadSweepParallelDeterminism) {
  // The full acceptance matrix: shards {1,2,4,8} x threads {1,4} under
  // adversarial chaos — every cell bit-identical to the (S=1, T=1)
  // baseline.  Named *ParallelDeterminism* so the slow label and the
  // TSan job pick it up.
  const auto g = lhg::build(64, 4);
  const FailurePlan plan = chaos_plan(g);
  FloodConfig cfg = chaos_config();
  const int previous = core::global_thread_count();
  cfg.shards = 1;
  core::set_global_thread_count(1);
  const DisseminationResult base = sharded_flood(g, cfg, plan);
  for (const int threads : {1, 4}) {
    core::set_global_thread_count(threads);
    for (const std::int32_t shards : {1, 2, 4, 8}) {
      FloodConfig sweep = cfg;
      sweep.shards = shards;
      const DisseminationResult got = sharded_flood(g, sweep, plan);
      expect_results_equal(base, got);
      EXPECT_EQ(base.metrics.to_json(), got.metrics.to_json())
          << "shards=" << shards << " threads=" << threads;
    }
  }
  core::set_global_thread_count(previous);
}

TEST(ShardedFlood, SingleQueueParityHoldsAcrossThreadCounts) {
  // Golden parity is thread-count-independent too: the chaos-free
  // sharded flood equals the serial flood at LHG_THREADS=1 and 4.
  const auto g = lhg::build(30, 3);
  FloodConfig cfg;
  cfg.source = 2;
  cfg.seed = 19;
  cfg.latency = LatencySpec::per_link(1.0, 0.25);
  const DisseminationResult serial = flood(g, cfg);
  const int previous = core::global_thread_count();
  for (const int threads : {1, 4}) {
    core::set_global_thread_count(threads);
    FloodConfig sharded_cfg = cfg;
    sharded_cfg.shards = 4;
    expect_results_equal(serial, flood(g, sharded_cfg));
  }
  core::set_global_thread_count(previous);
}

TEST(ShardedFlood, RejectsZeroLookaheadTopology) {
  // kFixed base=0 with cross-shard links cannot be windowed; the
  // engine must refuse loudly instead of deadlocking or racing.
  const auto g = lhg::build(16, 3);
  FloodConfig cfg;
  cfg.latency = LatencySpec::fixed(0.0);
  cfg.shards = 4;
  EXPECT_THROW(flood(g, cfg), std::invalid_argument);
}

TEST(ShardedNetworkT, LookaheadIsMinCrossShardLatency) {
  const auto g = lhg::build(24, 3);
  ShardedSimulator sim(g.num_nodes(), 4);
  core::Rng rng(7);
  ShardedNetwork<core::Graph> net(g, sim, LatencySpec::per_link(1.0, 0.5),
                                  rng, ChaosSpec::none());
  // Per-link latencies live in [1.0, 1.5]; the installed lookahead is
  // their minimum over cross-shard arcs.
  const double la = net.min_cross_shard_latency();
  EXPECT_GE(la, 1.0);
  EXPECT_LE(la, 1.5);
  EXPECT_DOUBLE_EQ(sim.lookahead(), la);
}

}  // namespace
}  // namespace lhg::flooding
