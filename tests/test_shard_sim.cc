// Tests for the sharded deterministic simulator (flooding/shard_sim.h)
// and the sharded network + flood built on it.
//
// The load-bearing claims, in order:
//   * the engine executes by (time, generation), a generation in push
//     order except that each node's events run together in canonical
//     (origin, seq) key order, with control events strictly before
//     same-time node events;
//   * a sharded flood is BIT-IDENTICAL to the single-queue flood on
//     chaos-free fixtures (kFixed and kUniformPerLink latencies, with
//     and without a failure plan) — the golden-parity contract;
//   * sharded results are invariant across shard counts {1,2,4,8} and
//     thread counts {1,4} under full adversarial chaos (bursty loss +
//     duplication + reordering + crashes + flaps + partition), down to
//     the merged metrics snapshot.

#include "flooding/shard_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/failure.h"
#include "flooding/flood_generic.h"
#include "flooding/segment_pool.h"
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
  // At t = 1 node 1 acts first (environment key 0), then node 0, and
  // each schedules a callback on node 0 at t = 2: X with node 1's key,
  // then Y with node 0's, the smaller.  Node 0's t = 2 generation runs
  // Y, X.  Y schedules Z at t = 2; Z's key (node 0's next) sorts below
  // X's, but Z is the next generation, so it runs after X, at the same
  // timestamp.
  ShardedSimulator sim(2, 1);
  std::vector<char> order;
  const auto at_two = [&](std::int32_t shard, char name) {
    sim.schedule_node_at(shard, 2.0, 0, [&, name](std::int32_t inner) {
      order.push_back(name);
      if (name != 'Y') return;
      sim.schedule_node_at(inner, 2.0, 0,
                           [&](std::int32_t) { order.push_back('Z'); });
    });
  };
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 1,
                       [&](std::int32_t shard) { at_two(shard, 'X'); });
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 0,
                       [&](std::int32_t shard) { at_two(shard, 'Y'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'Y', 'X', 'Z'}));
  EXPECT_DOUBLE_EQ(sim.now(0), 2.0);
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

TEST(ShardedSimulator, CallbackSlabsRecycleSlotsAndCountHeapFallbacks) {
  // Node callbacks on every shard and control events share the engine's
  // slabs: a self-sustaining chain per node keeps one live callable per
  // node, so the high-water mark stays flat however long it runs.
  ShardedSimulator sim(8, 4);
  std::atomic<std::int64_t> fired{0};  // bumped from parallel lanes
  std::vector<std::function<void(std::int32_t)>> chain(8);
  for (std::int32_t node = 0; node < 8; ++node) {
    chain[static_cast<std::size_t>(node)] = [&, node](std::int32_t shard) {
      if (++fired < 8000) {
        sim.schedule_node_at(shard, sim.now(shard) + 1.0, node,
                             chain[static_cast<std::size_t>(node)]);
      }
    };
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, node,
                         chain[static_cast<std::size_t>(node)]);
  }
  sim.schedule_control_at(5.0, [](std::int32_t) {});
  sim.run_until(100.0);  // warm up
  const std::int64_t high_water = sim.slots_created();
  EXPECT_GT(high_water, 0);
  sim.run();
  EXPECT_EQ(fired, 8000 + 7);  // each other chain fires once more
  EXPECT_EQ(sim.slots_created(), high_water);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);

  // Oversized captures fall back to the heap, counted on either lane;
  // empty std::functions are refused.
  struct Big {
    double payload[16];
  };
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, sim.env_now(), 3,
                       [big = Big{}](std::int32_t) { (void)big; });
  sim.schedule_control_at(sim.env_now(),
                          [big = Big{}](std::int32_t) { (void)big; });
  EXPECT_EQ(sim.callback_heap_allocations(), 2);
  EXPECT_THROW(sim.schedule_control_at(sim.env_now(),
                                       std::function<void(std::int32_t)>{}),
               std::invalid_argument);
  sim.run();
}

TEST(ShardedSimulator, OwnerTableConstructorRejectsBadTables) {
  EXPECT_THROW(ShardedSimulator(std::vector<std::int32_t>{}, 2),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimulator({0, 1, 2}, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSimulator({0, -1, 1}, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSimulator({0, 0}, 0), std::invalid_argument);
  const ShardedSimulator sim({1, 0, 1, 1}, 2);
  EXPECT_EQ(sim.num_nodes(), 4);
  EXPECT_EQ(sim.num_shards(), 2);
  EXPECT_EQ(sim.shard_of(0), 1);
  EXPECT_EQ(sim.shard_of(1), 0);
}

TEST(ShardedSimulator, BlockConstructorKeepsContiguousBlocksAndClamp) {
  for (const std::int32_t n : {1, 7, 8, 10, 100}) {
    for (const std::int32_t s : {1, 2, 3, 4, 8, 200}) {
      const ShardedSimulator sim(n, s);
      const std::int32_t clamped = std::min(s, n);
      const std::int32_t block = (n + clamped - 1) / clamped;
      EXPECT_EQ(sim.num_shards(), (n + block - 1) / block)
          << "n=" << n << " S=" << s;
      for (std::int32_t v = 0; v < n; ++v) {
        ASSERT_EQ(sim.shard_of(v), v / block) << "n=" << n << " S=" << s;
      }
    }
  }
  // n = 10 at S = 8: blocks of two fill five shards, not eight.
  EXPECT_EQ(ShardedSimulator(10, 8).num_shards(), 5);
  EXPECT_THROW(ShardedSimulator(0, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(4, 0), std::invalid_argument);
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

// --- Per-node canonical order under adversarial push order --------------

/// A same-time workload whose t = 2 runs reach every shard out of key
/// order, with several events per node.  At t = 1 the environment wakes
/// the nodes in descending id order, so they act in that order; each
/// sends three messages to other nodes and schedules one callback on
/// itself, all at t = 2.  A shard's t = 2 run therefore lists its local
/// events by descending origin, then each source shard's outbox, also
/// by descending origin.  With `same_time`, the t = 2 handlers schedule
/// more t = 2 events: every receiver one callback on itself (whose key
/// may sort before or after its creator's) and every wake-up callback a
/// chain of two.
///
/// Each executed t = 2 event is recorded with its acting node, its
/// canonical key, which the script tracks exactly as the engine assigns
/// it, and the key of the t = 2 event that created it (kFromRun for the
/// run itself).
class SameTimeScript final : public ShardedSimulator::DeliverSink {
 public:
  static constexpr std::uint64_t kFromRun = ~std::uint64_t{0};
  struct Rec {
    std::int32_t node;
    std::uint64_t key;
    std::uint64_t creator;
  };

  /// The (S = 1) t = 2 run in push order, as (acting node, key): the
  /// nodes act at t = 1 in descending id order, each making its three
  /// messages and then its wake-up callback.
  static std::vector<std::pair<std::int32_t, std::uint64_t>> push_order(
      std::int32_t nodes) {
    std::vector<std::pair<std::int32_t, std::uint64_t>> pushed;
    for (std::int32_t v = nodes - 1; v >= 0; --v) {
      const std::uint64_t origin = static_cast<std::uint64_t>(v + 1) << 32;
      for (std::int32_t j = 0; j < 3; ++j) {
        pushed.emplace_back((v * 5 + j * 7 + 1) % nodes,
                            origin | static_cast<std::uint64_t>(j));
      }
      pushed.emplace_back(v, origin | 3);
    }
    return pushed;
  }

  SameTimeScript(std::int32_t nodes, std::int32_t shards, bool same_time)
      : sim_(nodes, shards),
        same_time_(same_time),
        made_(static_cast<std::size_t>(nodes), 0),
        by_shard_(static_cast<std::size_t>(sim_.num_shards())),
        by_node_(static_cast<std::size_t>(nodes)) {
    sim_.set_deliver_sink(this);
    sim_.set_lookahead(1.0);
    for (std::int32_t v = nodes - 1; v >= 0; --v) {
      sim_.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, v,
                            [this, v](std::int32_t shard) { wake(shard, v); });
    }
    sim_.run();
  }

  /// Each shard's t = 2 events in execution order.
  const std::vector<std::vector<Rec>>& by_shard() const { return by_shard_; }
  /// Each node's t = 2 event keys in execution order.
  const std::vector<std::vector<std::uint64_t>>& by_node() const {
    return by_node_;
  }

  void on_sharded_deliver(std::int32_t shard, std::int32_t /*from*/,
                          std::int32_t to, std::int32_t /*link*/,
                          std::int64_t message) override {
    const auto key = static_cast<std::uint64_t>(message);
    record(shard, to, key, kFromRun);
    if (same_time_) self_callback(shard, to, key, 0);
  }

 private:
  /// Key of the next event node `v` creates: ((origin + 1) << 32) | seq.
  std::uint64_t next_key(std::int32_t v) {
    const std::uint32_t seq = made_[static_cast<std::size_t>(v)]++;
    return (static_cast<std::uint64_t>(v + 1) << 32) | seq;
  }

  void wake(std::int32_t shard, std::int32_t v) {
    const std::int32_t n = sim_.num_nodes();
    for (std::int32_t j = 0; j < 3; ++j) {
      const std::int32_t to = (v * 5 + j * 7 + 1) % n;
      const std::uint64_t key = next_key(v);
      sim_.schedule_deliver_at(shard, 2.0, v, to, 0,
                               static_cast<std::int64_t>(key));
    }
    self_callback(shard, v, kFromRun, 2);
  }

  void self_callback(std::int32_t shard, std::int32_t v,
                     std::uint64_t creator, int chain) {
    const std::uint64_t key = next_key(v);
    sim_.schedule_node_at(shard, 2.0, v,
                          [this, v, key, creator, chain](std::int32_t sh) {
                            record(sh, v, key, creator);
                            if (same_time_ && chain > 0) {
                              self_callback(sh, v, key, chain - 1);
                            }
                          });
  }

  void record(std::int32_t shard, std::int32_t node, std::uint64_t key,
              std::uint64_t creator) {
    by_shard_[static_cast<std::size_t>(shard)].push_back({node, key, creator});
    by_node_[static_cast<std::size_t>(node)].push_back(key);
  }

  ShardedSimulator sim_;
  bool same_time_;
  std::vector<std::uint32_t> made_;  // per-node creation counters
  std::vector<std::vector<Rec>> by_shard_;
  std::vector<std::vector<std::uint64_t>> by_node_;
};

/// Replays one shard's t = 2 trace generation by generation: the run is
/// generation 0, the events a generation creates are the next one, and
/// each generation must execute whole, each node's events together and
/// in ascending key order.
void expect_generation_order(const std::vector<SameTimeScript::Rec>& trace) {
  std::multimap<std::uint64_t, std::uint64_t> created;  // creator -> key
  std::set<std::uint64_t> generation;
  for (const SameTimeScript::Rec& r : trace) {
    if (r.creator == SameTimeScript::kFromRun) {
      generation.insert(r.key);
    } else {
      created.emplace(r.creator, r.key);
    }
  }
  std::size_t at = 0;
  while (!generation.empty()) {
    ASSERT_LE(at + generation.size(), trace.size());
    std::set<std::uint64_t> ran;
    std::set<std::int32_t> done;  // nodes met so far in this generation
    for (std::size_t i = at; i < at + generation.size(); ++i) {
      ran.insert(trace[i].key);
      const bool same_node = i > at && trace[i - 1].node == trace[i].node;
      if (same_node) {
        EXPECT_LT(trace[i - 1].key, trace[i].key) << i;
      } else {
        EXPECT_TRUE(done.insert(trace[i].node).second) << "node "
            << trace[i].node << " split at " << i;
      }
    }
    EXPECT_EQ(ran, generation);
    at += generation.size();
    std::set<std::uint64_t> next;
    for (const std::uint64_t key : generation) {
      const auto [first, last] = created.equal_range(key);
      for (auto it = first; it != last; ++it) next.insert(it->second);
    }
    generation = std::move(next);
  }
  EXPECT_EQ(at, trace.size());
}

/// Runs the script at S in {1, 2, 4} x T in {1, 4}: each shard's trace
/// must be in generation order and each node's trace the same in every
/// cell.  Returns the trace of the (S = 1, T = 1) run.
std::vector<SameTimeScript::Rec> expect_canonical_in_every_cell(
    std::int32_t nodes, bool same_time, std::size_t events) {
  const int previous = core::global_thread_count();
  core::set_global_thread_count(1);
  SameTimeScript base(nodes, 1, same_time);
  for (const int threads : {1, 4}) {
    core::set_global_thread_count(threads);
    for (const std::int32_t shards : {1, 2, 4}) {
      const SameTimeScript run(nodes, shards, same_time);
      std::size_t executed = 0;
      for (const auto& trace : run.by_shard()) {
        expect_generation_order(trace);
        executed += trace.size();
      }
      EXPECT_EQ(executed, events) << "shards=" << shards;
      EXPECT_EQ(run.by_node(), base.by_node())
          << "shards=" << shards << " threads=" << threads;
    }
  }
  core::set_global_thread_count(previous);
  return base.by_shard()[0];
}

TEST(ShardedSimulator, AdversarialPushOrderRunsInCanonicalOrder) {
  // 24 nodes x (3 messages + 1 callback).  No same-time events: at one
  // shard the t = 2 run executes in push order, except that each node's
  // events run together at its first position, sorted by key — not in
  // global key order.
  const std::vector<SameTimeScript::Rec> trace =
      expect_canonical_in_every_cell(24, /*same_time=*/false, 24 * 4);
  std::vector<std::int32_t> first_seen;
  std::map<std::int32_t, std::vector<std::uint64_t>> keys;
  for (const auto& [node, key] : SameTimeScript::push_order(24)) {
    if (keys[node].empty()) first_seen.push_back(node);
    keys[node].push_back(key);
  }
  std::vector<std::uint64_t> expected;
  for (const std::int32_t node : first_seen) {
    std::ranges::sort(keys[node]);
    expected.insert(expected.end(), keys[node].begin(), keys[node].end());
  }
  std::vector<std::uint64_t> ran;
  for (const SameTimeScript::Rec& r : trace) ran.push_back(r.key);
  EXPECT_EQ(ran, expected);
  EXPECT_FALSE(std::ranges::is_sorted(ran));
}

TEST(ShardedSimulator, SameTimeEventsMergeIntoAnUnsortedRunByKey) {
  // Adds a callback per message and a chain of two per wake-up
  // callback, all at t = 2.  They run as later generations: the whole
  // unsorted run first, node by node, then what it created — also the
  // events whose key sorts below their creator's.
  const std::vector<SameTimeScript::Rec> trace =
      expect_canonical_in_every_cell(24, /*same_time=*/true, 24 * 9);
  const std::size_t run = 24 * 4;
  bool below = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].creator == SameTimeScript::kFromRun, i < run) << i;
    below |= i >= run && trace[i].key < trace[i].creator;
  }
  EXPECT_TRUE(below);  // still waits for the whole run
}

// --- Generation order against a brute-force reference ------------------

/// A random schedule for GenerationOrderMatchesReferenceOnRandomSchedules.
/// Every event is named by its canonical key, which the test assigns
/// exactly as the engine does: ((creator + 1) << 32) | creator's count of
/// events made so far, or the environment's count for env events.  What
/// an event does is a pure function of its key, so two executions agree
/// on every node's (time, key) sequence iff they agree on the order.
namespace gen_ref {

constexpr double kLookahead = 1.0;
constexpr int kMaxDepth = 4;
constexpr std::int32_t kNodes = 12;

/// One event to create: at `now + dt`, for `node`, a delivery from
/// `from` or a callback.
struct Action {
  double dt;
  std::int32_t node;
  bool deliver;
  std::int32_t from;
};

/// What an event named `key` at `node` creates: same-time callbacks and
/// self-deliveries, later local timers, and sends to any node at least
/// one lookahead later (so a send may cross shards).
std::vector<Action> children(std::uint64_t seed, std::uint64_t key,
                             std::int32_t node, int depth) {
  std::vector<Action> out;
  if (depth >= kMaxDepth) return out;
  core::Rng rng = core::Rng::stream(seed, key);
  const auto count = rng.next_below(4);
  for (std::uint64_t i = 0; i < count; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        out.push_back({0.0, node, false, node});
        break;
      case 1:
        out.push_back({0.0, node, true, node});
        break;
      case 2:
        out.push_back({0.5 * static_cast<double>(1 + rng.next_below(3)), node,
                       false, node});
        break;
      default:
        out.push_back(
            {kLookahead + 0.5 * static_cast<double>(rng.next_below(3)),
             static_cast<std::int32_t>(rng.next_below(kNodes)), true, node});
        break;
    }
  }
  return out;
}

/// The environment's part: events at setup, control events (each
/// creating events at or after its own time), and two run_until cuts,
/// each followed by more environment events at or after the cut.
struct Schedule {
  std::uint64_t seed;
  std::vector<std::pair<double, Action>> setup;  // absolute times
  std::vector<std::pair<double, std::vector<Action>>> controls;
  double cuts[2];
  std::vector<Action> after_cut[2];  // dt from the cut

  explicit Schedule(std::uint64_t s) : seed(s) {
    core::Rng rng(s);
    const auto action = [&rng](double dt) {
      const auto node = static_cast<std::int32_t>(rng.next_below(kNodes));
      const bool deliver = rng.next_bool(0.5);
      const auto from = static_cast<std::int32_t>(rng.next_below(kNodes));
      return Action{dt, node, deliver, deliver ? from : node};
    };
    for (int i = 0; i < 20; ++i) {
      setup.emplace_back(0.5 * static_cast<double>(rng.next_below(8)),
                         action(0.0));
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<Action> made;
      for (int j = 0; j < 3; ++j) {
        made.push_back(action(0.5 * static_cast<double>(rng.next_below(2))));
      }
      controls.emplace_back(0.5 * static_cast<double>(1 + rng.next_below(8)),
                            std::move(made));
    }
    cuts[0] = 0.5 * static_cast<double>(2 + rng.next_below(4));
    cuts[1] = cuts[0] + 0.5 * static_cast<double>(1 + rng.next_below(4));
    for (std::vector<Action>& added : after_cut) {
      for (int j = 0; j < 4; ++j) {
        added.push_back(action(0.5 * static_cast<double>(rng.next_below(3))));
      }
    }
  }
};

/// Per node, the (time, key) of every executed event, in order.
using Trace = std::vector<std::vector<std::pair<double, std::uint64_t>>>;

/// Runs a Schedule on the engine at S shards under a scattered owner
/// table.
class EngineRun final : public ShardedSimulator::DeliverSink {
 public:
  EngineRun(const Schedule& schedule, std::int32_t shards)
      : schedule_(schedule),
        sim_(owners(shards), shards),
        made_(kNodes, 0),
        trace_(kNodes) {
    sim_.set_deliver_sink(this);
    sim_.set_lookahead(kLookahead);
    for (const auto& [time, a] : schedule.setup) {
      create(kEnvOrigin, -1, time, a, 0);
    }
    for (const auto& [time, made] : schedule.controls) {
      sim_.schedule_control_at(time, [this, time, &made](std::int32_t) {
        for (const Action& a : made) create(kEnvOrigin, -1, time + a.dt, a, 0);
      });
    }
    for (int c = 0; c < 2; ++c) {
      const double cut = schedule.cuts[c];
      sim_.run_until(cut);
      for (const Action& a : schedule.after_cut[c]) {
        create(kEnvOrigin, -1, cut + a.dt, a, 0);
      }
    }
    sim_.run();
  }

  const Trace& trace() const { return trace_; }

  void on_sharded_deliver(std::int32_t shard, std::int32_t /*from*/,
                          std::int32_t to, std::int32_t depth,
                          std::int64_t key) override {
    execute(shard, to, static_cast<std::uint64_t>(key), depth);
  }

 private:
  static constexpr std::int32_t kEnvOrigin = ShardedSimulator::kEnvOrigin;

  static std::vector<std::int32_t> owners(std::int32_t shards) {
    std::vector<std::int32_t> owner(kNodes);
    for (std::int32_t v = 0; v < kNodes; ++v) {
      owner[static_cast<std::size_t>(v)] = (v * 5 + 3) % shards;
    }
    return owner;
  }

  void execute(std::int32_t shard, std::int32_t node, std::uint64_t key,
               int depth) {
    const double now = sim_.now(shard);
    trace_[static_cast<std::size_t>(node)].emplace_back(now, key);
    for (const Action& a : children(schedule_.seed, key, node, depth)) {
      create(shard, node, now + a.dt, a, depth + 1);
    }
  }

  /// Schedules `a` at `time` from context `ctx`, created by node
  /// `creator` (-1: the environment), with the key the engine gives it.
  void create(std::int32_t ctx, std::int32_t creator, double time,
              const Action& a, int depth) {
    const std::uint64_t key =
        creator < 0 ? env_made_++
                    : (static_cast<std::uint64_t>(creator + 1) << 32) |
                          made_[static_cast<std::size_t>(creator)]++;
    if (a.deliver) {
      sim_.schedule_deliver_at(ctx, time, a.from, a.node, depth,
                               static_cast<std::int64_t>(key));
    } else {
      sim_.schedule_node_at(ctx, time, a.node,
                            [this, node = a.node, key, depth](std::int32_t sh) {
                              execute(sh, node, key, depth);
                            });
    }
  }

  const Schedule& schedule_;
  ShardedSimulator sim_;
  std::vector<std::uint32_t> made_;  // per-node creation counts
  std::uint64_t env_made_ = 0;
  Trace trace_;
};

/// The rule itself, by brute force: one global list of pending events,
/// each run picking the smallest (time, control first, generation, key)
/// — control events by scheduling order.  An event created at its own
/// creator's time is one generation later; any other starts at 0.
Trace reference_run(const Schedule& schedule) {
  struct Pending {
    double time;
    bool control;
    std::uint64_t order;  // control: scheduling order; node: key
    int generation;
    std::int32_t node;
    int depth;
  };
  std::vector<Pending> pending;
  std::vector<std::uint32_t> made(kNodes, 0);
  std::uint64_t env_made = 0;
  Trace trace(kNodes);
  const auto create = [&](std::int32_t creator, double time, const Action& a,
                          int depth, int generation) {
    const std::uint64_t key =
        creator < 0 ? env_made++
                    : (static_cast<std::uint64_t>(creator + 1) << 32) |
                          made[static_cast<std::size_t>(creator)]++;
    pending.push_back({time, false, key, generation, a.node, depth});
  };
  const auto before = [](const Pending& a, const Pending& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.control != b.control) return a.control;
    if (a.generation != b.generation) return a.generation < b.generation;
    return a.order < b.order;
  };
  const auto run_until = [&](double deadline) {
    while (!pending.empty()) {
      const auto it = std::min_element(pending.begin(), pending.end(), before);
      if (it->time > deadline) return;
      const Pending ev = *it;
      pending.erase(it);
      if (ev.control) {
        const auto& [time, made_here] =
            schedule.controls[static_cast<std::size_t>(ev.order)];
        for (const Action& a : made_here) create(-1, time + a.dt, a, 0, 0);
        continue;
      }
      trace[static_cast<std::size_t>(ev.node)].emplace_back(ev.time, ev.order);
      for (const Action& a :
           children(schedule.seed, ev.order, ev.node, ev.depth)) {
        create(ev.node, ev.time + a.dt, a, ev.depth + 1,
               a.dt == 0.0 ? ev.generation + 1 : 0);
      }
    }
  };
  for (const auto& [time, a] : schedule.setup) create(-1, time, a, 0, 0);
  for (std::size_t c = 0; c < schedule.controls.size(); ++c) {
    pending.push_back({schedule.controls[c].first, true, c, 0, -1, 0});
  }
  for (int c = 0; c < 2; ++c) {
    const double cut = schedule.cuts[c];
    run_until(cut);
    for (const Action& a : schedule.after_cut[c]) {
      create(-1, cut + a.dt, a, 0, 0);
    }
  }
  run_until(std::numeric_limits<double>::infinity());
  return trace;
}

}  // namespace gen_ref

TEST(ShardedSimulator, GenerationOrderMatchesReferenceOnRandomSchedules) {
  // Seeded random schedules — deliveries and callbacks, cross-shard
  // sends at >= the lookahead, same-time creation chains, control events
  // and run_until cuts — must run every node's events in the reference's
  // (time, generation, key) order at every S x T cell.
  const int previous = core::global_thread_count();
  std::int64_t same_time = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const gen_ref::Schedule schedule(seed);
    const gen_ref::Trace expected = gen_ref::reference_run(schedule);
    for (const auto& node : expected) {
      for (std::size_t i = 1; i < node.size(); ++i) {
        same_time += node[i].first == node[i - 1].first ? 1 : 0;
      }
    }
    for (const int threads : {1, 4}) {
      core::set_global_thread_count(threads);
      for (const std::int32_t shards : {1, 2, 4}) {
        const gen_ref::EngineRun run(schedule, shards);
        EXPECT_EQ(run.trace(), expected)
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
  core::set_global_thread_count(previous);
  EXPECT_GT(same_time, 100);  // the schedules do exercise same-time order
}

TEST(ShardedSimulator, EventsAtACurrentTimeAlreadyDrainedRunOnce) {
  // Shard 0 runs three node-origin events at t = 2 and stops at the
  // deadline with its clock at 2.  The environment then adds three
  // events at t = 2, for nodes 0, 1, 0, whose keys sort before the three
  // already run: they join the front run at the shard's current time,
  // and only they run, each once, node 0's two together at its first
  // position in creation (key) order, followed by the same-time event
  // one of them schedules.  (The queue-level TimeQueue.FrontAt* tests
  // cover index access to a partly taken run.)
  ShardedSimulator sim(4, 2);  // shard 0: {0, 1}
  std::vector<int> order;
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, 0,
                       [&](std::int32_t shard) {
                         for (int i = 0; i < 3; ++i) {
                           sim.schedule_node_at(
                               shard, 2.0, 0,
                               [&order, i](std::int32_t) {
                                 order.push_back(10 + i);
                               });
                         }
                       });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12}));
  for (int i = 0; i < 3; ++i) {
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 2.0, i % 2,
                         [&sim, &order, i](std::int32_t shard) {
                           order.push_back(20 + i);
                           if (i != 0) return;
                           sim.schedule_node_at(shard, 2.0, 0,
                                                [&order](std::int32_t) {
                                                  order.push_back(30);
                                                });
                         });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 20, 22, 21, 30}));
  EXPECT_EQ(sim.events_processed(), 8);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ShardedSimulator, GenerationWithNoRepeatedNodeRunsInPushOrder) {
  // At t = 1 nodes 7, 6, ..., 0 act in that order and each schedules one
  // callback at t = 2 on node (3v + 1) mod 8, a permutation.  The t = 2
  // run holds each node once, with descending keys and nodes out of
  // order: it runs exactly in push order, not in key order.
  ShardedSimulator sim(8, 1);
  std::vector<std::int32_t> order;
  for (std::int32_t v = 7; v >= 0; --v) {
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 1.0, v,
                         [&sim, &order, v](std::int32_t shard) {
                           const std::int32_t to = (3 * v + 1) % 8;
                           sim.schedule_node_at(shard, 2.0, to,
                                                [&order, to](std::int32_t) {
                                                  order.push_back(to);
                                                });
                         });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::int32_t>{6, 3, 0, 5, 2, 7, 4, 1}));
}

TEST(ShardedSimulator, RepeatedNodeEventsRunInKeyOrder) {
  // At t = 1 nodes 5, 2, 7 act in that order and schedule t = 2
  // callbacks on nodes 0 and 4, tagged (origin, seq).  Push order at
  // t = 2 is 0:5.0, 4:5.1, 0:5.2, 0:2.0, 0:2.1, 4:7.0, 0:7.1.  Node 0's
  // five events run together at its first position, by key (origin,
  // then seq), and node 4's two after them.
  ShardedSimulator sim(8, 1);
  std::vector<std::pair<std::int32_t, int>> order;  // (node, origin*10+seq)
  const std::vector<std::pair<std::int32_t, std::vector<std::int32_t>>>
      script = {{5, {0, 4, 0}}, {2, {0, 0}}, {7, {4, 0}}};
  for (const auto& [origin, targets] : script) {
    sim.schedule_node_at(
        ShardedSimulator::kEnvOrigin, 1.0, origin,
        [&sim, &order, origin, &targets](std::int32_t shard) {
          for (std::size_t seq = 0; seq < targets.size(); ++seq) {
            const std::int32_t to = targets[seq];
            const int tag = origin * 10 + static_cast<int>(seq);
            sim.schedule_node_at(shard, 2.0, to,
                                 [&order, to, tag](std::int32_t) {
                                   order.emplace_back(to, tag);
                                 });
          }
        });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::pair<std::int32_t, int>>{
                       {0, 20}, {0, 21}, {0, 50}, {0, 52}, {0, 71},
                       {4, 51}, {4, 70}}));
}

TEST(ShardedSimulator, RunWithEmptyShardsDrainsAndLeavesNothingPending) {
  // Shards 1, 2 and 4 own no node; deliveries hop between shards 0 and
  // 3 across barriers, and the idle lanes must neither stall nor keep
  // anything queued.
  struct PerShardSink : ShardedSimulator::DeliverSink {
    std::vector<std::vector<std::int32_t>> received{5};  // lane-owned
    void on_sharded_deliver(std::int32_t shard, std::int32_t /*from*/,
                            std::int32_t to, std::int32_t /*link*/,
                            std::int64_t /*message*/) override {
      received[static_cast<std::size_t>(shard)].push_back(to);
    }
  };
  ShardedSimulator sim({0, 0, 3, 3}, 5);
  PerShardSink sink;
  sim.set_deliver_sink(&sink);
  sim.set_lookahead(1.0);
  for (std::int32_t node = 0; node < 4; ++node) {
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.5 * node, node,
                         [&sim, node](std::int32_t shard) {
                           sim.schedule_deliver_at(shard, sim.now(shard) + 1.0,
                                                   node, 3 - node, node, node);
                         });
  }
  int controls = 0;
  sim.schedule_control_at(1.0, [&](std::int32_t) { ++controls; });
  sim.run_until(1.2);
  EXPECT_GT(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(controls, 1);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 4 + 4 + 1);
  EXPECT_EQ(sink.received[0], (std::vector<std::int32_t>{1, 0}));
  EXPECT_EQ(sink.received[3], (std::vector<std::int32_t>{3, 2}));
  for (const std::size_t idle : {1u, 2u, 4u}) {
    EXPECT_TRUE(sink.received[idle].empty());
  }
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
  EXPECT_EQ(a.net, b.net);
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

TEST(ShardedFlood, ImplicitBackendShardThreadSweepParallelDeterminism) {
  // The same matrix on the storage-free view, whose sharded runs use
  // its subtree partition (ImplicitLhg::shard_owners) instead of id
  // blocks.  Under one crash, flap and partition plan, chaos-free runs
  // must equal the single queue and chaotic runs sharded S=1.
  const int previous = core::global_thread_count();
  for (const std::int64_t n : {12, 200, 4096}) {
    const ImplicitLhg view(n, 4);
    const core::Graph g = view.materialize();
    core::Rng plan_rng(37);
    FailurePlan plan = random_crash_recoveries(g, 3, /*protect=*/0, plan_rng,
                                               /*crash_time=*/2.0,
                                               /*downtime=*/4.0);
    compose(plan, random_link_flaps(g, 2, plan_rng, /*down=*/1.0,
                                    /*up=*/6.0));
    compose(plan, random_partition(g, plan_rng, /*start=*/2.0, /*end=*/5.0));

    core::set_global_thread_count(1);
    std::vector<std::pair<FloodConfig, DisseminationResult>> golden;
    for (const LatencySpec latency :
         {LatencySpec::fixed(1.0), LatencySpec::per_link(1.0, 0.5)}) {
      FloodConfig cfg;
      cfg.source = 0;
      cfg.seed = 41;
      cfg.latency = latency;
      golden.emplace_back(cfg, flood(view, cfg, plan));
    }
    FloodConfig chaos_cfg = chaos_config();
    chaos_cfg.shards = 1;
    const DisseminationResult chaos_base =
        sharded_flood(view, chaos_cfg, plan);
    if (n >= 200) {
      EXPECT_GT(chaos_base.net.lost, 0) << n;
    }

    for (const int threads : {1, 4}) {
      core::set_global_thread_count(threads);
      for (const std::int32_t shards : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " shards=" << shards
                                        << " threads=" << threads);
        for (const auto& [cfg, serial] : golden) {
          FloodConfig sweep = cfg;
          sweep.shards = shards;
          const DisseminationResult got = sharded_flood(view, sweep, plan);
          expect_results_equal(serial, got);
        }
        FloodConfig sweep = chaos_cfg;
        sweep.shards = shards;
        const DisseminationResult got = sharded_flood(view, sweep, plan);
        expect_results_equal(chaos_base, got);
        EXPECT_EQ(chaos_base.metrics.to_json(), got.metrics.to_json());
      }
    }
  }
  core::set_global_thread_count(previous);
}

/// Each node's subsequence of a trace, the node being the one whose
/// handler recorded the event: the receiver for a drop at delivery, the
/// recorded node for everything else.
std::map<NodeId, std::vector<obs::TraceEvent>> per_node_trace(
    const obs::TraceLog& log) {
  std::map<NodeId, std::vector<obs::TraceEvent>> per_node;
  for (const obs::TraceEvent& e : log.events) {
    const auto cause = static_cast<obs::DropCause>(e.detail);
    const bool at_delivery =
        e.kind == obs::TraceKind::kDrop &&
        (cause == obs::DropCause::kReceiverCrashed ||
         cause == obs::DropCause::kLinkDown ||
         cause == obs::DropCause::kPartition);
    per_node[at_delivery ? e.peer : e.node].push_back(e);
  }
  return per_node;
}

TEST(ShardedFlood, TracedChaoticFloodPerNodeTraceIsShardInvariant) {
  // The merged trace interleaves different nodes' same-time events by
  // push order and shard, which depend on S; each node's subsequence
  // must not.  Fixed latency, so nodes take several copies at one
  // timestamp, under chaos and a crash, flap and partition plan.
  const auto g = lhg::build(64, 4);
  const FailurePlan plan = chaos_plan(g);
  FloodConfig cfg = chaos_config();
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 16;
  const int previous = core::global_thread_count();
  cfg.shards = 1;
  core::set_global_thread_count(1);
  const DisseminationResult base = sharded_flood(g, cfg, plan);
  ASSERT_EQ(base.trace.dropped, 0);
  const auto expected = per_node_trace(base.trace);
  ASSERT_EQ(expected.size(), 64u);
  bool merged_moved = false;
  for (const int threads : {1, 4}) {
    core::set_global_thread_count(threads);
    for (const std::int32_t shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      FloodConfig sweep = cfg;
      sweep.shards = shards;
      const DisseminationResult got = sharded_flood(g, sweep, plan);
      expect_results_equal(base, got);
      ASSERT_EQ(got.trace.dropped, 0);
      ASSERT_EQ(got.trace.events.size(), base.trace.events.size());
      const auto per_node = per_node_trace(got.trace);
      for (const auto& [node, events] : expected) {
        const auto it = per_node.find(node);
        ASSERT_NE(it, per_node.end()) << "node " << node;
        ASSERT_EQ(it->second.size(), events.size()) << "node " << node;
        for (std::size_t i = 0; i < events.size(); ++i) {
          const obs::TraceEvent& a = events[i];
          const obs::TraceEvent& b = it->second[i];
          EXPECT_TRUE(a.time == b.time && a.kind == b.kind &&
                      a.node == b.node && a.peer == b.peer &&
                      a.detail == b.detail)
              << "node " << node << " event " << i;
        }
      }
      for (std::size_t i = 0; i < got.trace.events.size(); ++i) {
        merged_moved |= got.trace.events[i].node != base.trace.events[i].node;
      }
    }
  }
  core::set_global_thread_count(previous);
  EXPECT_TRUE(merged_moved);  // the merged order itself does depend on S
}

TEST(ShardedFlood, PerLinkChaosMatchesSingleQueue) {
  // Both networks draw the channel from the same per-arc streams.  With
  // per-link latency no node runs two events at one timestamp, so a
  // lossy, duplicating run under crashes, flaps and a partition is
  // draw-for-draw the same on the single queue and at every S x T.
  const ImplicitLhg view(4096, 4);
  const core::Graph g = view.materialize();
  core::Rng plan_rng(43);
  FailurePlan plan = random_crash_recoveries(g, 3, /*protect=*/0, plan_rng,
                                             /*crash_time=*/2.0,
                                             /*downtime=*/4.0);
  compose(plan, random_link_flaps(g, 2, plan_rng, /*down=*/1.0, /*up=*/6.0));
  compose(plan, random_partition(g, plan_rng, /*start=*/2.0, /*end=*/5.0));
  FloodConfig cfg;
  cfg.source = 0;
  cfg.seed = 47;
  cfg.latency = LatencySpec::per_link(1.0, 0.5);
  cfg.chaos = ChaosSpec::iid(0.1);
  cfg.chaos.duplicate = 0.05;

  const int previous = core::global_thread_count();
  core::set_global_thread_count(1);
  const DisseminationResult single = flood(view, cfg, plan);
  EXPECT_GT(single.net.lost, 0);
  EXPECT_GT(single.net.duplicated, 0);
  EXPECT_GT(single.net.blocked_partition + single.net.dropped_partition, 0);
  for (const int threads : {1, 4}) {
    core::set_global_thread_count(threads);
    for (const std::int32_t shards : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " threads=" << threads);
      FloodConfig sweep = cfg;
      sweep.shards = shards;
      expect_results_equal(single, sharded_flood(view, sweep, plan));
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

// Pins the exact chaos draw order on both engines: bursty loss in both
// GE states, duplication, reordering and per-send latency over a crash,
// flap and partition plan.  Both engines draw from the same per-arc
// streams, and no node here runs two events at one timestamp, so the
// single queue and S=1 and S=4 share one pin.  Moving any draw in the
// shared channel code changes these numbers.
TEST(ShardedFlood, ChaosDrawOrderPinnedOnBothEngines) {
  const auto g = lhg::build(64, 4);
  core::Rng plan_rng(29);
  FailurePlan plan = random_crash_recoveries(g, 3, /*protect=*/0, plan_rng,
                                             /*crash_time=*/1.5,
                                             /*downtime=*/3.0);
  compose(plan, random_link_flaps(g, 4, plan_rng, /*down=*/1.0, /*up=*/4.0));
  compose(plan, random_partition(g, plan_rng, /*start=*/2.0, /*end=*/3.5));
  FloodConfig cfg;
  cfg.source = 0;
  cfg.seed = 31;
  cfg.latency = LatencySpec::per_send(0.5, 1.0);
  cfg.chaos = ChaosSpec::bursty(0.1, 0.3, 0.4);
  cfg.chaos.ge_loss_good = 0.02;
  cfg.chaos.duplicate = 0.1;
  cfg.chaos.reorder = 0.2;
  cfg.chaos.reorder_jitter = 0.8;
  const auto delivery_time_sum = [](const DisseminationResult& r) {
    double sum = 0.0;
    for (const double t : r.delivery_time) {
      if (t >= 0.0) sum += t;
    }
    return sum;
  };

  const auto expect_pin = [&](const DisseminationResult& run) {
    EXPECT_EQ(run.net, (NetworkStats{.sent = 186,
                                     .delivered = 185,
                                     .lost = 7,
                                     .duplicated = 19,
                                     .blocked_sender_crashed = 0,
                                     .blocked_link_down = 1,
                                     .blocked_partition = 14,
                                     .dropped_receiver_crashed = 4,
                                     .dropped_link_down = 0,
                                     .dropped_partition = 9}));
    EXPECT_EQ(delivery_time_sum(run), 0x1.817f440328c42p+8);
  };

  {
    SCOPED_TRACE("single queue");
    expect_pin(flood(g, cfg, plan));
  }
  for (const std::int32_t shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    FloodConfig sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    expect_pin(sharded_flood(g, sharded_cfg, plan));
  }
}

TEST(ShardedSimulator, BackToBackRunsSharePooledSegments) {
  // Every queue and outbox hands its blocks back to the process-wide
  // segment pool when its engine goes, so floods run back to back at
  // S=4 x T=4 carve no new block after the first one, and every run
  // still equals the single queue bit for bit.
  const ImplicitLhg view(50000, 4);
  FloodConfig cfg;
  cfg.source = 0;
  cfg.seed = 23;
  const int previous = core::global_thread_count();
  core::set_global_thread_count(1);
  const DisseminationResult single = flood(view, cfg);
  core::set_global_thread_count(4);
  FloodConfig sharded_cfg = cfg;
  sharded_cfg.shards = 4;
  expect_results_equal(single, sharded_flood(view, sharded_cfg));
  const std::int64_t created = SegmentPool::instance().blocks_created();
  EXPECT_GT(created, 0);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(testing::Message() << "run=" << run);
    expect_results_equal(single, sharded_flood(view, sharded_cfg));
    EXPECT_EQ(SegmentPool::instance().blocks_created(), created);
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

TEST(ShardedNetworkT, EmptyObsTapListDisablesRecording) {
  // set_obs({}) after real taps must stop the recording, as documented,
  // while the NetworkStats still count.
  const auto g = lhg::build(16, 3);
  ShardedSimulator sim(g.num_nodes(), 2);
  core::Rng rng(1);
  ShardedNetwork<core::Graph> net(g, sim, LatencySpec::fixed(1.0), rng,
                                  ChaosSpec::none());
  obs::ObsConfig config;
  config.metrics = true;
  obs::Runtime rt(config, sim.num_shards());
  net.set_obs(rt.shard_obs());
  net.set_obs({});
  const NodeId to = g.neighbors(0)[0];
  sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, 0,
                       [&](std::int32_t shard) { net.send(shard, 0, to, 1); });
  sim.run();
  EXPECT_EQ(net.stats().sent, 1);
  EXPECT_EQ(net.stats().delivered, 1);
  const obs::Snapshot snapshot = rt.metrics_snapshot();
  const obs::MetricSample* sent = snapshot.find("net.sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, 0);
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

TEST(ShardedNetworkT, LookaheadIsMinOverTheTreePartitionsCrossArcs) {
  const ImplicitLhg view(4096, 4);
  const LatencySpec latency = LatencySpec::per_link(1.0, 0.5);
  // The network draws its per-link table from the caller's generator
  // in canonical edge order; a second generator with the same seed
  // reproduces it.
  core::Rng table_rng(7);
  std::vector<double> table(static_cast<std::size_t>(view.num_edges()));
  for (double& l : table) l = latency.base + latency.jitter * table_rng.next_double();

  // Brute force: the minimum floor over arcs that cross `owner`, where
  // a per-link arc's floor is its table entry and every other kind's
  // is `base`.
  const auto cross_min = [&](const std::vector<std::int32_t>& owner,
                             const LatencySpec& spec) {
    double best = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < view.num_nodes(); ++u) {
      for (std::int32_t i = 0; i < view.degree(u); ++i) {
        if (owner[static_cast<std::size_t>(u)] ==
            owner[static_cast<std::size_t>(view.neighbor(u, i))]) {
          continue;
        }
        const double floor =
            spec.kind == LatencySpec::Kind::kUniformPerLink
                ? table[static_cast<std::size_t>(view.incident_edge(u, i))]
                : spec.base;
        best = std::min(best, floor);
      }
    }
    return best;
  };
  // Few arcs cross the tree partition, so their minimum sits above the
  // minimum over all arcs: the lookahead really is the cut's.
  const std::vector<std::int32_t> dealt = view.shard_owners(4);
  const double all_min = *std::min_element(table.begin(), table.end());
  ASSERT_GT(cross_min(dealt, latency), all_min);

  // Every latency kind on the dealt and the block partition, and at one
  // shard, where no arc crosses and the windows are unbounded.
  for (const LatencySpec spec :
       {latency, LatencySpec::fixed(2.0), LatencySpec::per_send(1.5, 0.5)}) {
    for (const std::int32_t shards : {4, 1}) {
      for (const bool blocks : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "kind=" << static_cast<int>(spec.kind)
                     << " shards=" << shards << " blocks=" << blocks);
        const auto sim =
            blocks ? std::make_unique<ShardedSimulator>(
                         static_cast<std::int32_t>(view.num_nodes()), shards)
                   : std::make_unique<ShardedSimulator>(
                         view.shard_owners(shards), shards);
        std::vector<std::int32_t> owner(
            static_cast<std::size_t>(view.num_nodes()));
        for (NodeId v = 0; v < view.num_nodes(); ++v) {
          owner[static_cast<std::size_t>(v)] = sim->shard_of(v);
        }
        const double expected = cross_min(owner, spec);
        EXPECT_EQ(expected == std::numeric_limits<double>::infinity(),
                  shards == 1);
        core::Rng rng(7);
        ShardedNetwork<ImplicitLhg> net(view, *sim, spec, rng,
                                        ChaosSpec::none());
        EXPECT_EQ(net.min_cross_shard_latency(), expected);
        EXPECT_EQ(sim->lookahead(), expected);
      }
    }
  }
}

}  // namespace
}  // namespace lhg::flooding
