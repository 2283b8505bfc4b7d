// Tests for the discrete-event simulator and its radix time queue.

#include "flooding/event_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "flooding/segment_pool.h"
#include "flooding/time_queue.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace lhg::flooding {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMore) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator sim;
  double observed = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsPastAndInvalid) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(3.0, std::function<void()>{}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
}

TEST(Simulator, ManyEventsStayConsistent) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 999; i >= 0; --i) {
    sim.schedule_at(static_cast<double>(i), [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      (void)i;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_processed(), 1000);
}

// --- Typed deliver events -------------------------------------------

struct RecordingSink : Simulator::DeliverSink {
  struct Row {
    std::int32_t from, to, link;
    std::int64_t message;
    double time;
  };
  explicit RecordingSink(Simulator& simulator) : sim(&simulator) {}
  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t message) override {
    rows.push_back({from, to, link, message, sim->now()});
  }
  Simulator* sim;
  std::vector<Row> rows;
};

TEST(Simulator, DeliverEventsCarryArgumentsVerbatim) {
  Simulator sim;
  RecordingSink sink(sim);
  sim.schedule_deliver_at(2.5, &sink, 3, 4, 17, 0x1234567890abcdef);
  sim.schedule_deliver_in(1.0, &sink, 1, 2, 0, -5);
  sim.run();
  ASSERT_EQ(sink.rows.size(), 2u);
  EXPECT_EQ(sink.rows[0].from, 1);
  EXPECT_EQ(sink.rows[0].to, 2);
  EXPECT_EQ(sink.rows[0].link, 0);
  EXPECT_EQ(sink.rows[0].message, -5);
  EXPECT_DOUBLE_EQ(sink.rows[0].time, 1.0);
  EXPECT_EQ(sink.rows[1].from, 3);
  EXPECT_EQ(sink.rows[1].to, 4);
  EXPECT_EQ(sink.rows[1].link, 17);
  EXPECT_EQ(sink.rows[1].message, 0x1234567890abcdef);
  EXPECT_DOUBLE_EQ(sink.rows[1].time, 2.5);
  EXPECT_EQ(sim.events_processed(), 2);
}

TEST(Simulator, DeliverAndCallbackEventsInterleaveByInsertionOrder) {
  Simulator sim;
  RecordingSink sink(sim);
  std::vector<int> order;
  sim.schedule_deliver_at(1.0, &sink, 0, 1, 0, 100);
  sim.schedule_at(1.0, [&] { order.push_back(static_cast<int>(sink.rows.size())); });
  sim.schedule_deliver_at(1.0, &sink, 1, 2, 1, 200);
  sim.run();
  // Callback ran between the two deliveries (insertion-seq tie-break).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1);
  ASSERT_EQ(sink.rows.size(), 2u);
  EXPECT_EQ(sink.rows[0].message, 100);
  EXPECT_EQ(sink.rows[1].message, 200);
}

TEST(Simulator, SecondDeliverSinkIsRejected) {
  // The first schedule_deliver_* latches the sink; another one fails
  // the contract and queues nothing.
  Simulator sim;
  RecordingSink first(sim);
  RecordingSink second(sim);
  sim.schedule_deliver_at(1.0, &first, 0, 1, 0, 10);
  EXPECT_THROW(sim.schedule_deliver_at(1.0, &second, 0, 1, 0, 20),
               std::invalid_argument);
  EXPECT_EQ(sim.pending(), 1u);
  sim.schedule_deliver_in(2.0, &first, 1, 0, 0, 30);
  EXPECT_EQ(sim.pending_deliveries(), 2);
  sim.run();
  ASSERT_EQ(first.rows.size(), 2u);
  EXPECT_EQ(first.rows[0].message, 10);
  EXPECT_EQ(first.rows[1].message, 30);
  EXPECT_TRUE(second.rows.empty());
}

// --- Slab storage: zero allocations in steady state -----------------

TEST(Simulator, DeliverPathNeverTouchesTheSlab) {
  // A self-sustaining chain: each delivery schedules the next.  The
  // per-message path carries its payload inside the heap item, so no
  // slab slot and no callback heap allocation may ever happen.
  Simulator sim;
  std::int64_t hops = 0;
  struct ChainSink : Simulator::DeliverSink {
    Simulator* sim = nullptr;
    std::int64_t* hops = nullptr;
    void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                    std::int64_t) override {
      if (++*hops < 10000) sim->schedule_deliver_in(1.0, this, from, to, link, *hops);
    }
  } chain;
  chain.sim = &sim;
  chain.hops = &hops;
  sim.schedule_deliver_at(0.0, &chain, 0, 1, 0, 0);
  sim.run();
  EXPECT_EQ(hops, 10000);
  EXPECT_EQ(sim.slots_created(), 0);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

TEST(Simulator, SlabRecyclesCallbackSlotsInSteadyState) {
  // A self-sustaining callback chain: the queue never holds more than a
  // handful of events, so after warm-up the slab must stop growing no
  // matter how many events flow.
  Simulator sim;
  std::int64_t fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10000) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run_until(100.0);  // warm up
  const std::int64_t high_water = sim.slots_created();
  EXPECT_GT(high_water, 0);
  sim.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.slots_created(), high_water)
      << "steady-state callbacks must recycle slab slots, not allocate";
}

TEST(Simulator, SmallCapturesStayInline) {
  Simulator sim;
  // 40 bytes of capture: inside kInlineCallbackCapacity, so no heap.
  std::int64_t a = 1, b = 2, c = 3, d = 4;
  double sum = 0.0;
  double* out = &sum;
  sim.schedule_at(1.0, [a, b, c, d, out] {
    *out = static_cast<double>(a + b + c + d);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

TEST(Simulator, OversizedCapturesFallBackToHeapAndStillRun) {
  Simulator sim;
  struct Big {
    double payload[16];  // 128 bytes: over the inline budget
  };
  Big big{};
  big.payload[7] = 42.0;
  double seen = 0.0;
  sim.schedule_at(1.0, [big, &seen] { seen = big.payload[7]; });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.0);
  EXPECT_EQ(sim.callback_heap_allocations(), 1);
}

TEST(Simulator, DestructorReleasesQueuedCallbacks) {
  // A shared_ptr captured by a never-executed callback must still be
  // released at simulator teardown (the destroy path, not the invoke
  // path).
  auto token = std::make_shared<int>(5);
  {
    Simulator sim;
    sim.schedule_at(1.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- Monotone-time contract ------------------------------------------

TEST(Simulator, DeliverIntoThePastFailsTheDebugContract) {
  // The per-message path checks with LHG_DCHECK, which this test binary
  // keeps on.
  Simulator sim;
  RecordingSink sink(sim);
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_deliver_at(1.0, &sink, 0, 1, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_deliver_at(std::nan(""), &sink, 0, 1, 0, 0),
               std::invalid_argument);
}

TEST(Simulator, RunUntilLeavesTheGapBeforeTheNextEventSchedulable) {
  // run_until(5) must not advance the queue to the next pending time
  // (10): scheduling in [5, 10) afterwards is legal and runs in order.
  Simulator sim;
  std::vector<double> order;
  const auto record = [&] { order.push_back(sim.now()); };
  sim.schedule_at(1.0, record);
  sim.schedule_at(10.0, record);
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.schedule_at(7.0, record);
  sim.schedule_at(5.0, record);
  sim.schedule_at(9.5, record);
  EXPECT_THROW(sim.schedule_at(4.0, record), std::invalid_argument);
  sim.run();
  EXPECT_EQ(order, (std::vector<double>{1.0, 5.0, 7.0, 9.5, 10.0}));
}

TEST(Simulator, RunUntilAtAnEventTimeKeepsThatTimeSchedulable) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(1); });
  sim.schedule_at(4.0, [&] { order.push_back(3); });
  sim.run_until(3.0);
  sim.schedule_at(3.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // After a full run, now() stays schedulable too.
  sim.schedule_at(sim.now(), [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, RunUntilRejectsNaNAndIgnoresNegativeDeadlines) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(0.0, [&] { ++fired; });
  sim.run_until(-1.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_THROW(sim.run_until(std::nan("")), std::invalid_argument);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NegativeZeroIsTheSameTimeAsZero) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(0.0, [&] { order.push_back(1); });
  sim.schedule_at(-0.0, [&] { order.push_back(2); });
  sim.schedule_at(0.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // one timestamp, FIFO
  EXPECT_FALSE(std::signbit(sim.now()));
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, RunLeavesEveryQueueBucketEmpty) {
  // Times spread over many radix buckets, equal-time runs, zero-delay
  // chains and a run_until cut: run() ends with its own invariant check
  // (pending() == 0 and every bucket empty), which must hold.
  Simulator sim;
  std::int64_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    const double t = std::ldexp(1.0 + i % 7, i % 40 - 20);
    sim.schedule_at(t, [&sim, &fired] {
      ++fired;
      sim.schedule_in(0.0, [&fired] { ++fired; });
    });
  }
  sim.run_until(1.0);
  EXPECT_GT(sim.pending(), 0u);
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fired, 400);
}

TEST(Simulator, BucketEventsHistogramCountsEventsPerTimestamp) {
  // Pushes alternating between two times: five events, two timestamps.
  obs::Registry registry;
  const obs::SimObs tap(&registry, nullptr);
  Simulator sim;
  sim.set_obs(&tap);
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0 + i % 2, [] {});
  sim.run();
  const obs::Snapshot snapshot = registry.snapshot();
  const obs::MetricSample* hist = snapshot.find("sim.bucket_events");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2);  // one sample per drained timestamp
  EXPECT_EQ(hist->sum, 5);
}

// --- TimeQueue ---------------------------------------------------------

TEST(TimeQueue, KeysOrderLikeTimesAndMergeTheZeros) {
  using Q = TimeQueue<int>;
  EXPECT_EQ(Q::key_of(-0.0), Q::key_of(0.0));
  EXPECT_EQ(Q::key_of(0.0), 0u);
  const double times[] = {0.0, 5e-324, 1e-300, 0.5, 1.0, 1.0 + 1e-15, 2.0,
                          1e300, INFINITY};
  for (std::size_t i = 1; i < std::size(times); ++i) {
    EXPECT_LT(Q::key_of(times[i - 1]), Q::key_of(times[i])) << times[i];
    EXPECT_EQ(Q::time_of(Q::key_of(times[i])), times[i]);
  }
}

TEST(TimeQueue, PushBelowTheCurrentKeyFailsTheContract) {
  TimeQueue<int> q;
  q.push(TimeQueue<int>::key_of(2.0), 1);
  ASSERT_TRUE(q.advance(TimeQueue<int>::kNoKey));
  EXPECT_THROW(q.push(TimeQueue<int>::key_of(1.0), 2), std::invalid_argument);
  q.push(TimeQueue<int>::key_of(2.0), 3);  // the current key itself is fine
  EXPECT_EQ(q.size(), 2u);
}

TEST(TimeQueue, AdvanceStopsAtTheLimitWithoutMovingTheCurrentKey) {
  using Q = TimeQueue<int>;
  Q q;
  q.push(Q::key_of(1.0), 1);
  q.push(Q::key_of(10.0), 2);
  ASSERT_TRUE(q.advance(Q::key_of(5.0)));
  EXPECT_EQ(q.pop_front().payload, 1);
  EXPECT_FALSE(q.advance(Q::key_of(5.0)));
  EXPECT_EQ(q.current_key(), Q::key_of(1.0));
  EXPECT_EQ(q.min_key(), Q::key_of(10.0));
  q.push(Q::key_of(1.0), 3);  // at the current key: front run
  EXPECT_EQ(q.min_key(), Q::key_of(1.0));
  ASSERT_TRUE(q.advance(Q::key_of(5.0)));
  EXPECT_EQ(q.pop_front().payload, 3);
  ASSERT_TRUE(q.advance(Q::kNoKey));
  EXPECT_EQ(q.pop_front().payload, 2);
  EXPECT_FALSE(q.advance(Q::kNoKey));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.min_key(), Q::kNoKey);
}

TEST(TimeQueue, FrontAtReadsPushOrderAcrossSegmentBoundaries) {
  using Q = TimeQueue<int>;
  Q q;
  constexpr int kItems = 1000;  // more than one segment
  static_assert(kItems > Q::kSegmentItems);
  for (int i = 0; i < kItems; ++i) q.push(Q::key_of(3.0), i);
  q.push(Q::key_of(4.0), -1);
  ASSERT_TRUE(q.advance(Q::kNoKey));
  ASSERT_EQ(q.front_size(), std::size_t{kItems});
  EXPECT_EQ(q.front_taken(), 0u);
  for (int i = kItems - 1; i >= 0; --i) {  // any order
    EXPECT_EQ(q.front_at(static_cast<std::size_t>(i)).payload, i);
    EXPECT_EQ(q.front_at(static_cast<std::size_t>(i)).key, Q::key_of(3.0));
  }
  q.take_front(q.front_size());
  EXPECT_TRUE(q.front_empty());
  EXPECT_EQ(q.front_taken(), std::size_t{kItems});
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.advance(Q::kNoKey));
  EXPECT_EQ(q.front_size(), 1u);
  EXPECT_EQ(q.pop_front().payload, -1);
  EXPECT_FALSE(q.advance(Q::kNoKey));
  EXPECT_TRUE(q.empty());
}

TEST(TimeQueue, FrontAtOnAPartlyTakenRun) {
  using Q = TimeQueue<int>;
  Q q;
  for (int i = 0; i < 600; ++i) q.push(Q::key_of(1.0), i);
  ASSERT_TRUE(q.advance(Q::kNoKey));
  for (int i = 0; i < 300; ++i) ASSERT_EQ(q.pop_front().payload, i);
  EXPECT_EQ(q.front_taken(), 300u);
  EXPECT_EQ(q.front_size(), 600u);
  EXPECT_EQ(q.size(), 300u);
  for (std::size_t i = q.front_taken(); i < q.front_size(); ++i) {
    EXPECT_EQ(q.front_at(i).payload, static_cast<int>(i));
  }
  EXPECT_EQ(q.front().payload, 300);  // reading by position took nothing
  q.take_front(q.front_size());
  EXPECT_TRUE(q.front_empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.advance(Q::kNoKey));
  EXPECT_TRUE(q.empty());
}

TEST(TimeQueue, PushAtTheCurrentKeyAfterTakeFrontIsPopped) {
  // Run lengths on both sides of a segment boundary: after take_front()
  // the read cursor sits at the tail, inside a segment or at its end.
  using Q = TimeQueue<int>;
  constexpr int kSeg = static_cast<int>(Q::kSegmentItems);
  for (const int run :
       {1, 255, 256, 257, 512, kSeg - 1, kSeg, kSeg + 1, 2 * kSeg}) {
    Q q;
    for (int i = 0; i < run; ++i) q.push(Q::key_of(2.0), i);
    q.push(Q::key_of(5.0), -5);
    ASSERT_TRUE(q.advance(Q::kNoKey));
    q.take_front(q.front_size());
    ASSERT_TRUE(q.front_empty()) << run;
    q.push(Q::key_of(2.0), 1000);
    q.push(Q::key_of(2.0), 1001);
    EXPECT_FALSE(q.front_empty()) << run;
    EXPECT_EQ(q.size(), 3u) << run;
    EXPECT_EQ(q.min_key(), Q::key_of(2.0)) << run;
    ASSERT_TRUE(q.advance(Q::key_of(2.0))) << run;
    EXPECT_EQ(q.current_key(), Q::key_of(2.0)) << run;
    EXPECT_EQ(q.front_taken(), static_cast<std::size_t>(run)) << run;
    EXPECT_EQ(q.front_at(static_cast<std::size_t>(run)).payload, 1000) << run;
    EXPECT_EQ(q.pop_front().payload, 1000) << run;
    EXPECT_EQ(q.pop_front().payload, 1001) << run;
    EXPECT_TRUE(q.front_empty()) << run;
    ASSERT_TRUE(q.advance(Q::kNoKey)) << run;
    EXPECT_EQ(q.pop_front().payload, -5) << run;
    EXPECT_FALSE(q.advance(Q::kNoKey)) << run;
    EXPECT_TRUE(q.empty()) << run;
  }
}

TEST(TimeQueue, TakeFrontLeavesItemsPushedDuringTheBatchUntaken) {
  // A caller reading the run [0, 300) by position pushes two items at
  // the current key meanwhile: take_front(300) marks only the batch,
  // so the two are the next batch, on both sides of a segment boundary.
  using Q = TimeQueue<int>;
  constexpr int kSeg = static_cast<int>(Q::kSegmentItems);
  for (const int run : {255, 256, 300, kSeg - 1, kSeg, kSeg + 1}) {
    Q q;
    for (int i = 0; i < run; ++i) q.push(Q::key_of(1.0), i);
    ASSERT_TRUE(q.advance(Q::kNoKey));
    const std::size_t end = q.front_size();
    q.push(Q::key_of(1.0), 1000);
    q.push(Q::key_of(1.0), 1001);
    q.take_front(end);
    EXPECT_EQ(q.front_taken(), end) << run;
    EXPECT_EQ(q.size(), 2u) << run;
    ASSERT_TRUE(q.advance(Q::kNoKey)) << run;
    EXPECT_EQ(q.front_size(), end + 2) << run;
    EXPECT_EQ(q.pop_front().payload, 1000) << run;
    EXPECT_EQ(q.pop_front().payload, 1001) << run;
    EXPECT_FALSE(q.advance(Q::kNoKey)) << run;
    EXPECT_TRUE(q.empty()) << run;
  }
}

TEST(TimeQueue, SecondQueueReusesPooledSegments) {
  // A queue hands every segment back to the process-wide pool when it
  // goes, so a second queue running the same schedule carves no block.
  using Q = TimeQueue<int>;
  const auto run_schedule = [] {
    Q q;
    for (int i = 0; i < 20000; ++i) {
      q.push(Q::key_of(0.5 + (i * 7919) % 100), i);
    }
    int popped = 0;
    while (q.advance(Q::kNoKey)) {
      while (!q.front_empty()) {
        const int id = q.pop_front().payload;
        if (id < 10000) {
          q.push(Q::key_of(Q::time_of(q.current_key()) + 1.0), id + 20000);
        }
        ++popped;
      }
    }
    return popped;
  };
  EXPECT_EQ(run_schedule(), 30000);
  const std::int64_t created = SegmentPool::instance().blocks_created();
  EXPECT_GT(created, 0);
  EXPECT_EQ(run_schedule(), 30000);
  EXPECT_EQ(SegmentPool::instance().blocks_created(), created);
}

TEST(TimeQueue, ReadingARecycledSegmentTripsAsan) {
  // A vacant block is poisoned, so a reference into a destroyed queue's
  // segment is reported, not silently read as some later queue's item.
  if (!SegmentPool::kPoisonsVacantBlocks) {
    GTEST_SKIP() << "blocks are poisoned only under AddressSanitizer";
  }
  using Q = TimeQueue<int>;
  const Q::Item* stale = nullptr;
  {
    Q q;
    q.push(Q::key_of(1.0), 7);
    ASSERT_TRUE(q.advance(Q::kNoKey));
    stale = &q.front();
    EXPECT_EQ(stale->payload, 7);
  }
  EXPECT_DEATH(
      {
        const volatile int* payload = &stale->payload;
        std::fprintf(stderr, "%d\n", *payload);
      },
      "use-after-poison");
}

/// A reference queue: pending (time, insertion seq, id) triples, popped
/// in (time, seq) order — a stable sort by time, computed on demand.
struct ReferenceQueue {
  struct Entry {
    double time;
    std::int64_t seq;
    std::int64_t id;
  };
  std::vector<Entry> pending;
  std::int64_t next_seq = 0;

  void push(double time, std::int64_t id) {
    pending.push_back({time, next_seq++, id});
  }
  std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const Entry& a = pending[i];
      const Entry& b = pending[best];
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
    }
    return best;
  }
  Entry pop() {
    const std::size_t i = min_index();
    const Entry e = pending[i];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    return e;
  }
};

/// Draws a time offset with many exact repeats: zero, a few fixed
/// values, or an arbitrary double.
double draw_delay(core::Rng& rng) {
  const std::uint64_t pick = rng.next_below(10);
  if (pick < 3) return 0.0;
  if (pick < 6) return static_cast<double>(pick - 2) * 0.5;
  return rng.next_double() * 4.0;
}

TEST(TimeQueue, MatchesAStableSortReferenceOnRandomSchedules) {
  using Q = TimeQueue<std::int64_t>;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    core::Rng rng(seed);
    Q q;
    ReferenceQueue ref;
    std::int64_t next_id = 0;
    double now = 0.0;
    for (int i = 0; i < 50; ++i) {
      const double t = draw_delay(rng);
      q.push(Q::key_of(t), next_id);
      ref.push(t, next_id++);
    }
    std::vector<std::int64_t> got;
    std::vector<std::int64_t> want;
    for (int round = 0; round < 40 && !ref.pending.empty(); ++round) {
      // Drain up to a cut point; every executed item may push more,
      // some at the current time (behind the front run).
      const double cut = now + rng.next_double() * 3.0;
      while (q.advance(Q::key_of(cut))) {
        now = Q::time_of(q.current_key());
        while (!q.front_empty()) {
          const std::int64_t id = q.pop_front().payload;
          got.push_back(id);
          const ReferenceQueue::Entry e = ref.pop();
          want.push_back(e.id);
          ASSERT_EQ(e.time, now) << "seed " << seed;
          if (next_id < 4000 && rng.next_below(3) != 0) {
            const double t = now + draw_delay(rng);
            q.push(Q::key_of(t), next_id);
            ref.push(t, next_id++);
          }
        }
      }
      ASSERT_EQ(got, want) << "seed " << seed;
      ASSERT_EQ(q.size(), ref.pending.size());
      if (!ref.pending.empty()) {
        EXPECT_EQ(Q::time_of(q.min_key()), ref.pending[ref.min_index()].time);
      }
      // Between cuts, schedule anywhere in [cut, ...), including the cut.
      now = std::max(now, cut);
      const double t = rng.next_bool(0.3) ? now : now + draw_delay(rng);
      q.push(Q::key_of(t), next_id);
      ref.push(t, next_id++);
    }
  }
}

TEST(Simulator, MatchesAStableSortReferenceOnRandomSchedules) {
  // The engine end to end against the reference: callbacks and deliver
  // events mixed, zero-delay pushes during a drain, run_until cuts, and
  // (on odd seeds) teardown with callbacks still queued.  The slab's
  // high-water mark must equal the peak number of live callbacks.
  struct Model {
    core::Rng rng;
    Simulator* sim;
    ReferenceQueue ref;
    std::vector<std::int64_t> got;
    std::vector<bool> is_callback;
    std::int64_t live_callbacks = 0;
    std::int64_t peak_callbacks = 0;
    std::shared_ptr<int> token = std::make_shared<int>(0);

    struct Sink : Simulator::DeliverSink {
      Model* model = nullptr;
      void on_deliver(std::int32_t, std::int32_t, std::int32_t,
                      std::int64_t id) override {
        model->execute(id);
      }
    } sink;

    explicit Model(std::uint64_t seed, Simulator* s) : rng(seed), sim(s) {
      sink.model = this;
    }

    void schedule(double time) {
      const auto id = static_cast<std::int64_t>(is_callback.size());
      const bool callback = rng.next_bool(0.5);
      is_callback.push_back(callback);
      ref.push(time, id);
      if (callback) {
        peak_callbacks = std::max(peak_callbacks, ++live_callbacks);
        sim->schedule_at(time, [this, id, held = token] { execute(id); });
      } else {
        sim->schedule_deliver_at(time, &sink, 0, 1, 2, id);
      }
    }

    void execute(std::int64_t id) {
      got.push_back(id);
      const int children = static_cast<int>(rng.next_below(3));
      for (int c = 0; c < children && is_callback.size() < 3000; ++c) {
        schedule(sim->now() + draw_delay(rng));
      }
      if (is_callback[static_cast<std::size_t>(id)]) --live_callbacks;
    }
  };

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    std::vector<std::int64_t> want;
    std::weak_ptr<int> token;
    {
      Simulator sim;
      Model model(seed, &sim);
      token = model.token;
      for (int i = 0; i < 40; ++i) model.schedule(draw_delay(model.rng));
      for (int cut = 1; cut <= 8; ++cut) {
        const double deadline = cut * 1.5;
        sim.run_until(deadline);
        while (!model.ref.pending.empty() &&
               model.ref.pending[model.ref.min_index()].time <= deadline) {
          want.push_back(model.ref.pop().id);
        }
        ASSERT_EQ(model.got, want) << "seed " << seed << " cut " << cut;
        ASSERT_EQ(sim.pending(), model.ref.pending.size());
        model.schedule(deadline);  // exactly at the cut
      }
      if (seed % 2 == 0) {
        sim.run();
        while (!model.ref.pending.empty()) want.push_back(model.ref.pop().id);
        ASSERT_EQ(model.got, want) << "seed " << seed;
      }
      EXPECT_EQ(sim.slots_created(), model.peak_callbacks) << "seed " << seed;
      EXPECT_EQ(sim.callback_heap_allocations(), 0);
      model.token.reset();
    }
    // Teardown released every queued callable (and its captured token).
    EXPECT_TRUE(token.expired()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lhg::flooding
