// Tests for the observability layer: metrics registry (sharded,
// deterministic merge), trace sink (ring semantics, Chrome export) and
// the SimObs/Runtime wiring surface.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lhg::obs {
namespace {

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket 0 is the <= 0 underflow; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(histogram_bucket(-5), 0);
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 1);
  EXPECT_EQ(histogram_bucket(2), 2);
  EXPECT_EQ(histogram_bucket(3), 2);
  EXPECT_EQ(histogram_bucket(4), 3);
  EXPECT_EQ(histogram_bucket(1023), 10);
  EXPECT_EQ(histogram_bucket(1024), 11);
  EXPECT_EQ(histogram_bucket((std::int64_t{1} << 62) + 1), 63);
  // Floors invert the mapping at bucket lower edges.
  EXPECT_EQ(histogram_bucket_floor(0), 0);
  EXPECT_EQ(histogram_bucket_floor(1), 1);
  EXPECT_EQ(histogram_bucket_floor(11), 1024);
  for (std::int32_t b = 1; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(histogram_bucket(histogram_bucket_floor(b)), b);
    EXPECT_EQ(histogram_bucket(histogram_bucket_floor(b) - 1), b - 1);
  }
}

TEST(Metrics, CountersGaugesAndHistogramsAccumulate) {
  Registry reg;
  const CounterId sent = reg.counter("sent");
  const HistogramId delay = reg.histogram("delay");

  reg.add(sent, 3);
  reg.add(sent, 4);
  reg.observe(delay, 1);
  reg.observe(delay, 5);
  reg.observe(delay, 5);
  reg.observe(delay, 0);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  EXPECT_EQ(snap.samples[0].name, "sent");
  EXPECT_EQ(snap.samples[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.samples[0].value, 7);
  const MetricSample& h = snap.samples[1];
  EXPECT_EQ(h.kind, MetricKind::kHistogram);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 11);
  EXPECT_EQ(h.buckets[0], 1);                           // the 0
  EXPECT_EQ(h.buckets[1], 1);                           // the 1
  EXPECT_EQ(h.buckets[histogram_bucket(5)], 2);         // the 5s
  EXPECT_DOUBLE_EQ(h.mean(), 11.0 / 4.0);
  EXPECT_EQ(h.quantile_floor(0.5), histogram_bucket_floor(histogram_bucket(1)));
  EXPECT_EQ(h.quantile_floor(1.0), histogram_bucket_floor(histogram_bucket(5)));
}

TEST(Metrics, SnapshotFindAndJsonShape) {
  Registry reg;
  reg.add(reg.counter("a.count"), 2);
  reg.observe(reg.histogram("a.hist"), 3);
  const Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("a.count"), nullptr);
  EXPECT_EQ(snap.find("a.count")->value, 2);
  EXPECT_EQ(snap.find("missing"), nullptr);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"a.count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.hist\": { \"count\": 1, \"sum\": 3"),
            std::string::npos)
      << json;
}

TEST(Metrics, SnapshotMergeFromIsElementWise) {
  Registry a;
  Registry b;
  for (Registry* r : {&a, &b}) {
    r->add(r->counter("c"), 5);
    r->observe(r->histogram("h"), 8);
  }
  Snapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  EXPECT_EQ(merged.find("c")->value, 10);
  EXPECT_EQ(merged.find("h")->count, 2);
  EXPECT_EQ(merged.find("h")->sum, 16);
  EXPECT_EQ(merged.find("h")->buckets[histogram_bucket(8)], 2);
}

// The ISSUE-mandated determinism contract: recording a workload split
// across N concurrently-writing shards aggregates bit-identically to
// the same workload recorded single-threaded into one shard.
TEST(Metrics, ShardedMergeMatchesSingleShardBitForBit) {
  constexpr std::int32_t kShards = 7;
  constexpr std::int64_t kPerShard = 5000;

  Registry sharded(kShards);
  Registry single(1);
  // Identical schema on both registries.
  const CounterId cs = sharded.counter("events");
  const HistogramId hs = sharded.histogram("sizes");
  const CounterId c1 = single.counter("events");
  const HistogramId h1 = single.histogram("sizes");

  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (std::int32_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      for (std::int64_t i = 0; i < kPerShard; ++i) {
        sharded.add(cs, 1 + (i % 3), s);
        sharded.observe(hs, s * kPerShard + i, s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::int32_t s = 0; s < kShards; ++s) {
    for (std::int64_t i = 0; i < kPerShard; ++i) {
      single.add(c1, 1 + (i % 3));
      single.observe(h1, s * kPerShard + i);
    }
  }

  const Snapshot want = single.snapshot();
  const Snapshot got = sharded.snapshot();
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].name, want.samples[i].name);
    EXPECT_EQ(got.samples[i].value, want.samples[i].value);
    EXPECT_EQ(got.samples[i].count, want.samples[i].count);
    EXPECT_EQ(got.samples[i].sum, want.samples[i].sum);
    EXPECT_EQ(got.samples[i].buckets, want.samples[i].buckets);
  }
  EXPECT_EQ(got.to_json(), want.to_json());  // bit-identical all the way out
}

TEST(Trace, RingKeepsNewestAndCountsOverwrites) {
  TraceSink sink(64);  // already a power of two; the floor
  EXPECT_EQ(sink.capacity(), 64);
  for (std::int64_t i = 0; i < 100; ++i) {
    sink.record(static_cast<double>(i), TraceKind::kSend,
                static_cast<std::int32_t>(i), -1, i);
  }
  EXPECT_EQ(sink.size(), 64);
  EXPECT_EQ(sink.dropped(), 36);
  const TraceLog log = sink.log();
  ASSERT_EQ(log.events.size(), 64u);
  EXPECT_EQ(log.dropped, 36);
  // Oldest retained first: events 36..99.
  EXPECT_EQ(log.events.front().detail, 36);
  EXPECT_EQ(log.events.back().detail, 99);
  for (std::size_t i = 1; i < log.events.size(); ++i) {
    EXPECT_LT(log.events[i - 1].time, log.events[i].time);
  }
}

TEST(Trace, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceSink(1).capacity(), 64);   // floor
  EXPECT_EQ(TraceSink(65).capacity(), 128);
  EXPECT_EQ(TraceSink(100).capacity(), 128);
  EXPECT_THROW(TraceSink(0), std::invalid_argument);
}

TEST(Trace, ChromeExportHasTraceEventSchema) {
  TraceSink sink(64);
  sink.record(1.5, TraceKind::kSend, 3, 7, 42);
  sink.record(2.0, TraceKind::kSuspicion, 5, 2, 1);
  std::ostringstream out;
  write_chrome_trace(out, sink.log());
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Instant events carry phase "i" with a scope, and ts in microseconds
  // (1 virtual time unit = 1 ms = 1000 us).
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"suspicion\""), std::string::npos);
  // Node 3 acts on tid 3; peer rides in args.
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"peer\": 7"), std::string::npos);
  // Metadata event naming the process is present.
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
}

TEST(TraceKindNames, AreStableStrings) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kSend), "send");
  EXPECT_STREQ(trace_kind_name(TraceKind::kDeliver), "deliver");
  EXPECT_STREQ(trace_kind_name(TraceKind::kDrop), "drop");
  EXPECT_STREQ(trace_kind_name(TraceKind::kRetransmit), "retransmit");
  EXPECT_STREQ(trace_kind_name(TraceKind::kSuspicion), "suspicion");
  EXPECT_STREQ(trace_kind_name(TraceKind::kViewChange), "view_change");
  EXPECT_STREQ(trace_kind_name(TraceKind::kRewire), "rewire");
  EXPECT_STREQ(trace_kind_name(TraceKind::kCrash), "crash");
  EXPECT_STREQ(trace_kind_name(TraceKind::kRecover), "recover");
}

TEST(Runtime, DisabledIsInertAndFree) {
  Runtime rt(ObsConfig{});  // both off
  EXPECT_EQ(rt.obs(), nullptr);
  EXPECT_TRUE(rt.metrics_snapshot().empty());
  EXPECT_TRUE(rt.trace_log().empty());
}

TEST(Runtime, MetricsOnlyAndTraceOnlyModes) {
  Runtime metrics_only(ObsConfig{true, false, 64});
  ASSERT_NE(metrics_only.obs(), nullptr);
  EXPECT_TRUE(metrics_only.obs()->metrics_enabled());
  EXPECT_FALSE(metrics_only.obs()->trace_enabled());
  // Recording through a trace-less SimObs is a guarded no-op.
  metrics_only.obs()->event(1.0, TraceKind::kSend, 0);
  metrics_only.obs()->add(metrics_only.obs()->net_sent);
  EXPECT_EQ(metrics_only.metrics_snapshot().find("net.sent")->value, 1);
  EXPECT_TRUE(metrics_only.trace_log().empty());

  Runtime trace_only(ObsConfig{false, true, 64});
  ASSERT_NE(trace_only.obs(), nullptr);
  EXPECT_FALSE(trace_only.obs()->metrics_enabled());
  EXPECT_TRUE(trace_only.obs()->trace_enabled());
  // Counter handles are unregistered; the convenience must not touch
  // the (nonexistent) registry.
  trace_only.obs()->add(trace_only.obs()->net_sent);
  trace_only.obs()->event(2.5, TraceKind::kDrop, 1, 0,
                          static_cast<std::int64_t>(DropCause::kChannelLoss));
  const TraceLog log = trace_only.trace_log();
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].kind, TraceKind::kDrop);
  EXPECT_TRUE(trace_only.metrics_snapshot().empty());
}

TEST(Runtime, MilliTickScaling) {
  EXPECT_EQ(SimObs::milli_ticks(0.0), 0);
  EXPECT_EQ(SimObs::milli_ticks(1.0), 1000);
  EXPECT_EQ(SimObs::milli_ticks(2.5), 2500);
}

}  // namespace
}  // namespace lhg::obs
