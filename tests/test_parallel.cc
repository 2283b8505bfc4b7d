// The parallel engine (core/parallel.h) and its determinism contract:
// pool lifecycle, full index coverage under every grain, exception
// propagation out of workers, and — the property everything else rests
// on — kernels returning identical values at 1 and N threads.

#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/connectivity.h"
#include "core/cut_census.h"
#include "core/diameter.h"
#include "core/graph.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace lhg::core {
namespace {

// The annotated primitives the pool locks with
// (core/thread_annotations.h): a two-thread ping-pong exercises
// Mutex/MutexLock/CondVar — including condition_variable_any's
// release/reacquire path over the wrapper — under TSan in CI.
TEST(ThreadAnnotations, MutexCondVarPingPong) {
  Mutex mu;
  CondVar cv;
  int turn = 0;        // guarded by mu (local, so by discipline not attribute)
  int exchanges = 0;
  constexpr int kRounds = 200;
  std::thread peer([&] {
    MutexLock hold(mu);
    for (int i = 0; i < kRounds; ++i) {
      while (turn != 1) cv.wait(mu);
      turn = 0;
      ++exchanges;
      cv.notify_all();
    }
  });
  {
    MutexLock hold(mu);
    for (int i = 0; i < kRounds; ++i) {
      turn = 1;
      cv.notify_all();
      while (turn != 0) cv.wait(mu);
    }
  }
  peer.join();
  const MutexLock hold(mu);
  EXPECT_EQ(exchanges, kRounds);
}

/// Pins the global pool to `threads` lanes for one scope, restoring the
/// environment-derived default afterwards so test order cannot leak.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { set_global_thread_count(threads); }
  ~ScopedThreads() {
    set_global_thread_count(ThreadPool::default_thread_count());
  }
};

TEST(ParallelPool, StartStopIsClean) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(threads));
    pool.run([&](int lane) { ++hits[static_cast<std::size_t>(lane)]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Destructor joins the workers; a hang here is the failure mode.
  }
}

TEST(ParallelPool, RunsRepeatedly) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](int) { ++total; });
  }
  EXPECT_EQ(total.load(), 50 * 4);
}

TEST(ParallelPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.run([&](int lane) {
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelPool, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnceAtEveryGrain) {
  const ScopedThreads threads(4);
  const std::int64_t n = 1000;
  // Grain 0 is treated as 1; grain n and grain > n collapse to one chunk.
  for (const std::int64_t grain : {std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{7}, std::int64_t{1000},
                                   std::int64_t{5000}}) {
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    parallel_for(n, grain,
                 [&](std::int64_t i, int) { ++hits[static_cast<std::size_t>(i)]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n)
        << "grain=" << grain;
    for (const int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  const ScopedThreads threads(4);
  int calls = 0;
  parallel_for(0, 8, [&](std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(-5, 8, [&](std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> atomic_calls{0};
  parallel_for(1, 8, [&](std::int64_t i, int) {
    EXPECT_EQ(i, 0);
    ++atomic_calls;
  });
  EXPECT_EQ(atomic_calls.load(), 1);
}

TEST(ParallelFor, ChunkBoundsPartitionTheRange) {
  const ScopedThreads threads(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for_chunks(103, 10, [&](std::int64_t begin, std::int64_t end, int) {
    const std::lock_guard<std::mutex> hold(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 11u);  // ceil(103 / 10)
  std::int64_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(end - begin, 10);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103);
}

TEST(ParallelFor, PropagatesExceptionsFromWorkers) {
  const ScopedThreads threads(4);
  EXPECT_THROW(
      parallel_for(100, 1,
                   [](std::int64_t i, int) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Contract violations cross the thread boundary the same way.
  EXPECT_THROW(parallel_for(100, 1,
                            [](std::int64_t i, int) {
                              LHG_CHECK(i != 31, "fails on {}", i);
                            }),
               ContractViolation);
  // The pool survives a throwing region.
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, 1, [&](std::int64_t i, int) { sum += i; });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  const ScopedThreads threads(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(8, 1, [&](std::int64_t, int) {
    // A nested parallel_for must not deadlock; it runs serially inline.
    parallel_for(10, 1, [&](std::int64_t, int) { ++total; });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ParallelReduce, SumsMatchClosedFormAtEveryGrain) {
  const ScopedThreads threads(4);
  for (const std::int64_t grain :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{13}, std::int64_t{999},
        std::int64_t{4096}}) {
    const std::int64_t sum = parallel_reduce<std::int64_t>(
        999, grain, std::int64_t{0},
        [](std::int64_t begin, std::int64_t end, int) {
          std::int64_t s = 0;
          for (std::int64_t i = begin; i < end; ++i) s += i;
          return s;
        },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, 998 * 999 / 2) << "grain=" << grain;
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const ScopedThreads threads(4);
  const int result = parallel_reduce<int>(
      0, 4, 42, [](std::int64_t, std::int64_t, int) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
}

TEST(ParallelConfig, EnvOverrideParsesDefensively) {
  // default_thread_count reads LHG_THREADS lazily, so this is testable
  // without re-execing the binary.
  ASSERT_EQ(setenv("LHG_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  ASSERT_EQ(setenv("LHG_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(setenv("LHG_THREADS", "-2", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(unsetenv("LHG_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

// --- Determinism contract: 1 thread vs N threads, identical values ---

struct KernelResults {
  std::int32_t lhg_diam = 0;
  std::int32_t harary_diam = 0;
  std::int32_t apsp = 0;
  std::int32_t radius_value = 0;
  double apl = 0;
  std::int32_t kappa = 0;
  std::int32_t lambda = 0;
  std::int64_t census_checked = 0;
  std::int64_t census_fatal = 0;
  bool census_truncated = false;
};

KernelResults run_kernels(int threads) {
  set_global_thread_count(threads);
  KernelResults r;
  const auto lhg_graph = lhg::build(302, 4);
  const auto harary_graph = lhg::harary::circulant(256, 3);
  r.lhg_diam = diameter(lhg_graph);
  r.harary_diam = diameter(harary_graph);
  r.apsp = diameter_apsp(harary_graph);
  r.radius_value = radius(lhg_graph);
  r.apl = average_path_length(lhg_graph);
  r.kappa = vertex_connectivity(lhg_graph, 5);
  r.lambda = edge_connectivity(lhg_graph, 5);
  const auto census = fatal_node_subsets(lhg::harary::circulant(16, 3), 3);
  r.census_checked = census.subsets_checked;
  r.census_fatal = census.fatal;
  r.census_truncated = census.truncated;
  return r;
}

TEST(ParallelDeterminism, KernelsIdenticalAtOneAndManyThreads) {
  const ScopedThreads restore(1);
  const KernelResults serial = run_kernels(1);
  EXPECT_EQ(serial.apsp, serial.harary_diam);  // iFUB vs oracle
  for (const int threads : {2, 4, 8}) {
    const KernelResults parallel = run_kernels(threads);
    EXPECT_EQ(parallel.lhg_diam, serial.lhg_diam) << threads;
    EXPECT_EQ(parallel.harary_diam, serial.harary_diam) << threads;
    EXPECT_EQ(parallel.apsp, serial.apsp) << threads;
    EXPECT_EQ(parallel.radius_value, serial.radius_value) << threads;
    // Integer distance sums: bitwise equality, not near-equality.
    EXPECT_EQ(parallel.apl, serial.apl) << threads;
    EXPECT_EQ(parallel.kappa, serial.kappa) << threads;
    EXPECT_EQ(parallel.lambda, serial.lambda) << threads;
    EXPECT_EQ(parallel.census_checked, serial.census_checked) << threads;
    EXPECT_EQ(parallel.census_fatal, serial.census_fatal) << threads;
    EXPECT_EQ(parallel.census_truncated, serial.census_truncated) << threads;
  }
}

TEST(ParallelDeterminism, TruncatedCensusMatchesSerialSemantics) {
  const ScopedThreads restore(1);
  const auto g = lhg::harary::circulant(14, 3);
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{17},
                                 std::int64_t{364}, std::int64_t{100000}}) {
    set_global_thread_count(1);
    const auto serial = fatal_node_subsets(g, 3, cap);
    set_global_thread_count(4);
    const auto parallel = fatal_node_subsets(g, 3, cap);
    EXPECT_EQ(parallel.subsets_checked, serial.subsets_checked) << cap;
    EXPECT_EQ(parallel.fatal, serial.fatal) << cap;
    EXPECT_EQ(parallel.truncated, serial.truncated) << cap;
  }
}

TEST(ParallelDeterminism, SampledCensusInvariantAcrossParallelThreadCounts) {
  const ScopedThreads restore(1);
  // Every thread count shares the per-trial stream design, so the
  // estimates are identical.
  const auto g = lhg::harary::circulant(60, 3);
  set_global_thread_count(2);
  Rng rng_a(7);
  const auto two = sampled_fatal_subsets(g, 4, 500, rng_a);
  set_global_thread_count(8);
  Rng rng_b(7);
  const auto eight = sampled_fatal_subsets(g, 4, 500, rng_b);
  EXPECT_EQ(two.subsets_checked, eight.subsets_checked);
  EXPECT_EQ(two.fatal, eight.fatal);
}

TEST(ParallelDeterminism, SampledCensusIdenticalAtOneAndFourThreads) {
  const ScopedThreads restore(1);
  const auto g = lhg::harary::circulant(60, 3);
  Rng rng_one(11);
  const auto one = sampled_fatal_subsets(g, 4, 2000, rng_one);
  set_global_thread_count(4);
  Rng rng_four(11);
  const auto four = sampled_fatal_subsets(g, 4, 2000, rng_four);
  EXPECT_EQ(one.subsets_checked, four.subsets_checked);
  EXPECT_EQ(one.fatal, four.fatal);
  EXPECT_GT(one.fatal, 0);
  EXPECT_EQ(rng_one(), rng_four());  // both consumed one seed draw
}

TEST(ParallelDeterminism, RngStreamsAreStatelessAndDistinct) {
  Rng a = Rng::stream(123, 0);
  Rng b = Rng::stream(123, 0);
  EXPECT_EQ(a(), b());  // same (seed, index) -> same stream
  Rng c = Rng::stream(123, 1);
  Rng d = Rng::stream(124, 0);
  std::vector<std::uint64_t> first{Rng::stream(123, 0)(), c(), d()};
  EXPECT_NE(first[0], first[1]);
  EXPECT_NE(first[0], first[2]);
  EXPECT_NE(first[1], first[2]);
}

}  // namespace
}  // namespace lhg::core
