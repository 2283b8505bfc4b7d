// E8 — "construction cost" table (google-benchmark).
//
// Claim: building an LHG is O(n·k) time and memory — cheap enough to
// recompute whenever membership changes — and verifying k-connectivity
// (the expensive part of admission checking) is O(k·m) per max-flow
// probe.
//
// Expected shape: Build* timings scale ~linearly in n at fixed k;
// circulant Harary construction is the same order; the verifier scales
// ~n·k·m and dominates.

#include <benchmark/benchmark.h>

#include "core/connectivity.h"
#include "core/diameter.h"
#include "flooding/protocols.h"
#include "harary/harary.h"
#include "lhg/lhg.h"

namespace {

void BM_BuildKTree(benchmark::State& state) {
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  const auto k = static_cast<std::int32_t>(state.range(1));
  for (auto _ : state) {
    auto g = lhg::build(n, k, lhg::Constraint::kKTree);
    benchmark::DoNotOptimize(g);
  }
  // The family mixes k = 3 and k = 8; a graph has ~n·k/2 edges, so the
  // fit runs over n·k to describe both with one coefficient.
  state.SetComplexityN(static_cast<std::int64_t>(n) * k);
}
BENCHMARK(BM_BuildKTree)
    ->ArgsProduct({{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}, {3, 8}})
    ->Complexity(benchmark::oN);

void BM_BuildKDiamond(benchmark::State& state) {
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  for (auto _ : state) {
    auto g = lhg::build(n, 4, lhg::Constraint::kKDiamond);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BuildKDiamond)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Complexity(benchmark::oN);

void BM_BuildHarary(benchmark::State& state) {
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  for (auto _ : state) {
    auto g = lhg::harary::circulant(n, 4);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BuildHarary)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Complexity(benchmark::oN);

void BM_Diameter(benchmark::State& state) {
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  const auto g = lhg::build(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhg::core::diameter(g));
  }
}
BENCHMARK(BM_Diameter)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_VerifyKConnectivity(benchmark::State& state) {
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  const std::int32_t k = 4;
  const auto g = lhg::build(n, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhg::core::is_k_vertex_connected(g, k));
  }
}
BENCHMARK(BM_VerifyKConnectivity)->Arg(64)->Arg(256)->Arg(1024);

void BM_FloodLatencySim(benchmark::State& state) {
  // Cost of one full event-driven flood (the inner loop of E4/E5).
  const auto n = static_cast<lhg::core::NodeId>(state.range(0));
  const auto g = lhg::build(n, 4);
  for (auto _ : state) {
    auto result = lhg::flooding::flood(g, {.source = 0});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FloodLatencySim)->Arg(1 << 8)->Arg(1 << 10)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
