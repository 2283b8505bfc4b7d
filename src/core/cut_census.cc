#include "core/cut_census.h"

#include <limits>
#include <vector>

#include "core/bfs.h"
#include "core/check.h"
#include "core/parallel.h"

namespace lhg::core {

namespace {

void check_size(const Graph& g, std::int32_t subset_size) {
  LHG_CHECK(subset_size > 0 && subset_size < g.num_nodes(),
            "cut census: subset size {} out of range for n={}", subset_size,
            g.num_nodes());
}

/// min(C(n, k), cap).  The running product C(n,0), C(n,1), ..., C(n,k)
/// stays integral at every step; a 64-bit multiply overflow means the
/// true value is at least 2^64/k, far beyond any enumerable census, so
/// saturating to `cap` there preserves every comparison callers make.
std::int64_t binomial_capped(std::int64_t n, std::int32_t k,
                             std::int64_t cap) {
  if (k < 0 || k > n) return 0;
  unsigned long long c = 1;
  for (std::int32_t i = 0; i < k; ++i) {
    unsigned long long product = 0;
    if (__builtin_mul_overflow(c, static_cast<unsigned long long>(n - i),
                               &product)) {
      return cap;
    }
    c = product / static_cast<unsigned long long>(i + 1);
    if (c >= static_cast<unsigned long long>(cap)) return cap;
  }
  return static_cast<std::int64_t>(c);
}

/// The `rank`-th (0-based) size-k subset of [0, n) in lexicographic
/// order, via the combinatorial number system.
std::vector<NodeId> unrank_combination(NodeId n, std::int32_t k,
                                       std::int64_t rank) {
  std::vector<NodeId> subset(static_cast<std::size_t>(k));
  NodeId candidate = 0;
  for (std::int32_t slot = 0; slot < k; ++slot) {
    for (;; ++candidate) {
      // Subsets that fix `candidate` in this slot: choose the remaining
      // k-slot-1 elements from the values above it.
      const std::int64_t with_candidate = binomial_capped(
          n - candidate - 1, k - slot - 1, std::numeric_limits<std::int64_t>::max());
      if (rank < with_candidate) break;
      rank -= with_candidate;
    }
    subset[static_cast<std::size_t>(slot)] = candidate++;
  }
  return subset;
}

/// Advances `subset` to its lexicographic successor.  Returns false
/// when `subset` was the last combination.
bool next_combination(std::vector<NodeId>& subset, NodeId n) {
  const auto k = static_cast<std::int32_t>(subset.size());
  std::int32_t slot = k - 1;
  while (slot >= 0 &&
         subset[static_cast<std::size_t>(slot)] == n - k + slot) {
    --slot;
  }
  if (slot < 0) return false;
  ++subset[static_cast<std::size_t>(slot)];
  for (std::int32_t fill = slot + 1; fill < k; ++fill) {
    subset[static_cast<std::size_t>(fill)] =
        subset[static_cast<std::size_t>(fill - 1)] + 1;
  }
  return true;
}

}  // namespace

CutCensus fatal_node_subsets(const Graph& g, std::int32_t subset_size,
                             std::int64_t max_subsets) {
  check_size(g, subset_size);
  const NodeId n = g.num_nodes();

  // The combination sequence is split into contiguous rank ranges; each
  // chunk unranks its first subset and then walks forward with the
  // lexicographic successor.  Counts are order-independent, so the
  // totals are exact at every thread count.
  const std::int64_t total = binomial_capped(
      n, subset_size, std::numeric_limits<std::int64_t>::max());
  const std::int64_t to_check =
      max_subsets >= 0 ? std::min(total, max_subsets) : total;
  const std::int64_t grain =
      std::max<std::int64_t>(
          32, to_check / (static_cast<std::int64_t>(global_thread_count()) * 16));
  const std::int64_t fatal = parallel_reduce<std::int64_t>(
      to_check, grain, std::int64_t{0},
      [&](std::int64_t begin, std::int64_t end, int) {
        std::vector<NodeId> subset = unrank_combination(n, subset_size, begin);
        std::int64_t chunk_fatal = 0;
        for (std::int64_t r = begin; r < end; ++r) {
          if (!is_connected_after_node_removal(g, subset)) ++chunk_fatal;
          if (!next_combination(subset, n)) break;
        }
        return chunk_fatal;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });

  CutCensus census;
  census.subsets_checked = to_check;
  census.fatal = fatal;
  census.truncated = max_subsets >= 0 && max_subsets < total;
  return census;
}

CutCensus sampled_fatal_subsets(const Graph& g, std::int32_t subset_size,
                                std::int64_t trials, Rng& rng) {
  check_size(g, subset_size);
  LHG_CHECK(trials >= 0, "cut census: negative trials {}", trials);

  // One draw from `rng` seeds a family of per-trial streams, so the
  // estimate is the same for a given (state, trials) at every thread
  // count.
  const std::uint64_t stream_seed = rng();
  const std::int64_t grain = std::max<std::int64_t>(
      8, trials / (static_cast<std::int64_t>(global_thread_count()) * 16));
  const std::int64_t fatal = parallel_reduce<std::int64_t>(
      trials, grain, std::int64_t{0},
      [&](std::int64_t begin, std::int64_t end, int) {
        std::int64_t chunk_fatal = 0;
        for (std::int64_t t = begin; t < end; ++t) {
          Rng trial_rng =
              Rng::stream(stream_seed, static_cast<std::uint64_t>(t));
          const auto sample = trial_rng.sample_without_replacement(
              g.num_nodes(), subset_size);
          const std::vector<NodeId> subset(sample.begin(), sample.end());
          if (!is_connected_after_node_removal(g, subset)) ++chunk_fatal;
        }
        return chunk_fatal;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });

  CutCensus census;
  census.subsets_checked = trials;
  census.fatal = fatal;
  return census;
}

double subset_count(std::int64_t n, std::int32_t size) {
  double result = 1;
  for (std::int32_t i = 0; i < size; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

}  // namespace lhg::core
