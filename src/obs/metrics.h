// Metrics registry: counters and fixed log-bucketed histograms.
//
// The simulator needs to answer "what happened over time, per run, at
// scale" without perturbing the run it is measuring.  The registry is
// therefore split into two phases:
//
//   * Registration (setup, allocates): `counter` / `histogram` append
//     a slot range to every shard slab and return a typed handle.
//     Register everything before the hot loop starts.
//     Registration and `snapshot()` serialize on an annotated mutex
//     (core/thread_annotations.h), so the schema list is guarded by a
//     statically checked capability; registering while recorders are
//     live remains a phase-contract violation (the slabs would move
//     under the recorders) and is deliberately NOT lock-protected —
//     the hot path must stay lock-free.
//
//   * Recording (hot path, allocation-free): `add` / `observe` are a
//     bounds-unchecked (DCHECKed) indexed add into a preallocated
//     int64 slab.  No locks, no branches beyond the caller's own
//     enabled-check, no floating point.
//
// Sharding: the registry owns `shards` independent slabs.  Concurrent
// recorders (e.g. parallel bench trials on core::parallel lanes) each
// write their own shard; `snapshot()` merges shards in index order at
// report time.  Every stored quantity is an int64 sum, so the merged
// aggregate is bit-identical at any thread count — the same 1-vs-N
// determinism contract the kernels follow (DESIGN.md §8, §12).
//
// Histograms are log-bucketed with a fixed shape: bucket 0 counts
// values <= 0 and bucket b >= 1 counts values in [2^(b-1), 2^b).  64
// buckets cover the whole non-negative int64 range, so recording never
// clamps, compares or allocates — `observe` is bit_width + two adds.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/thread_annotations.h"

namespace lhg::obs {

/// Fixed histogram shape: bucket 0 holds values <= 0, bucket b >= 1
/// holds values in [2^(b-1), 2^b).
inline constexpr std::int32_t kHistogramBuckets = 64;

/// Bucket index for one observed value.
constexpr std::int32_t histogram_bucket(std::int64_t value) {
  return value <= 0
             ? 0
             : static_cast<std::int32_t>(
                   std::bit_width(static_cast<std::uint64_t>(value)));
}

/// Inclusive lower bound of a bucket (0 for the underflow bucket).
constexpr std::int64_t histogram_bucket_floor(std::int32_t bucket) {
  return bucket <= 0 ? 0 : std::int64_t{1} << (bucket - 1);
}

enum class MetricKind : std::uint8_t { kCounter, kHistogram };

/// Typed handles: a slot offset into every shard's slab.  Default-
/// constructed handles are invalid; recording through one is a
/// contract violation (DCHECK).
struct CounterId {
  std::int32_t slot = -1;
};
struct HistogramId {
  std::int32_t slot = -1;  ///< first of kHistogramBuckets + 2 slots
};

/// One metric's merged value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;  ///< counter total
  // Histogram only:
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Smallest bucket floor f with cumulative count >= q * count — a
  /// log-resolution quantile (exact value is within 2x of the floor).
  std::int64_t quantile_floor(double q) const;
};

/// Deterministic merged view of a registry; mergeable across runs.
struct Snapshot {
  std::vector<MetricSample> samples;

  bool empty() const { return samples.empty(); }
  const MetricSample* find(const std::string& name) const;

  /// Element-wise accumulate.  Requires the same schema (same metrics
  /// registered in the same order) — the per-trial usage pattern.
  void merge_from(const Snapshot& other);

  /// `{"name": value, ..., "hist": {"count": c, "sum": s, "buckets":
  /// [...]}}` — embeddable in a BenchReport entry.
  std::string to_json() const;
};

class Registry {
 public:
  /// `shards` independent slabs (>= 1); recorders pass their shard
  /// index, reports merge them in index order.
  explicit Registry(std::int32_t shards = 1);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- Registration (setup phase; allocates; single-threaded) ---
  CounterId counter(std::string name);
  HistogramId histogram(std::string name);

  std::int32_t shards() const { return static_cast<std::int32_t>(shards_.size()); }

  // --- Recording (hot path; allocation-free, lock-free per shard) ---
  void add(CounterId id, std::int64_t delta, std::int32_t shard = 0) {
    LHG_DCHECK(delta >= 0, "obs: counter delta {} < 0", delta);
    slot_ref(id.slot, shard) += delta;
  }
  void observe(HistogramId id, std::int64_t value, std::int32_t shard = 0) {
    const std::int32_t slot = id.slot + histogram_bucket(value);
    slot_ref(slot, shard) += 1;
    slot_ref(id.slot + kHistogramBuckets, shard) += 1;      // count
    slot_ref(id.slot + kHistogramBuckets + 1, shard) += value;  // sum
  }

  // --- Report time ---
  /// Merges every shard in index order into one sample per metric, in
  /// registration order.  Int64 sums: bit-identical at any shard count.
  Snapshot snapshot() const;

 private:
  struct Info {
    std::string name;
    MetricKind kind;
    std::int32_t slot;
  };

  std::int64_t& slot_ref(std::int32_t slot, std::int32_t shard) {
    LHG_DCHECK(slot >= 0 && static_cast<std::size_t>(slot) <
                                shards_[static_cast<std::size_t>(shard)].size(),
               "obs: slot {} out of range (unregistered handle?)", slot);
    LHG_DCHECK(shard >= 0 && shard < shards(), "obs: shard {} out of [0, {})",
               shard, shards());
    return shards_[static_cast<std::size_t>(shard)]
                  [static_cast<std::size_t>(slot)];
  }

  std::int32_t reserve(std::int32_t slots) LHG_REQUIRES(register_mu_);

  /// Serializes registration against itself and against `snapshot()`.
  /// `mutable` so the const merge path can take it.
  mutable core::Mutex register_mu_;
  std::vector<Info> infos_ LHG_GUARDED_BY(register_mu_);
  // Recording-phase slabs: written lock-free by per-shard recorders
  // (one shard per lane), merged by snapshot() under register_mu_.
  // The registration/recording phase split — never resize a slab while
  // recorders are live — is the recorders' safety argument and cannot
  // be expressed as a capability; TSan and the phase discipline police
  // it (DESIGN.md §13).
  std::vector<std::vector<std::int64_t>> shards_;
};

}  // namespace lhg::obs
