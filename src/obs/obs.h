// Simulator-facing observability surface: ObsConfig knob, the SimObs
// handle bundle the instrumented components record through, and the
// Runtime that owns the registry + trace sink for one run.
//
// Wiring pattern (DESIGN.md §12): a protocol entry point builds a
// `Runtime` from the caller's `ObsConfig`, hands `runtime.obs()` (a
// `const SimObs*`, nullptr when disabled) to each component via
// `set_obs`, and harvests `runtime.metrics_snapshot()` /
// `runtime.trace_log()` into the result at finalize time.  Components
// guard every record with `if (obs_)` — one predictable branch; with
// observability disabled no registry or sink even exists, so the
// overhead budget (≤1 % on bench_flood_latency, gated in CI) holds by
// construction.
//
// Observation NEVER draws from an Rng and never schedules events, so
// enabling it cannot change a run's golden trace — it is a read-only
// tap on the deterministic event stream.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lhg::obs {

/// Per-run observability knob, carried by protocol configs.  Both
/// default off: simulation results are bit-identical either way, the
/// knob only controls whether anyone is watching.
struct ObsConfig {
  bool metrics = false;
  bool trace = false;
  /// Trace ring capacity in events (rounded up to a power of two).
  /// 2^14 events ≈ 384 KiB retains the tail of a bench-scale run; soak
  /// workloads size it explicitly (EXPERIMENTS.md E22).
  std::int32_t trace_capacity = 1 << 14;

  bool enabled() const { return metrics || trace; }
};

/// Pre-registered handle bundle shared by every instrumented layer.
/// Registration happens once in the constructor (allocates); recording
/// through the conveniences below is allocation-free.
///
/// The schema is fixed so per-trial snapshots merge element-wise and a
/// 1-trial run aggregates bit-identically to the same trial inside an
/// N-thread TrialRunner sweep.
class SimObs {
 public:
  /// Registers the full metric schema on `registry` (may be null when
  /// only tracing) and records through `shard` of it.
  SimObs(Registry* registry, TraceSink* sink, std::int32_t shard = 0);

  bool metrics_enabled() const { return registry_ != nullptr; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- Simulator ---
  CounterId sim_deliver_events;
  CounterId sim_callback_events;
  /// Events run per drained timestamp; the single-queue engine only
  /// (per-shard batches are not S-invariant).
  HistogramId sim_bucket_events;

  // --- Network ---
  CounterId net_sent;
  CounterId net_delivered;
  CounterId net_lost;
  CounterId net_duplicated;
  CounterId net_blocked;
  CounterId net_dropped;
  HistogramId net_delay;  ///< per-copy latency, in milli-ticks

  // --- ReliableLink ---
  CounterId link_data;
  CounterId link_retransmits;
  CounterId link_acks;
  CounterId link_duplicates;
  CounterId link_overflows;
  CounterId link_stale;
  HistogramId link_inflight;  ///< unACKed span per arc at send time —
                              ///< the seq-exhaustion detector

  // --- Heartbeat / repair ---
  CounterId hb_beats;
  CounterId hb_suspicions;
  CounterId hb_false_suspicions;
  CounterId repair_view_changes;
  CounterId repair_handshakes;
  CounterId repair_rewires;

  // --- Recording conveniences (hot path) ---
  void add(CounterId id, std::int64_t delta = 1) const {
    if (registry_ != nullptr) registry_->add(id, delta, shard_);
  }
  void observe(HistogramId id, std::int64_t value) const {
    if (registry_ != nullptr) registry_->observe(id, value, shard_);
  }
  void event(double time, TraceKind kind, std::int32_t node,
             std::int32_t peer = -1, std::int64_t detail = 0) const {
    if (sink_ != nullptr) sink_->record(time, kind, node, peer, detail);
  }

  /// Per-shard view sharing this bundle's registered handles: records
  /// into `shard` of the same registry and into `sink` (one ring per
  /// shard in the sharded engine, so lanes never share a sink).  No
  /// re-registration — the schema stays single.
  SimObs for_shard(std::int32_t shard, TraceSink* sink) const {
    SimObs copy = *this;
    copy.shard_ = shard;
    copy.sink_ = sink;
    return copy;
  }

  /// Histograms store integers; continuous quantities (latencies in
  /// virtual time units) are scaled to milli-ticks first.
  static std::int64_t milli_ticks(double t) {
    return static_cast<std::int64_t>(t * 1000.0);
  }

 private:
  Registry* registry_;
  TraceSink* sink_;
  std::int32_t shard_;
};

/// Tag selecting Runtime's per-shard-handles mode (sharded engine).
struct PerShardHandles {};

/// Owns the registry + sink for one run (or one trial).  Cheap to
/// construct when disabled: no allocation at all, `obs()` is nullptr.
class Runtime {
 public:
  explicit Runtime(const ObsConfig& config, std::int32_t shards = 1);

  /// Per-shard-handles mode, for the sharded engine (shard_sim.h): one
  /// SimObs per shard — all sharing a single registered schema on one
  /// Registry(shards) — plus one TraceSink per shard so lanes never
  /// share a ring.  `metrics_snapshot()` merges shard slabs in index
  /// order as always; `trace_log()` merges the rings by (time, shard),
  /// summing the per-ring drop counts.  `obs()` is nullptr in this
  /// mode — use `shard_obs()`.
  Runtime(const ObsConfig& config, std::int32_t shards, PerShardHandles);

  /// Handle bundle for components, or nullptr when fully disabled.
  const SimObs* obs() const { return sim_obs_ ? sim_obs_.get() : nullptr; }

  /// Per-shard handle bundle (per-shard mode only; empty otherwise —
  /// and empty when observability is fully disabled, matching the
  /// nullptr convention of `obs()`).
  std::vector<const SimObs*> shard_obs() const;

  /// Merged metrics (empty snapshot when metrics are off).
  Snapshot metrics_snapshot() const {
    return registry_ ? registry_->snapshot() : Snapshot{};
  }
  /// Retained trace events (empty log when tracing is off).  In
  /// per-shard mode: the shard rings merged by (time, shard index) —
  /// deterministic at any thread count, but interleaved differently
  /// than a single-queue run's one ring.
  TraceLog trace_log() const;

  const ObsConfig& config() const { return config_; }

 private:
  ObsConfig config_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<SimObs> sim_obs_;
  // Per-shard mode only:
  std::vector<std::unique_ptr<TraceSink>> shard_sinks_;
  std::vector<SimObs> shard_obs_;
};

}  // namespace lhg::obs
