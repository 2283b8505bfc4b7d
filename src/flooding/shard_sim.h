// Sharded deterministic discrete-event simulator: one large run spread
// over S per-shard time queues driven by core::parallel lanes.
//
// The single-queue Simulator (event_sim.h) executes events in (time,
// insertion) order — inherently serial, since "insertion" depends on
// the global execution history.  This engine instead executes in
// *canonical* order
//
//     (time, origin node, per-origin creation seq)
//
// where the origin of an event is the node whose handler created it
// (the environment — failure plans, protocol bootstraps — is origin -1
// and sorts first, matching the serial engine's setup-runs-first
// semantics).  The key is computable at creation time from quantities
// that are themselves invariant under sharding, so by induction the
// full execution order — and therefore every result — is bit-identical
// at any shard count and any thread count (DESIGN.md §17 has the
// argument).
//
// Conservative PDES windowing (the classic lookahead recipe): between
// barriers, shard s drains only events with time < window_end, where
//
//     window_end = min(t_min + lookahead, next control time)
//
// and `lookahead` is the minimum link latency over cross-shard arcs
// (ShardedNetwork computes it; must be > 0).  A cross-shard message
// created at time t >= t_min arrives at t + latency >= window_end, so
// buffering it in a per-(source, dest) outbox and merging at the
// barrier — destinations pull boxes in ascending source-shard order,
// each box already in creation order — cannot miss its execution slot.
// Within a window shards only touch their own state; control events
// (crash/recover/link/partition mutations) run serially between
// windows, so shared network state is read-only while lanes are hot —
// the engine is race-free by phase structure, not by locks.  All
// cross-shard access in the engine goes through `peer_shard()`, which
// the determinism linter flags outside the audited barrier-exchange
// sites.
//
// Queue mechanics: each shard, and the control lane, owns one monotone
// radix time queue (time_queue.h — the single-queue engine's queue), with
// 40-byte inline events and slab free-list callback slots.  When a shard
// reaches a timestamp, the queue's front run holds that timestamp's
// events; the drain sorts it in place by canonical key, and same-time
// events created *during* the drain go to a small per-shard min-heap
// merged against the sorted remainder — "slot by key among the
// unexecuted events", the parallel analogue of the serial engine's
// append-behind-head.  Times are monotone per queue: env and control
// scheduling must be at or after env_now() (always checked), a window
// handler's at or after its shard's now() (checked; debug-only on the
// per-message deliver path).  A shard that stops at a window end or a
// run_until deadline keeps its current time at its last executed
// timestamp, so scheduling at exactly that time between windows lands
// in the front run and still executes.
//
// What is NOT invariant: the per-timestamp event histogram
// (sim.bucket_events) depends on how timestamps split across shards,
// so this engine deliberately never records it; and chaos / per-send
// latency draws come from per-directed-arc Rng streams
// (Rng::stream(seed, arc)) instead of one shared generator, so lossy
// sharded runs are S-invariant but not draw-for-draw comparable to the
// single-queue engine (same documented-semantic-change precedent as
// the PR 3 engine rewrite).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "flooding/time_queue.h"
#include "obs/obs.h"

namespace lhg::flooding {

class ShardedSimulator {
 public:
  /// Same inline-capture budget as the single-queue engine.
  static constexpr std::size_t kInlineCallbackCapacity = 48;

  /// Origin id of environment-scheduled events (setup, failure plans);
  /// sorts before every node origin at the same timestamp.
  static constexpr std::int32_t kEnvOrigin = -1;

  /// Receiver of deliver events; `shard` is the executing (receiver-
  /// owning) shard, so sinks can index per-shard state race-free.
  class DeliverSink {
   public:
    virtual void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                                    std::int32_t to, std::int32_t link,
                                    std::int64_t message) = 0;

   protected:
    ~DeliverSink() = default;
  };

  /// Nodes [0, num_nodes) are split into `num_shards` contiguous
  /// blocks of ceil(n / S) (the last may be smaller); shard count is
  /// clamped to [1, num_nodes].
  ShardedSimulator(std::int32_t num_nodes, std::int32_t num_shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  std::int32_t num_nodes() const { return num_nodes_; }
  std::int32_t shard_of(std::int32_t node) const { return node / block_; }

  void set_deliver_sink(DeliverSink* sink) { sink_ = sink; }

  /// Conservative window length: the minimum latency over cross-shard
  /// arcs (ShardedNetwork::min_cross_shard_latency).  Must be > 0;
  /// +infinity (the default) means "no cross-shard traffic exists" and
  /// windows stretch to the next control event.
  void set_lookahead(double lookahead) {
    LHG_CHECK(lookahead > 0.0,
              "ShardedSimulator: lookahead {} must be > 0 (zero-latency "
              "cross-shard links cannot be windowed conservatively)",
              lookahead);
    lookahead_ = lookahead;
  }
  double lookahead() const { return lookahead_; }

  /// Per-shard observability taps (size must equal num_shards(), or
  /// empty to disable).  Counts executed events by kind; the per-
  /// timestamp histogram is intentionally not recorded (not S-invariant).
  void set_obs(std::vector<const obs::SimObs*> per_shard) {
    LHG_CHECK(per_shard.empty() ||
                  per_shard.size() == shards_.size(),
              "ShardedSimulator: {} obs taps for {} shards", per_shard.size(),
              shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].obs = per_shard.empty() ? nullptr : per_shard[s];
    }
  }

  /// True outside parallel windows (setup, control phases, after run):
  /// the phases in which shared state may be mutated.
  bool in_serial_phase() const { return !in_windows_; }

  /// Virtual time of one shard (its last drained timestamp).
  double now(std::int32_t shard) const {
    return shards_[static_cast<std::size_t>(shard)].now;
  }
  /// Virtual time of the serial phases: the last control event or
  /// deadline, and after a run at least every shard's now().
  double env_now() const { return env_now_; }

  /// Schedules a control event: `fn()` runs serially at `time`, between
  /// windows, before any shard executes an event with time >= `time`.
  /// Callable only from serial phases (setup or other control events).
  template <typename F>
  void schedule_control_at(double time, F&& fn) {
    LHG_CHECK(in_serial_phase(),
              "ShardedSimulator: control events must be scheduled from a "
              "serial phase, not from inside a window");
    LHG_CHECK(time == time && time >= env_now_,
              "ShardedSimulator: control time {} is NaN or before now {}",
              time, env_now_);
    const std::int32_t id = env_alloc_slot();
    store_callback(env_slot(static_cast<std::uint32_t>(id)).callback,
                   std::forward<F>(fn), env_heap_allocs_);
    control_.push(ControlQueue::key_of(time), id);
  }

  /// Schedules `fn(shard)` to run at `time` on the shard owning
  /// `owner`.  `ctx` is the calling context: the executing shard index
  /// inside a window (must own `owner`), or kEnvOrigin from a serial
  /// phase.  The event's canonical origin is the acting node of the
  /// creating event (or the environment).
  template <typename F>
  void schedule_node_at(std::int32_t ctx, double time, std::int32_t owner,
                        F&& fn) {
    LHG_CHECK_RANGE(owner, num_nodes_);
    Shard& dst = shards_[static_cast<std::size_t>(shard_of(owner))];
    Event ev;
    ev.canon = make_key(ctx);
    ev.message = 0;
    ev.from = owner;
    ev.to = owner;
    ev.kind = kCallback;
    if (ctx == kEnvOrigin) {
      LHG_CHECK(in_serial_phase(),
                "ShardedSimulator: env-context scheduling inside a window");
      check_time_env(time);
    } else {
      LHG_DCHECK(shard_of(owner) == ctx,
                 "ShardedSimulator: node {} scheduled from shard {} but owned "
                 "by shard {}",
                 owner, ctx, shard_of(owner));
      check_time_shard(dst, time);
    }
    const std::int32_t id = shard_alloc_slot(dst);
    store_callback(shard_slot(dst, static_cast<std::uint32_t>(id)).callback,
                   std::forward<F>(fn), dst.heap_allocs);
    ev.link = id;
    enqueue(dst, Queue::key_of(time), ev);
  }

  /// Schedules delivery of `message` over `link` at absolute `time`.
  /// From a window context `ctx` (the sender's shard), a cross-shard
  /// delivery is buffered in the outbox and merged at the barrier — its
  /// time must be >= the current window end, which the lookahead
  /// contract guarantees.  From a serial phase pass ctx = kEnvOrigin.
  /// Inside a window the time contract is debug-only (LHG_DCHECK).
  void schedule_deliver_at(std::int32_t ctx, double time, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    Event ev;
    ev.canon = make_key(ctx);
    ev.message = message;
    ev.from = from;
    ev.to = to;
    ev.link = link;
    ev.kind = kDeliver;
    const std::int32_t dst = shard_of(to);
    if (ctx == kEnvOrigin) {
      LHG_CHECK(in_serial_phase(),
                "ShardedSimulator: env-context scheduling inside a window");
      check_time_env(time);
      enqueue(shards_[static_cast<std::size_t>(dst)], Queue::key_of(time), ev);
      return;
    }
    Shard& src = shards_[static_cast<std::size_t>(ctx)];
    LHG_DCHECK(time >= src.now,
               "ShardedSimulator: time {} is NaN or before shard now {}", time,
               src.now);
    if (dst == ctx) {
      enqueue(src, Queue::key_of(time), ev);
      return;
    }
    LHG_DCHECK(time >= window_end_,
               "ShardedSimulator: cross-shard delivery at {} inside window "
               "ending {} — lookahead too large for this link",
               time, window_end_);
    src.outbox[static_cast<std::size_t>(dst)].push_back(
        Queue::Item{Queue::key_of(time), ev});
  }

  /// Runs all events (window loop + control phases) until every queue
  /// drains, then checks that every queue bucket is empty.
  void run() { run_impl(0.0, /*bounded=*/false); }

  /// Runs events with time <= `deadline` (not NaN); later events stay
  /// queued.
  void run_until(double deadline) { run_impl(deadline, /*bounded=*/true); }

  /// Events executed so far (deliver + callback + control) — the same
  /// total at any shard or thread count.
  std::int64_t events_processed() const;

  /// Events still queued across all shards, outboxes and the control
  /// lane.
  std::size_t pending() const;

  /// Callback slots ever carved across all shard slabs (plus the
  /// control slab) — the zero-allocation high-water mark, as in
  /// event_sim.h.
  std::int64_t slots_created() const;
  std::int64_t callback_heap_allocations() const;

 private:
  enum Kind : std::uint32_t { kDeliver = 0, kCallback = 1 };

  struct CallbackPayload {
    void (*invoke)(void* storage, std::int32_t shard);
    void (*destroy)(void* storage);
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackCapacity];
  };

  struct Slot {
    union {
      CallbackPayload callback;
      std::int32_t next_free;
    };
  };

  /// Payload of one queued event.  `canon` is the canonical tie-break
  /// ((origin + 1) << 32 | seq); the time is the queue item's key.
  /// Callback events carry the owner node in `from`/`to` and the slab
  /// slot id in `link`.
  struct Event {
    std::uint64_t canon;
    std::int64_t message;
    std::int32_t from;
    std::int32_t to;
    std::int32_t link;
    std::uint32_t kind;
  };
  using Queue = TimeQueue<Event>;
  static_assert(sizeof(Queue::Item) <= 40, "queued event should stay compact");
  using ControlQueue = TimeQueue<std::int32_t>;  // control slab slot ids

  struct Shard {
    Queue queue;

    // Drain state.
    double now = 0.0;
    bool draining = false;
    std::vector<Event> late;  // min-heap by canon: same-time mid-drain inserts
    std::int32_t origin = kEnvOrigin;  // acting node while dispatching

    // Callback slab (free-listed chunks, stable addresses).
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::int32_t free_head = -1;
    std::int64_t slots_created = 0;
    std::int64_t heap_allocs = 0;

    // Cross-shard deliveries created this window, one box per dest.
    std::vector<std::vector<Queue::Item>> outbox;

    std::int64_t processed = 0;
    const obs::SimObs* obs = nullptr;
  };

  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Canonical key of an event created in context `ctx`: the acting
  /// node's (origin, seq) pair, or the env counter.  Packs into 64 bits
  /// so front-run sorting compares one integer.
  std::uint64_t make_key(std::int32_t ctx) {
    if (ctx == kEnvOrigin) {
      return static_cast<std::uint64_t>(env_seq_for_key_++);
    }
    Shard& sh = shards_[static_cast<std::size_t>(ctx)];
    const auto origin = static_cast<std::uint32_t>(sh.origin + 1);
    const std::uint32_t seq =
        node_seq_[static_cast<std::size_t>(sh.origin)]++;
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  }

  /// env_now() is at or after every shard's now() in serial phases, so
  /// this check also keeps each shard's queue monotone.
  void check_time_env(double time) const {
    LHG_CHECK(time == time && time >= env_now_,
              "ShardedSimulator: time {} is NaN or before now {}", time,
              env_now_);
  }
  void check_time_shard(const Shard& sh, double time) const {
    LHG_CHECK(time == time && time >= sh.now,
              "ShardedSimulator: time {} is NaN or before shard now {}", time,
              sh.now);
  }

  template <typename F>
  static void store_callback(CallbackPayload& cb, F&& fn,
                             std::int64_t& heap_allocs) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCallbackCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(cb.storage)) Fn(std::forward<F>(fn));
      cb.invoke = [](void* p, std::int32_t shard) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        (*f)(shard);
        f->~Fn();
      };
      cb.destroy = [](void* p) {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      ++heap_allocs;
      Fn* owned = new Fn(std::forward<F>(fn));
      std::memcpy(cb.storage, &owned, sizeof owned);
      cb.invoke = [](void* p, std::int32_t shard) {
        Fn* f = *reinterpret_cast<Fn**>(p);
        (*f)(shard);
        delete f;
      };
      cb.destroy = [](void* p) { delete *reinterpret_cast<Fn**>(p); };
    }
  }

  // --- Shard slab ---
  Slot& shard_slot(Shard& sh, std::uint32_t id) {
    return sh.chunks[id >> kChunkShift][id & (kChunkSize - 1)];
  }
  std::int32_t shard_alloc_slot(Shard& sh) {
    if (sh.free_head >= 0) {
      const std::int32_t id = sh.free_head;
      sh.free_head = shard_slot(sh, static_cast<std::uint32_t>(id)).next_free;
      return id;
    }
    const auto id = static_cast<std::int32_t>(sh.slots_created);
    if ((static_cast<std::uint32_t>(id) & (kChunkSize - 1)) == 0) {
      sh.chunks.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++sh.slots_created;
    return id;
  }
  void shard_free_slot(Shard& sh, std::uint32_t id) {
    shard_slot(sh, id).next_free = sh.free_head;
    sh.free_head = static_cast<std::int32_t>(id);
  }

  // --- Control slab ---
  Slot& env_slot(std::uint32_t id) {
    return env_chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }
  std::int32_t env_alloc_slot() {
    if (env_free_head_ >= 0) {
      const std::int32_t id = env_free_head_;
      env_free_head_ = env_slot(static_cast<std::uint32_t>(id)).next_free;
      return id;
    }
    const auto id = static_cast<std::int32_t>(env_slots_created_);
    if ((static_cast<std::uint32_t>(id) & (kChunkSize - 1)) == 0) {
      env_chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++env_slots_created_;
    return id;
  }

  /// Cross-shard accessor.  Every use outside the audited barrier-
  /// exchange path is a determinism bug; the linter flags call sites.
  // lint: allow(cross-shard-state): accessor definition, not a use —
  // call sites carry their own justifications.
  Shard& peer_shard(std::int32_t s) {
    return shards_[static_cast<std::size_t>(s)];
  }

  /// Same-time events created while their timestamp is being drained
  /// slot into the remaining execution by canonical key (the front run
  /// is already sorted); everything else goes to the time queue.
  void enqueue(Shard& sh, std::uint64_t key, const Event& ev) {
    if (sh.draining && key == sh.queue.current_key()) {
      late_push(sh, ev);
    } else {
      sh.queue.push(key, ev);
    }
  }

  void late_push(Shard& sh, const Event& ev);
  Event late_pop(Shard& sh);
  void dispatch(Shard& sh, std::int32_t shard_idx, const Event& ev);
  void drain_window(std::int32_t s, std::uint64_t limit);
  void exchange();
  void run_control();
  void run_impl(double deadline, bool bounded);
  void destroy_pending_callbacks();

  std::int32_t num_nodes_;
  std::int32_t block_;  // nodes per shard (ceil division)
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> node_seq_;  // per-origin creation counters
  std::uint64_t env_seq_for_key_ = 0;    // env-origin key counter
  DeliverSink* sink_ = nullptr;
  double lookahead_ = std::numeric_limits<double>::infinity();
  double env_now_ = 0.0;
  double window_end_ = 0.0;
  bool in_windows_ = false;

  ControlQueue control_;  // runs in (time, scheduling) order
  std::vector<std::unique_ptr<Slot[]>> env_chunks_;
  std::int32_t env_free_head_ = -1;
  std::int64_t env_slots_created_ = 0;
  std::int64_t env_heap_allocs_ = 0;
  std::int64_t env_processed_ = 0;
};

}  // namespace lhg::flooding
