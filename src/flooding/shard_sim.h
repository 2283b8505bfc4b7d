// Sharded deterministic discrete-event simulator: one large run spread
// over S per-shard time queues driven by core::parallel lanes.  Node v
// lives on shard owner[v], one n-entry table and the engine's only
// partition rule: either the caller's (lhg::ImplicitLhg::shard_owners
// deals whole LHG subtrees, so almost no arc crosses shards) or
// contiguous id blocks.  The table decides where events run, never
// what a node observes.
//
// Order.  Both engines run a timestamp breadth-first, by *generation*:
// the events queued at t when the engine reaches t are generation 0, and
// an event scheduled at its creator's own time is one generation later.
// Each event has a canonical key (origin node, per-origin creation seq),
// where the origin is the node whose handler created it (the
// environment — failure plans, protocol bootstraps — is origin -1 and
// sorts first), and an *acting node*: the receiver of a delivery, the
// owner of a callback.  A generation runs in push order, except that each
// acting node's events run together at its first position, in key order.
// Per-node order is all a result can depend on, because a handler
// touches only its acting node's state, the streams of that node's
// outgoing arcs (network.h), that node's key counter, and per-shard sums
// that commute (NetworkStats, obs counters).  Keys, generations and
// per-node orders do not depend on S (a same-time event never leaves its
// creator's shard, as the lookahead is > 0), so by induction every
// result is bit-identical at any shard and thread count (DESIGN.md §17).
// Different nodes' events interleave in push order, which depends on S,
// and so does the merged trace (obs::Runtime merges the shard rings by
// time, then shard); each node's subsequence of it does not.
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
// barrier — one lane per destination pulls its boxes in ascending
// source-shard order, each box already in creation order, so every
// destination sees the same pushes in the same order at any thread
// count — cannot miss its execution slot.
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
// 40-byte inline events, and one CallbackSlab (callback_slab.h, also the
// single-queue engine's).  Queue segments and outbox blocks are blocks
// of the process-wide SegmentPool (segment_pool.h), and the per-node
// tables are process-wide spares (core/spare.h), so the next engine of
// the process reuses resident memory.  When a shard reaches a
// timestamp, the queue's untaken front run is one generation in push
// order, drained without moving an item:
//
//   * one pass checks whether the run ascends by (acting node, key),
//     always true for a one-event run, so nearly every run of a
//     per-link-latency flood; that is the rule's order, executed in place;
//   * otherwise run_by_node links each position into its node's list
//     through the item's front word (time_queue.h), with one 32-bit head
//     per node, and at each node's first position sorts that node's
//     positions by key and runs them.
//
// Same-time events created *during* the drain are plain pushes: they
// append behind the generation being executed and form the next one,
// which runs next — the serial engine's append-behind-head.  Times are
// monotone per queue: env and control scheduling must be at or after
// env_now() (always checked), a window handler's at or after its shard's
// now() (checked; debug-only on the per-message deliver path).  A shard
// that stops at a window end or a run_until deadline keeps its current
// time at its last executed timestamp, so scheduling at exactly that
// time between windows lands in the front run and still executes, as a
// generation of its own.
//
// What is NOT invariant: the per-timestamp event histogram
// (sim.bucket_events) depends on how timestamps split across shards,
// so this engine deliberately never records it.  Channel draws are
// S-invariant: both networks draw them from per-directed-arc streams
// (network.h), so a lossy run equals the single queue's whenever no
// node runs two events of one generation at one timestamp — this engine
// runs such events in key order, the single queue in insertion order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/spare.h"
#include "flooding/callback_slab.h"
#include "flooding/segment_pool.h"
#include "flooding/time_queue.h"
#include "obs/obs.h"

namespace lhg::flooding {

class ShardedSimulator {
 public:
  /// Same inline-capture budget as the single-queue engine.
  static constexpr std::size_t kInlineCallbackCapacity =
      CallbackSlab<std::int32_t>::kInlineCapacity;

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

  /// Node v lives on shard `owner[v]`; the table fixes the node count
  /// (owner.size(), at least one) and every entry must lie in
  /// [0, num_shards).  A shard may own no node: it never has work.
  /// The partition changes where events run, not which run or in what
  /// order, so results do not depend on it (DESIGN.md §17).
  ShardedSimulator(std::vector<std::int32_t> owner, std::int32_t num_shards);

  /// Nodes [0, num_nodes) split into contiguous blocks of ceil(n / S)
  /// (the last may be smaller), one shard per block, with S clamped to
  /// [1, num_nodes] first: the partition for topologies without a
  /// shard_owners() of their own.
  ShardedSimulator(std::int32_t num_nodes, std::int32_t num_shards);

  /// Hands the per-node tables to the process's spares (core/spare.h)
  /// for the next engine.
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  std::int32_t num_nodes() const { return num_nodes_; }
  std::int32_t shard_of(std::int32_t node) const {
    return owner_[static_cast<std::size_t>(node)];
  }

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
    control_.push(ControlQueue::key_of(time),
                  control_callbacks_.store(std::forward<F>(fn)));
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
    ev.link = dst.callbacks.store(std::forward<F>(fn));
    dst.queue.push(Queue::key_of(time), ev);
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
      shards_[static_cast<std::size_t>(dst)].queue.push(Queue::key_of(time),
                                                        ev);
      return;
    }
    Shard& src = shards_[static_cast<std::size_t>(ctx)];
    LHG_DCHECK(time >= src.now,
               "ShardedSimulator: time {} is NaN or before shard now {}", time,
               src.now);
    if (dst == ctx) {
      src.queue.push(Queue::key_of(time), ev);
      return;
    }
    LHG_DCHECK(time >= window_end_,
               "ShardedSimulator: cross-shard delivery at {} inside window "
               "ending {} — lookahead too large for this link",
               time, window_end_);
    src.outbox[static_cast<std::size_t>(dst)].push(
        Queue::Item{Queue::key_of(time), ev}, src.outbox_blocks);
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

  /// End of a node's list of front positions, and the flag of a
  /// position that is not its node's first (run_by_node).
  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};
  static constexpr std::uint64_t kLater = std::uint64_t{1} << 63;

  /// Cross-shard deliveries from one shard to one other, in creation
  /// order: a chain of pool blocks (segment_pool.h), drawn from the
  /// source shard's cache, that the box keeps across windows and hands
  /// back when its shard goes.  It draws a block only when it outgrows
  /// its largest window so far, never copies to grow, and holds at most
  /// one partial block of slack, where a doubling vector holds up to
  /// its size again.
  struct Outbox {
    static constexpr std::size_t kBlockItems =
        SegmentPool::kBlockBytes / sizeof(Queue::Item);
    std::vector<Queue::Item*> blocks;
    std::size_t size = 0;

    void push(const Queue::Item& item, SegmentCache& cache) {
      if (size == blocks.size() * kBlockItems) {
        blocks.push_back(reinterpret_cast<Queue::Item*>(cache.get()));
      }
      ::new (static_cast<void*>(
          &blocks[size / kBlockItems][size % kBlockItems])) Queue::Item(item);
      ++size;
    }
    /// Hands every item to `fn` in push order, then empties the box
    /// (its blocks stay).
    template <typename F>
    void drain(F&& fn) {
      for (std::size_t i = 0; i < size; ++i) {
        fn(blocks[i / kBlockItems][i % kBlockItems]);
      }
      size = 0;
    }
    /// Returns every block to `cache`.
    void release(SegmentCache& cache) {
      for (Queue::Item* block : blocks) {
        cache.put(reinterpret_cast<std::byte*>(block));
      }
      blocks.clear();
      size = 0;
    }
  };

  // Cache-line aligned: a lane writes its shard's fields on every event,
  // and a line shared with a neighbour shard slowed it by half.
  struct alignas(64) Shard {
    Shard() = default;
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;
    ~Shard() {
      for (Outbox& box : outbox) box.release(outbox_blocks);
    }

    Queue queue;

    // Drain state.
    double now = 0.0;
    std::int32_t origin = kEnvOrigin;  // acting node while dispatching
    std::vector<std::uint32_t> group;  // one node's positions, by key

    CallbackSlab<std::int32_t> callbacks;  // invoked with the shard index

    // Cross-shard deliveries created this window, one box per dest,
    // and the vacant blocks they draw from (this shard's lane only).
    SegmentCache outbox_blocks;
    std::vector<Outbox> outbox;

    std::int64_t processed = 0;
    const obs::SimObs* obs = nullptr;
  };

  /// Canonical key of an event created in context `ctx`: the acting
  /// node's (origin, seq) pair, or the env counter.  Packs into 64 bits
  /// so ordering a node's events compares one integer.
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

  /// Cross-shard accessor.  Every use outside the audited barrier-
  /// exchange path is a determinism bug; the linter flags call sites.
  // lint: allow(cross-shard-state): accessor definition, not a use —
  // call sites carry their own justifications.
  Shard& peer_shard(std::int32_t s) {
    return shards_[static_cast<std::size_t>(s)];
  }

  void dispatch(Shard& sh, std::int32_t shard_idx, const Event& ev);
  /// Runs front positions [begin, end), one acting node at a time.
  void run_by_node(Shard& sh, std::int32_t s, std::size_t begin,
                   std::size_t end);
  void drain_window(std::int32_t s, std::uint64_t limit);
  void exchange();
  void run_control();
  void run_impl(double deadline, bool bounded);

  std::int32_t num_nodes_;
  std::vector<std::int32_t> owner_;  // shard of each node
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> node_seq_;  // per-origin creation counters
  // Per node, 1 + its last front position in the run run_by_node is
  // linking, else 0 (run_by_node).
  core::ZeroedWords heads_;
  std::uint64_t env_seq_for_key_ = 0;    // env-origin key counter
  DeliverSink* sink_ = nullptr;
  double lookahead_ = std::numeric_limits<double>::infinity();
  double env_now_ = 0.0;
  double window_end_ = 0.0;
  bool in_windows_ = false;

  ControlQueue control_;  // runs in (time, scheduling) order
  CallbackSlab<std::int32_t> control_callbacks_;  // invoked with kEnvOrigin
  std::int64_t env_processed_ = 0;
};

}  // namespace lhg::flooding
