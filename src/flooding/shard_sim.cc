#include "flooding/shard_sim.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/parallel.h"

namespace lhg::flooding {

namespace {

using OwnerSpare = core::Spare<std::vector<std::int32_t>>;
using SeqSpare = core::Spare<std::vector<std::uint32_t>>;
using HeadSpare = core::Spare<core::ZeroedWords>;

/// Nodes per block of the id-block partition: ceil(n / S), with S
/// clamped to [1, n].
std::int32_t block_size(std::int32_t num_nodes, std::int32_t num_shards) {
  LHG_CHECK(num_nodes > 0, "ShardedSimulator: need at least one node, got {}",
            num_nodes);
  LHG_CHECK(num_shards > 0, "ShardedSimulator: shard count {} must be > 0",
            num_shards);
  const std::int32_t shards = std::min(num_shards, num_nodes);
  return (num_nodes + shards - 1) / shards;
}

std::vector<std::int32_t> block_owners(std::int32_t num_nodes,
                                       std::int32_t num_shards) {
  const std::int32_t block = block_size(num_nodes, num_shards);
  std::vector<std::int32_t> owner = OwnerSpare::take();
  owner.resize(static_cast<std::size_t>(num_nodes));
  for (std::int32_t v = 0; v < num_nodes; ++v) {
    owner[static_cast<std::size_t>(v)] = v / block;
  }
  return owner;
}

/// Blocks the id-block partition fills: ceil(n / block), which can be
/// below the clamped S (n = 10, S = 8 gives five blocks of two).
std::int32_t block_count(std::int32_t num_nodes, std::int32_t num_shards) {
  const std::int32_t block = block_size(num_nodes, num_shards);
  return (num_nodes + block - 1) / block;
}

}  // namespace

ShardedSimulator::ShardedSimulator(std::vector<std::int32_t> owner,
                                   std::int32_t num_shards)
    : num_nodes_(static_cast<std::int32_t>(owner.size())),
      owner_(std::move(owner)) {
  LHG_CHECK(!owner_.empty(), "ShardedSimulator: need at least one node");
  LHG_CHECK(num_shards > 0, "ShardedSimulator: shard count {} must be > 0",
            num_shards);
  for (std::size_t v = 0; v < owner_.size(); ++v) {
    LHG_CHECK(owner_[v] >= 0 && owner_[v] < num_shards,
              "ShardedSimulator: node {} owned by shard {}, outside [0, {})",
              v, owner_[v], num_shards);
  }
  // Built in place: a Shard owns a CallbackSlab and cannot move.
  shards_ = std::vector<Shard>(static_cast<std::size_t>(num_shards));
  for (Shard& sh : shards_) {
    sh.outbox.resize(shards_.size());
  }
  node_seq_ = SeqSpare::take();
  node_seq_.assign(owner_.size(), 0);
  heads_ = HeadSpare::take();
  if (heads_.capacity() < owner_.size()) {
    heads_ = core::ZeroedWords(owner_.size());
  }
}

ShardedSimulator::~ShardedSimulator() {
  OwnerSpare::give(std::move(owner_));
  SeqSpare::give(std::move(node_seq_));
  HeadSpare::give(std::move(heads_));
}

ShardedSimulator::ShardedSimulator(std::int32_t num_nodes,
                                   std::int32_t num_shards)
    : ShardedSimulator(block_owners(num_nodes, num_shards),
                       block_count(num_nodes, num_shards)) {}

void ShardedSimulator::dispatch(Shard& sh, std::int32_t shard_idx,
                                const Event& ev) {
  ++sh.processed;
  if (sh.obs != nullptr) {
    // Note: the serial engine's sim_bucket_events histogram is
    // deliberately NOT recorded here — per-shard timestamp batches
    // depend on how nodes split across shards, so they are not
    // S-invariant.
    sh.obs->add(ev.kind == kDeliver ? sh.obs->sim_deliver_events
                                    : sh.obs->sim_callback_events);
  }
  if (ev.kind == kDeliver) {
    // Canonical origin of anything this handler schedules: the acting
    // (receiving) node.
    sh.origin = ev.to;
    sink_->on_sharded_deliver(shard_idx, ev.from, ev.to, ev.link, ev.message);
  } else {
    sh.origin = ev.from;
    sh.callbacks.invoke(ev.link, shard_idx);
  }
  sh.origin = kEnvOrigin;
}

void ShardedSimulator::drain_window(std::int32_t s, std::uint64_t limit) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  while (sh.queue.advance(limit)) {
    // One generation per pass: the untaken front run as it stands, run
    // in push order except that each acting node's events run together
    // at its first position, in key order — the only order a handler
    // can observe (DESIGN.md §17).  Same-time events its handlers
    // schedule append behind it and are the next generation.
    sh.now = Queue::time_of(sh.queue.current_key());
    const std::size_t begin = sh.queue.front_taken();
    const std::size_t end = sh.queue.front_size();
    const auto node_key = [&sh](std::size_t i) {
      const Event& ev = sh.queue.front_at(i).payload;
      return std::pair(ev.to, ev.canon);
    };
    std::size_t grouped_end = begin + 1;
    while (grouped_end < end &&
           node_key(grouped_end - 1) < node_key(grouped_end)) {
      ++grouped_end;
    }
    if (grouped_end >= end) {
      // Ascending by (acting node, key), as is every one-event run.
      for (std::size_t i = begin; i < end; ++i) {
        dispatch(sh, s, sh.queue.pop_front().payload);
      }
    } else {
      run_by_node(sh, s, begin, end);
      sh.queue.take_front(end);
    }
  }
}

void ShardedSimulator::run_by_node(Shard& sh, std::int32_t s,
                                   std::size_t begin, std::size_t end) {
  LHG_CHECK(end < kNoPos, "ShardedSimulator: a front run of {} events "
            "overflows the 32-bit node lists", end);
  Queue& queue = sh.queue;
  const auto node_at = [&queue](std::size_t i) {
    return static_cast<std::size_t>(queue.front_at(i).payload.to);
  };
  // Link pass: each position joins the end of its node's list through
  // the front words, all but the first flagged kLater.  A head is its
  // node's last position + 1, and 0 outside this function; a nonzero
  // head is trusted only if it points into [begin, i) at its node's
  // event, which this pass linked (a sparse set, Briggs & Torczon 1993),
  // so heads a handler's exception left set need no clearing.
  for (std::size_t i = begin; i < end; ++i) {
    std::uint32_t& head = heads_[node_at(i)];
    const bool later = head > begin && head <= i &&
                       node_at(head - 1) == node_at(i);
    if (later) {
      std::uint64_t& prev = queue.front_word(head - 1);
      prev = (prev & kLater) | i;
    }
    queue.front_word(i) = later ? kLater | kNoPos : kNoPos;
    head = static_cast<std::uint32_t>(i + 1);
  }
  // Run pass: at a node's first position, its whole list, by key.
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t next = queue.front_word(i);
    if ((next & kLater) != 0) continue;  // ran at its first position
    heads_[node_at(i)] = 0;
    if (next == kNoPos) {
      dispatch(sh, s, queue.front_at(i).payload);
      continue;
    }
    sh.group.clear();
    for (std::uint64_t p = i; p != kNoPos; p = queue.front_word(p) & ~kLater) {
      sh.group.push_back(static_cast<std::uint32_t>(p));
    }
    std::sort(sh.group.begin(), sh.group.end(),
              [&queue](std::uint32_t a, std::uint32_t b) {
                return queue.front_at(a).payload.canon <
                       queue.front_at(b).payload.canon;
              });
    for (const std::uint32_t p : sh.group) {
      dispatch(sh, s, queue.front_at(p).payload);
    }
  }
}

void ShardedSimulator::exchange() {
  // The one sanctioned cross-shard touch point, at the barrier after
  // every lane has quiesced: one lane per destination pulls each
  // source's box for it in ascending shard order.  Box (s, d) is read
  // and cleared only by destination d's lane, and each destination's
  // pushes happen in the same order at any lane count.  Each box is
  // already in creation order and every entry's time is >= the closed
  // window's end, so merged events land after every destination's
  // current time and the canonical key ordering is preserved.
  const std::int32_t shards = num_shards();
  core::parallel_for(shards, /*grain=*/1, [&](std::int64_t d, int /*lane*/) {
    Shard& dst = shards_[static_cast<std::size_t>(d)];
    for (std::int32_t s = 0; s < shards; ++s) {
      if (s == d) continue;
      Shard& src = peer_shard(s);  // lint: allow(cross-shard-state): barrier exchange, one lane per destination, after every lane has quiesced
      src.outbox[static_cast<std::size_t>(d)].drain(
          [&dst](const Queue::Item& item) { dst.queue.push(item); });
    }
  });
}

void ShardedSimulator::run_control() {
  // All control events at the lane's next timestamp, in scheduling
  // order.  They run in a serial phase, so handlers may mutate shared
  // network state and schedule further control events (same-time ones
  // join this front run) or node events.
  control_.advance(ControlQueue::kNoKey);
  env_now_ = ControlQueue::time_of(control_.current_key());
  while (!control_.front_empty()) {
    control_callbacks_.invoke(control_.pop_front().payload, kEnvOrigin);
    ++env_processed_;
  }
}

void ShardedSimulator::run_impl(double deadline, bool bounded) {
  LHG_CHECK(!in_windows_, "ShardedSimulator: re-entrant run()");
  if (bounded) {
    LHG_CHECK(deadline == deadline,
              "ShardedSimulator::run_until: NaN deadline");
    if (deadline < 0.0) return;  // every event time is >= 0
  }
  const auto time_or_inf = [](std::uint64_t key) {
    return key == Queue::kNoKey ? std::numeric_limits<double>::infinity()
                                : Queue::time_of(key);
  };
  const std::int32_t shards = num_shards();
  for (;;) {
    std::uint64_t kmin = Queue::kNoKey;
    for (const Shard& sh : shards_) kmin = std::min(kmin, sh.queue.min_key());
    const double tmin = time_or_inf(kmin);
    const double tctl = time_or_inf(control_.min_key());
    const double next = std::min(tmin, tctl);
    if (next == std::numeric_limits<double>::infinity()) break;
    if (bounded && next > deadline) break;
    if (tctl <= tmin) {
      // Control runs strictly before any shard reaches its timestamp:
      // at equal times the serial engine would also run the (earlier-
      // scheduled) setup event first.
      run_control();
      continue;
    }
    // Conservative window [tmin, wend): a cross-shard message created
    // at t >= tmin arrives at t + lookahead >= wend, and no shared
    // state changes before tctl, so lanes are independent inside it.
    const double wend = std::min(tmin + lookahead_, tctl);
    window_end_ = wend;
    std::uint64_t limit = Queue::key_of(wend) - 1;  // t < wend
    if (bounded) limit = std::min(limit, Queue::key_of(deadline));
    in_windows_ = true;
    if (shards == 1) {
      drain_window(0, limit);
    } else {
      core::parallel_for(shards, /*grain=*/1,
                         [&](std::int64_t s, int /*lane*/) {
                           drain_window(static_cast<std::int32_t>(s), limit);
                         });
    }
    in_windows_ = false;
    exchange();
  }
  for (Shard& sh : shards_) {
    if (bounded && sh.now < deadline) sh.now = deadline;
    env_now_ = std::max(env_now_, sh.now);
  }
  if (bounded) {
    if (env_now_ < deadline) env_now_ = deadline;
    return;
  }
  bool queues_empty = control_.empty();
  for (const Shard& sh : shards_) queues_empty &= sh.queue.empty();
  LHG_CHECK(pending() == 0 && queues_empty,
            "ShardedSimulator::run: {} events left queued after the drain",
            pending());
}

std::int64_t ShardedSimulator::events_processed() const {
  std::int64_t total = env_processed_;
  for (const Shard& sh : shards_) total += sh.processed;
  return total;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t total = control_.size();
  for (const Shard& sh : shards_) {
    total += sh.queue.size();
    for (const Outbox& box : sh.outbox) total += box.size;
  }
  return total;
}

std::int64_t ShardedSimulator::slots_created() const {
  std::int64_t total = control_callbacks_.slots_created();
  for (const Shard& sh : shards_) total += sh.callbacks.slots_created();
  return total;
}

std::int64_t ShardedSimulator::callback_heap_allocations() const {
  std::int64_t total = control_callbacks_.heap_allocations();
  for (const Shard& sh : shards_) total += sh.callbacks.heap_allocations();
  return total;
}

}  // namespace lhg::flooding
