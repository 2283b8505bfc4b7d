#include "flooding/shard_sim.h"

#include <algorithm>

#include "core/parallel.h"

namespace lhg::flooding {

ShardedSimulator::ShardedSimulator(std::int32_t num_nodes,
                                   std::int32_t num_shards)
    : num_nodes_(num_nodes) {
  LHG_CHECK(num_nodes > 0, "ShardedSimulator: need at least one node, got {}",
            num_nodes);
  LHG_CHECK(num_shards > 0, "ShardedSimulator: shard count {} must be > 0",
            num_shards);
  const std::int32_t shards = std::min(num_shards, num_nodes);
  block_ = (num_nodes + shards - 1) / shards;
  // block_ >= 1, and ceil(n / block_) == shards by construction.
  shards_.resize(static_cast<std::size_t>((num_nodes + block_ - 1) / block_));
  for (Shard& sh : shards_) {
    sh.outbox.resize(shards_.size());
  }
  node_seq_.assign(static_cast<std::size_t>(num_nodes), 0);
}

ShardedSimulator::~ShardedSimulator() { destroy_pending_callbacks(); }

void ShardedSimulator::destroy_pending_callbacks() {
  // run_until can leave unexecuted events behind; destroy their
  // callables exactly as the serial engine's destructor does.  Between
  // windows the late heaps are empty and outboxes hold only deliver
  // events, so the shard queues and the control lane cover everything.
  for (Shard& sh : shards_) {
    sh.queue.for_each([&](const Queue::Item& item) {
      if (item.payload.kind == kCallback) {
        CallbackPayload& cb =
            shard_slot(sh, static_cast<std::uint32_t>(item.payload.link))
                .callback;
        cb.destroy(cb.storage);
      }
    });
  }
  control_.for_each([this](const ControlQueue::Item& item) {
    CallbackPayload& cb =
        env_slot(static_cast<std::uint32_t>(item.payload)).callback;
    cb.destroy(cb.storage);
  });
}

void ShardedSimulator::late_push(Shard& sh, const Event& ev) {
  sh.late.push_back(ev);
  std::push_heap(sh.late.begin(), sh.late.end(),
                 [](const Event& a, const Event& b) {
                   return a.canon > b.canon;
                 });
}

ShardedSimulator::Event ShardedSimulator::late_pop(Shard& sh) {
  std::pop_heap(sh.late.begin(), sh.late.end(),
                [](const Event& a, const Event& b) {
                  return a.canon > b.canon;
                });
  const Event ev = sh.late.back();
  sh.late.pop_back();
  return ev;
}

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
    // Invoke in place — slab chunk addresses are stable, so events the
    // callback schedules (which may carve new chunks) cannot move it.
    const auto id = static_cast<std::uint32_t>(ev.link);
    CallbackPayload& cb = shard_slot(sh, id).callback;
    cb.invoke(cb.storage, shard_idx);
    shard_free_slot(sh, id);
  }
  sh.origin = kEnvOrigin;
}

void ShardedSimulator::drain_window(std::int32_t s, std::uint64_t limit) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  while (sh.queue.advance(limit)) {
    // The front run holds every event of this timestamp.  Sort it once
    // by canonical key: the (origin, seq) order is total, so the sorted
    // run is independent of the order the events were pushed in.
    sh.now = Queue::time_of(sh.queue.current_key());
    sh.queue.sort_front(
        [](const Event& a, const Event& b) { return a.canon < b.canon; });
    // Execute as a two-way merge against the late heap: handlers may
    // schedule same-time events, which must slot among the unexecuted
    // remainder by key (keys only grow along a causal chain, so a late
    // event never sorts before its already-executed creator).
    sh.draining = true;
    while (!sh.queue.front_empty() || !sh.late.empty()) {
      const bool take_late =
          !sh.late.empty() &&
          (sh.queue.front_empty() ||
           sh.late.front().canon < sh.queue.front().payload.canon);
      const Event ev = take_late ? late_pop(sh) : sh.queue.pop_front().payload;
      dispatch(sh, s, ev);
    }
    sh.draining = false;
  }
}

void ShardedSimulator::exchange() {
  // The one sanctioned cross-shard touch point: destinations pull each
  // source's outbox in ascending shard order, at the barrier, after all
  // lanes have quiesced.  Each box is already in creation order and
  // every entry's time is >= the closed window's end, so merged events
  // land after every destination's current time and the canonical key
  // ordering is preserved.
  const std::int32_t shards = num_shards();
  for (std::int32_t d = 0; d < shards; ++d) {
    Shard& dst = shards_[static_cast<std::size_t>(d)];
    for (std::int32_t s = 0; s < shards; ++s) {
      if (s == d) continue;
      Shard& src = peer_shard(s);  // lint: allow(cross-shard-state): barrier exchange after lanes quiesce
      std::vector<Queue::Item>& box = src.outbox[static_cast<std::size_t>(d)];
      for (const Queue::Item& item : box) dst.queue.push(item);
      box.clear();
    }
  }
}

void ShardedSimulator::run_control() {
  // All control events at the lane's next timestamp, in scheduling
  // order.  They run in a serial phase, so handlers may mutate shared
  // network state and schedule further control events (same-time ones
  // join this front run) or node events.
  control_.advance(ControlQueue::kNoKey);
  env_now_ = ControlQueue::time_of(control_.current_key());
  while (!control_.front_empty()) {
    const std::int32_t id = control_.pop_front().payload;
    CallbackPayload& cb = env_slot(static_cast<std::uint32_t>(id)).callback;
    cb.invoke(cb.storage, kEnvOrigin);
    env_slot(static_cast<std::uint32_t>(id)).next_free = env_free_head_;
    env_free_head_ = id;
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
    total += sh.queue.size() + sh.late.size();
    for (const std::vector<Queue::Item>& box : sh.outbox) total += box.size();
  }
  return total;
}

std::int64_t ShardedSimulator::slots_created() const {
  std::int64_t total = env_slots_created_;
  for (const Shard& sh : shards_) total += sh.slots_created;
  return total;
}

std::int64_t ShardedSimulator::callback_heap_allocations() const {
  std::int64_t total = env_heap_allocs_;
  for (const Shard& sh : shards_) total += sh.heap_allocs;
  return total;
}

}  // namespace lhg::flooding
