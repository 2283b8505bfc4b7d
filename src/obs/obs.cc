#include "obs/obs.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace lhg::obs {

SimObs::SimObs(Registry* registry, TraceSink* sink, std::int32_t shard)
    : registry_(registry), sink_(sink), shard_(shard) {
  if (registry_ == nullptr) return;
  sim_deliver_events = registry_->counter("sim.deliver_events");
  sim_callback_events = registry_->counter("sim.callback_events");
  sim_bucket_events = registry_->histogram("sim.bucket_events");
  net_sent = registry_->counter("net.sent");
  net_delivered = registry_->counter("net.delivered");
  net_lost = registry_->counter("net.lost");
  net_duplicated = registry_->counter("net.duplicated");
  net_blocked = registry_->counter("net.blocked");
  net_dropped = registry_->counter("net.dropped");
  net_delay = registry_->histogram("net.delay_milliticks");
  link_data = registry_->counter("link.data");
  link_retransmits = registry_->counter("link.retransmits");
  link_acks = registry_->counter("link.acks");
  link_duplicates = registry_->counter("link.duplicates");
  link_overflows = registry_->counter("link.window_overflows");
  link_stale = registry_->counter("link.stale_retries");
  link_inflight = registry_->histogram("link.inflight_span");
  hb_beats = registry_->counter("hb.beats");
  hb_suspicions = registry_->counter("hb.suspicions");
  hb_false_suspicions = registry_->counter("hb.false_suspicions");
  repair_view_changes = registry_->counter("repair.view_changes");
  repair_handshakes = registry_->counter("repair.handshakes");
  repair_rewires = registry_->counter("repair.rewires");
  repair_confirms = registry_->counter("repair.confirm_messages");
  repair_vouched = registry_->counter("repair.suspicions_vouched");
}

Runtime::Runtime(const ObsConfig& config, std::int32_t shards)
    : config_(config) {
  if (!config_.enabled()) return;
  if (config_.metrics) {
    registry_ = std::make_unique<Registry>(shards);
  }
  if (config_.trace) {
    sinks_.reserve(static_cast<std::size_t>(shards));
    for (std::int32_t s = 0; s < shards; ++s) {
      sinks_.push_back(std::make_unique<TraceSink>(config_.trace_capacity));
    }
  }
  // One registering bundle, cloned per shard: the schema is registered
  // exactly once, so every shard's handles index the same slots.
  const SimObs base(registry_.get(), nullptr);
  shard_obs_.reserve(static_cast<std::size_t>(shards));
  for (std::int32_t s = 0; s < shards; ++s) {
    shard_obs_.push_back(base.for_shard(
        s, config_.trace ? sinks_[static_cast<std::size_t>(s)].get()
                         : nullptr));
  }
}

std::vector<const SimObs*> Runtime::shard_obs() const {
  std::vector<const SimObs*> taps;
  taps.reserve(shard_obs_.size());
  for (const SimObs& o : shard_obs_) taps.push_back(&o);
  return taps;
}

TraceLog Runtime::trace_log() const {
  if (sinks_.empty()) return TraceLog{};
  if (sinks_.size() == 1) return sinks_.front()->log();
  // Merge the shard rings by (time, shard index); within a shard the
  // ring order is preserved, so the merged log is deterministic at any
  // thread count.
  TraceLog merged;
  struct Cursor {
    std::size_t shard;
    TraceLog log;
  };
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    Cursor c{s, sinks_[s]->log()};
    merged.dropped += c.log.dropped;
    total += c.log.events.size();
    cursors.push_back(std::move(c));
  }
  struct Tagged {
    double time;
    std::size_t shard;
    std::size_t index;
  };
  std::vector<Tagged> order;
  order.reserve(total);
  for (const Cursor& c : cursors) {
    for (std::size_t i = 0; i < c.log.events.size(); ++i) {
      order.push_back(Tagged{c.log.events[i].time, c.shard, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Tagged& a, const Tagged& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });
  merged.events.reserve(total);
  for (const Tagged& t : order) {
    merged.events.push_back(cursors[t.shard].log.events[t.index]);
  }
  return merged;
}

}  // namespace lhg::obs
