// Sharded message-passing network: the fault model of network.h on top
// of the ShardedSimulator's phase-structured parallelism.
//
// ShardedNetwork derives from the same `FaultModel` as BasicNetwork
// (network.h): one copy of the crash/link/partition state, the counted
// fault windows, the send/deliver checks and the channel with its
// per-directed-arc streams.  What this file adds is the state split the
// sharded engine needs:
//
//   * Shared, read-only during windows — crash and link-failure counts,
//     open cuts, the per-link latency table (all in FaultModel).
//     apply_failure_plan (failure.h) changes them at setup or in
//     *control events*, which run in the simulator's serial phases, so
//     lanes never observe a mutation mid-window; the engine's barrier
//     structure is the synchronization.
//
//   * Per-directed-arc, owned by the sender's shard — the channel
//     streams and Gilbert–Elliott state in FaultModel.  An arc draws
//     only at its sending node, in that node's execution order, which
//     the engine keeps canonical (shard_sim.h), so lossy runs are
//     invariant across shard/thread counts.
//
//   * Per-shard, owned by one lane — NetworkStats and the obs::SimObs
//     taps, which FaultModel keeps per shard (one per shard here).
//
// Lookahead: `min_cross_shard_latency()` returns the minimum latency a
// message can take across an arc whose endpoints land in different
// shards.  Under per-link latency that is a scan of every arc; under
// fixed and per-send latency every arc's floor is `base`, so the first
// cross-shard arc settles it, and one shard has none.  The constructor
// installs it as the simulator's lookahead; zero-latency cross-shard
// links are rejected there — a conservative window needs strictly
// positive lookahead.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/network.h"
#include "flooding/shard_sim.h"

namespace lhg::flooding {

template <typename Topology>
class ShardedNetwork final
    : public FaultModel<ShardedNetwork<Topology>, Topology>,
      private ShardedSimulator::DeliverSink {
  using Base = FaultModel<ShardedNetwork<Topology>, Topology>;
  friend Base;

 public:
  /// `topology` and `sim` must outlive the network.  `rng` is drawn
  /// from here only, exactly as by BasicNetwork (network.h).
  ShardedNetwork(const Topology& topology, ShardedSimulator& sim,
                 LatencySpec latency, core::Rng& rng, const ChaosSpec& chaos)
      : Base(topology, latency, rng, chaos, sim.num_shards()), sim_(&sim) {
    sim_->set_deliver_sink(this);
    const double la = min_cross_shard_latency();
    if (la < std::numeric_limits<double>::infinity()) sim_->set_lookahead(la);
  }

  ShardedSimulator& simulator() { return *sim_; }

  /// Per-shard observability taps (empty to disable; otherwise size ==
  /// num_shards()).  Shard s's tap is only touched by lane-owned shard
  /// s, plus control-phase events for nodes it owns.
  void set_obs(std::vector<const obs::SimObs*> per_shard) {
    LHG_CHECK(per_shard.empty() ||
                  per_shard.size() == this->accounts_.size(),
              "ShardedNetwork: {} obs taps for {} shards", per_shard.size(),
              this->accounts_.size());
    for (std::size_t s = 0; s < this->accounts_.size(); ++s) {
      this->accounts_[s].obs = per_shard.empty() ? nullptr : per_shard[s];
    }
  }

  /// Minimum latency a message can experience on a cross-shard arc
  /// (+infinity when every edge is shard-internal).  The conservative
  /// window length; recompute and re-install after changing latency
  /// classes.  One shard has no cross-shard arc, and under kFixed and
  /// kUniformPerSend every arc's floor is `base`, so only per-link
  /// latency scans every arc.
  double min_cross_shard_latency() const {
    constexpr double kNone = std::numeric_limits<double>::infinity();
    if (sim_->num_shards() == 1) return kNone;
    const Topology& topology = this->topology();
    const std::int64_t n = topology.num_nodes();
    const auto crosses = [&](core::NodeId u, std::int32_t i) {
      return sim_->shard_of(u) != sim_->shard_of(topology.neighbor(u, i));
    };
    if (this->latency_.kind != LatencySpec::Kind::kUniformPerLink) {
      for (std::int64_t u = 0; u < n; ++u) {
        const auto uid = static_cast<core::NodeId>(u);
        const std::int32_t deg = topology.degree(uid);
        for (std::int32_t i = 0; i < deg; ++i) {
          if (crosses(uid, i)) return this->latency_.base;
        }
      }
      return kNone;
    }
    return core::parallel_reduce(
        n, /*grain=*/1024, kNone,
        [&](std::int64_t begin, std::int64_t end, int /*lane*/) {
          double local = kNone;
          for (std::int64_t u = begin; u < end; ++u) {
            const auto uid = static_cast<core::NodeId>(u);
            const std::int32_t deg = topology.degree(uid);
            for (std::int32_t i = 0; i < deg; ++i) {
              if (!crosses(uid, i)) continue;
              local = std::min(
                  local, this->link_latency_[static_cast<std::size_t>(
                             topology.incident_edge(uid, i))]);
            }
          }
          return local;
        },
        [](double a, double b) { return std::min(a, b); });
  }

  /// Handler invoked on delivery: (executing shard, receiver, sender,
  /// message id).  The shard index is the receiver's owner — handlers
  /// index per-shard protocol state with it, race-free.
  using ReceiveHandler = std::function<void(std::int32_t, core::NodeId,
                                            core::NodeId, std::int64_t)>;
  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }

  // --- Send path (window context; `shard` = the executing shard) ---------

  bool send(std::int32_t shard, core::NodeId from, core::NodeId to,
            std::int64_t message) {
    return send_link(shard, from, to, this->link_of(from, to, "send"),
                     message);
  }

  /// Same semantics as BasicNetwork::send_link; `shard` must be the
  /// shard owning `from` (the executing lane).
  bool send_link(std::int32_t shard, core::NodeId from, core::NodeId to,
                 std::int32_t link, std::int64_t message) {
    LHG_DCHECK(link == this->topology_->edge_index(from, to),
               "send_link: {} is not the edge id of ({}, {})", link, from, to);
    LHG_DCHECK(sim_->shard_of(from) == shard,
               "send_link: node {} sent from shard {} but lives on shard {}",
               from, shard, sim_->shard_of(from));
    return this->transmit(shard, from, to, link, message);
  }

 private:
  void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                          std::int32_t to, std::int32_t link,
                          std::int64_t message) override {
    if (this->admit_delivery(shard, from, to, link) && on_receive_) {
      on_receive_(shard, to, from, message);
    }
  }

  // --- FaultModel hooks: mutations are control events -------------------
  double now(std::int32_t shard) const { return sim_->now(shard); }
  template <typename F>
  void schedule_mutation(double at, F&& fn) {
    sim_->schedule_control_at(
        at, [fn = std::forward<F>(fn)](std::int32_t /*env*/) mutable { fn(); });
  }
  void trace_node(obs::TraceKind kind, core::NodeId node) const {
    const obs::SimObs* obs =
        this->accounts_[static_cast<std::size_t>(sim_->shard_of(node))].obs;
    if (obs != nullptr) obs->event(sim_->env_now(), kind, node);
  }
  void schedule_delivery(std::int32_t shard, double time, core::NodeId from,
                         core::NodeId to, std::int32_t link,
                         std::int64_t message) {
    sim_->schedule_deliver_at(shard, time, from, to, link, message);
  }

  ShardedSimulator* sim_;
  ReceiveHandler on_receive_;
};

}  // namespace lhg::flooding
