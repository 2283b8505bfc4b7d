// Deterministic flooding over any EdgeIndexedGraph topology.
//
// The flood protocol only needs degree / neighbor enumeration and dense
// edge ids from the overlay, so it is written once against the
// core::EdgeIndexedGraph concept and instantiated for both the
// materialized `core::Graph` (the concrete `flood` in protocols.h
// delegates here) and the storage-free `lhg::ImplicitLhg` view — the
// path that floods million-node overlays without ever materializing an
// edge.  Edge ids agree between the two forms (lhg/implicit.h), so the
// per-link state inside BasicNetwork is identical either way and the
// results are bit-for-bit equal (pinned by tests/test_implicit.cc).
//
// The single-queue body, detail::first_copy_flood, takes a relay
// predicate (self, neighbor, hops) -> bool: `flood` relays to every
// neighbor, and protocols.cc's probabilistic flood and tree multicast
// pass a coin flip and a BFS-parent test.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/graph_concept.h"
#include "flooding/protocols.h"
#include "flooding/shard_net.h"

namespace lhg::flooding {

namespace detail {

/// Fills the aggregate DisseminationResult fields from per-node state,
/// over the nodes `alive(u)` accepts.
template <typename Alive>
void finalize_dissemination(DisseminationResult& result, Alive&& alive) {
  result.alive_nodes = 0;
  result.delivered_alive = 0;
  result.completion_time = 0.0;
  result.completion_hops = 0;
  for (std::size_t u = 0; u < result.delivery_time.size(); ++u) {
    if (!alive(static_cast<core::NodeId>(u))) continue;
    ++result.alive_nodes;
    if (result.delivery_time[u] >= 0.0) {
      ++result.delivered_alive;
      result.completion_time =
          std::max(result.completion_time, result.delivery_time[u]);
      result.completion_hops =
          std::max(result.completion_hops, result.delivery_hops[u]);
    }
  }
}

/// Harvests a drained flood run on either engine: the network and
/// engine counters (checking NetworkStats conservation), the obs
/// output, and the aggregates over the final alive set.
template <typename Sim, typename Net>
void harvest_run(DisseminationResult& result, const Sim& sim, const Net& net,
                 const obs::Runtime& obs_rt) {
  result.net = net.stats();
  result.messages_sent = result.net.sent;
  result.events_processed = sim.events_processed();
  LHG_CHECK(result.net.conserved(),
            "dissemination run: NetworkStats not conserved");
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  finalize_dissemination(result,
                         [&](core::NodeId u) { return net.is_alive(u); });
}

/// The single-queue first-copy flood every overlay flood shares: the
/// source sends to its neighbors at time 0; a node forwards the first
/// copy it receives, never back to the sender, and absorbs duplicates.
/// `relay(self, neighbor, hops)` picks which of the remaining neighbors
/// (in adjacency order) get a copy carrying `hops`, the sender's hop
/// count (0 at the source).  The network draws its latency table and
/// arc seed from `rng` at construction (network.h), so a caller that
/// needs its own stream splits it off before calling; `cfg.seed` and
/// `cfg.shards` are ignored (the caller seeds `rng` and picks the
/// engine).
template <core::EdgeIndexedGraph Topology, typename Relay>
DisseminationResult first_copy_flood(const Topology& topology,
                                     const FloodConfig& cfg,
                                     const FailurePlan& failures,
                                     core::Rng& rng, Relay&& relay) {
  using core::NodeId;
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  Simulator sim;
  BasicNetwork<Topology> net(topology, sim, cfg.latency, rng, cfg.chaos);
  obs::Runtime obs_rt(cfg.obs);
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  apply_failure_plan(net, failures);

  DisseminationResult result;
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  result.delivery_time.assign(n, -1.0);
  result.delivery_hops.assign(n, -1);

  auto forward = [&](NodeId self, NodeId except, std::int32_t hops) {
    // Each send hands the network its dense edge id directly — no
    // per-neighbor adjacency search on the hot path.
    const std::int32_t deg = topology.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = topology.neighbor(self, i);
      if (v != except && relay(self, v, hops)) {
        net.send_link(self, v, topology.incident_edge(self, i), hops);
      }
    }
  };
  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t hops) {
    auto& t = result.delivery_time[static_cast<std::size_t>(self)];
    if (t >= 0.0) return;  // duplicate copy: absorb
    t = sim.now();
    result.delivery_hops[static_cast<std::size_t>(self)] =
        static_cast<std::int32_t>(hops) + 1;
    forward(self, from, static_cast<std::int32_t>(hops) + 1);
  });

  if (net.is_alive(cfg.source)) {
    result.delivery_time[static_cast<std::size_t>(cfg.source)] = 0.0;
    result.delivery_hops[static_cast<std::size_t>(cfg.source)] = 0;
    sim.schedule_at(0.0, [&] { forward(cfg.source, -1, 0); });
  }
  sim.run();
  harvest_run(result, sim, net, obs_rt);
  return result;
}

}  // namespace detail

/// Deterministic flooding on the sharded engine: the same protocol as
/// `flood`, with the node set split over `cfg.shards` time queues
/// driven by core::parallel lanes (shard_sim.h), S clamped to n.  A
/// topology with a `shard_owners(S)` partition (lhg::ImplicitLhg deals
/// whole subtrees) is split by it; any other by contiguous id blocks.
/// Results are bit-identical at any shard and thread count: the handler
/// touches only its own node's result entries and sends on its own arcs,
/// and the engine fixes each node's event order (shard_sim.h).  Channel
/// draws follow the single queue's rule (per-arc streams, network.h),
/// so a run is also bit-equal to the single-queue `flood` whenever no
/// node runs two events of one generation at one timestamp.  Chaos-free
/// kFixed / kUniformPerLink runs draw nothing on the send path and are
/// bit-equal to it always (the golden-parity contract).  The per-node
/// result arrays are written only by each node's owner shard, so the
/// handler needs no synchronization beyond the engine's phase structure.
template <core::EdgeIndexedGraph Topology>
DisseminationResult sharded_flood(const Topology& topology,
                                  const FloodConfig& cfg,
                                  const FailurePlan& failures = {}) {
  using core::NodeId;
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  LHG_CHECK(cfg.shards >= 1, "sharded_flood: shard count {} must be >= 1",
            cfg.shards);
  // More shards than nodes would only add idle lanes and S² outboxes.
  const std::int32_t shards = std::min(cfg.shards, topology.num_nodes());
  ShardedSimulator sim = [&] {
    if constexpr (requires { topology.shard_owners(shards, {}); }) {
      using OwnerSpare = core::Spare<std::vector<std::int32_t>>;
      return ShardedSimulator(
          topology.shard_owners(shards, OwnerSpare::take()), shards);
    } else {
      return ShardedSimulator(topology.num_nodes(), shards);
    }
  }();
  core::Rng rng(cfg.seed);
  ShardedNetwork<Topology> net(topology, sim, cfg.latency, rng, cfg.chaos);
  obs::Runtime obs_rt(cfg.obs, sim.num_shards());
  sim.set_obs(obs_rt.shard_obs());
  net.set_obs(obs_rt.shard_obs());
  apply_failure_plan(net, failures);

  DisseminationResult result;
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  result.delivery_time.assign(n, -1.0);
  result.delivery_hops.assign(n, -1);

  auto forward = [&](std::int32_t shard, NodeId self, NodeId except,
                     std::int32_t hops) {
    const std::int32_t deg = topology.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = topology.neighbor(self, i);
      if (v != except) {
        net.send_link(shard, self, v, topology.incident_edge(self, i), hops);
      }
    }
  };
  net.set_receive_handler([&](std::int32_t shard, NodeId self, NodeId from,
                              std::int64_t hops) {
    auto& t = result.delivery_time[static_cast<std::size_t>(self)];
    if (t >= 0.0) return;  // duplicate copy: absorb
    t = sim.now(shard);
    result.delivery_hops[static_cast<std::size_t>(self)] =
        static_cast<std::int32_t>(hops) + 1;
    forward(shard, self, from, static_cast<std::int32_t>(hops) + 1);
  });

  if (net.is_alive(cfg.source)) {
    result.delivery_time[static_cast<std::size_t>(cfg.source)] = 0.0;
    result.delivery_hops[static_cast<std::size_t>(cfg.source)] = 0;
    sim.schedule_node_at(ShardedSimulator::kEnvOrigin, 0.0, cfg.source,
                         [&](std::int32_t shard) {
                           forward(shard, cfg.source, -1, 0);
                         });
  }
  sim.run();
  detail::harvest_run(result, sim, net, obs_rt);
  return result;
}

/// Deterministic flooding over a generic overlay: the source sends to
/// all neighbors; every node forwards the first copy it receives to all
/// neighbors except the one it came from.  Identical semantics (and,
/// for equal edge ids, identical results) to the concrete
/// `flood(const core::Graph&, ...)` overload.  With cfg.shards > 1 the
/// run executes on the sharded engine via `sharded_flood`.
template <core::EdgeIndexedGraph Topology>
DisseminationResult flood(const Topology& topology, const FloodConfig& cfg,
                          const FailurePlan& failures = {}) {
  if (cfg.shards > 1) return sharded_flood(topology, cfg, failures);
  core::Rng rng(cfg.seed);
  return detail::first_copy_flood(
      topology, cfg, failures, rng,
      [](core::NodeId, core::NodeId, std::int32_t) { return true; });
}

}  // namespace lhg::flooding
