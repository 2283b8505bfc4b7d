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

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph_concept.h"
#include "flooding/protocols.h"
#include "flooding/shard_net.h"

namespace lhg::flooding {

namespace detail {

/// Fills the aggregate DisseminationResult fields from per-node state.
inline void finalize_dissemination(DisseminationResult& result,
                                   const std::vector<bool>& alive) {
  result.alive_nodes = 0;
  result.delivered_alive = 0;
  result.completion_time = 0.0;
  result.completion_hops = 0;
  for (std::size_t u = 0; u < alive.size(); ++u) {
    if (!alive[u]) continue;
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

template <typename Topology>
std::vector<bool> alive_mask(const BasicNetwork<Topology>& net) {
  std::vector<bool> alive(
      static_cast<std::size_t>(net.topology().num_nodes()));
  for (core::NodeId u = 0; u < net.topology().num_nodes(); ++u) {
    alive[static_cast<std::size_t>(u)] = net.is_alive(u);
  }
  return alive;
}

}  // namespace detail

/// Deterministic flooding on the sharded engine: the same protocol as
/// `flood`, with the node set split over `cfg.shards` time queues
/// driven by core::parallel lanes (shard_sim.h).  Results are
/// bit-identical at any shard and thread count; chaos-free runs with
/// kFixed / kUniformPerLink latencies are additionally bit-equal to the
/// single-queue `flood` (chaotic runs draw from per-arc streams —
/// shard_net.h documents the semantic difference).  The per-node result
/// arrays are written only by each node's owner shard, so the handler
/// needs no synchronization beyond the engine's phase structure.
template <core::EdgeIndexedGraph Topology>
DisseminationResult sharded_flood(const Topology& topology,
                                  const FloodConfig& cfg,
                                  const FailurePlan& failures = {}) {
  using core::NodeId;
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  LHG_CHECK(cfg.shards >= 1, "sharded_flood: shard count {} must be >= 1",
            cfg.shards);
  ShardedSimulator sim(topology.num_nodes(), cfg.shards);
  core::Rng rng(cfg.seed);
  ShardedNetwork<Topology> net(topology, sim, cfg.latency, rng, cfg.chaos);
  obs::Runtime obs_rt(cfg.obs, sim.num_shards(), obs::PerShardHandles{});
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

  result.messages_sent = net.messages_sent();
  result.events_processed = sim.events_processed();
  result.net = net.stats();
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  std::vector<bool> alive(n);
  for (NodeId u = 0; u < topology.num_nodes(); ++u) {
    alive[static_cast<std::size_t>(u)] = net.is_alive(u);
  }
  detail::finalize_dissemination(result, alive);
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
  using core::NodeId;
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  if (cfg.shards > 1) return sharded_flood(topology, cfg, failures);
  Simulator sim;
  core::Rng rng(cfg.seed);
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
      if (v != except) {
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

  result.messages_sent = net.messages_sent();
  result.events_processed = sim.events_processed();
  result.net = net.stats();
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  detail::finalize_dissemination(result, detail::alive_mask(net));
  return result;
}

}  // namespace lhg::flooding
