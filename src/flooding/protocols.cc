#include "flooding/protocols.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "flooding/flood_generic.h"

namespace lhg::flooding {

using core::NodeId;

DisseminationResult flood(const core::Graph& topology, const FloodConfig& cfg,
                          const FailurePlan& failures) {
  // The protocol lives in flood_generic.h, written once against the
  // EdgeIndexedGraph concept; this is its materialized-overlay face.
  return flood<core::Graph>(topology, cfg, failures);
}

DisseminationResult probabilistic_flood(const core::Graph& topology,
                                        const ProbabilisticFloodConfig& cfg,
                                        const FailurePlan& failures) {
  LHG_CHECK(cfg.forward_probability >= 0.0 && cfg.forward_probability <= 1.0,
            "probabilistic_flood: p {} out of range", cfg.forward_probability);
  core::Rng rng(cfg.seed);
  core::Rng coin = rng.split();  // before the network takes its arc seed
  return detail::first_copy_flood(
      topology,
      FloodConfig{.source = cfg.source, .latency = cfg.latency, .obs = cfg.obs},
      failures, rng, [&](NodeId, NodeId, std::int32_t hops) {
        return hops == 0 || coin.next_bool(cfg.forward_probability);
      });
}

DisseminationResult gossip(NodeId num_nodes, const GossipConfig& cfg,
                           const FailurePlan& failures) {
  LHG_CHECK_RANGE(cfg.source, num_nodes);
  LHG_CHECK(cfg.fanout >= 1, "gossip: fanout {} < 1", cfg.fanout);
  core::Rng rng(cfg.seed);

  std::vector<bool> alive(static_cast<std::size_t>(num_nodes), true);
  for (const NodeCrash& crash : failures.crashes) {
    alive[static_cast<std::size_t>(crash.node)] = false;
  }
  std::int32_t alive_total = 0;
  for (bool a : alive) alive_total += a ? 1 : 0;

  DisseminationResult result;
  result.delivery_time.assign(static_cast<std::size_t>(num_nodes), -1.0);
  result.delivery_hops.assign(static_cast<std::size_t>(num_nodes), -1);

  const std::int32_t rounds =
      cfg.max_rounds > 0
          ? cfg.max_rounds
          : static_cast<std::int32_t>(
                std::ceil(std::log2(std::max<NodeId>(2, num_nodes)))) +
                GossipConfig::kExtraRounds;

  std::vector<NodeId> infected;
  std::int32_t delivered_alive = 0;
  if (alive[static_cast<std::size_t>(cfg.source)]) {
    infected.push_back(cfg.source);
    result.delivery_time[static_cast<std::size_t>(cfg.source)] = 0.0;
    result.delivery_hops[static_cast<std::size_t>(cfg.source)] = 0;
    ++delivered_alive;
  }
  for (std::int32_t round = 1;
       round <= rounds && delivered_alive < alive_total; ++round) {
    std::vector<NodeId> fresh;
    auto deliver = [&](NodeId peer) {
      result.delivery_time[static_cast<std::size_t>(peer)] =
          static_cast<double>(round);
      result.delivery_hops[static_cast<std::size_t>(peer)] = round;
      fresh.push_back(peer);
      ++delivered_alive;
    };
    auto random_peer = [&](NodeId self) {
      // Uniform peer != self (full membership view; the caller cannot
      // know whether the peer is alive).
      auto peer = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(num_nodes - 1)));
      if (peer >= self) ++peer;
      return peer;
    };
    for (NodeId u : infected) {
      if (!alive[static_cast<std::size_t>(u)]) continue;
      for (std::int32_t f = 0; f < cfg.fanout; ++f) {
        const NodeId peer = random_peer(u);
        ++result.messages_sent;
        if (!alive[static_cast<std::size_t>(peer)]) continue;
        if (result.delivery_time[static_cast<std::size_t>(peer)] >= 0.0) continue;
        deliver(peer);
      }
    }
    if (cfg.mode == GossipMode::kPushPull) {
      // Susceptible nodes poll random peers; a hit costs the response
      // message too.  Nodes infected THIS round don't pull (their state
      // updates at the round boundary).
      for (NodeId u = 0; u < num_nodes; ++u) {
        if (!alive[static_cast<std::size_t>(u)]) continue;
        if (result.delivery_time[static_cast<std::size_t>(u)] >= 0.0) continue;
        bool pulled = false;
        for (std::int32_t f = 0; f < cfg.fanout && !pulled; ++f) {
          const NodeId peer = random_peer(u);
          ++result.messages_sent;  // the pull request
          if (!alive[static_cast<std::size_t>(peer)]) continue;
          const auto peer_time =
              result.delivery_time[static_cast<std::size_t>(peer)];
          // The peer answers with the rumor only if it was infected in
          // an earlier round.
          if (peer_time >= 0.0 && peer_time < static_cast<double>(round)) {
            ++result.messages_sent;  // the response carrying the rumor
            deliver(u);
            pulled = true;
          }
        }
      }
    }
    infected.insert(infected.end(), fresh.begin(), fresh.end());
  }
  detail::finalize_dissemination(
      result, [&](NodeId u) { return alive[static_cast<std::size_t>(u)]; });
  return result;
}

DisseminationResult spanning_tree_multicast(const core::Graph& topology,
                                            const TreeConfig& cfg,
                                            const FailurePlan& failures) {
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  // BFS spanning tree rooted at the source, built on the healthy
  // topology (the tree is a static overlay; failures strike afterwards).
  // A node's children are the neighbors it discovered, in adjacency
  // order — exactly the ones the relay predicate lets through.
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  std::vector<NodeId> parent(n, -1);  // -1: not reached yet
  parent[static_cast<std::size_t>(cfg.source)] = cfg.source;
  std::vector<NodeId> queue{cfg.source};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : topology.neighbors(u)) {
      if (parent[static_cast<std::size_t>(v)] < 0) {
        parent[static_cast<std::size_t>(v)] = u;
        queue.push_back(v);
      }
    }
  }
  core::Rng rng(cfg.seed);
  return detail::first_copy_flood(
      topology,
      FloodConfig{.source = cfg.source, .latency = cfg.latency, .obs = cfg.obs},
      failures, rng, [&](NodeId self, NodeId v, std::int32_t) {
        return parent[static_cast<std::size_t>(v)] == self;
      });
}

}  // namespace lhg::flooding
