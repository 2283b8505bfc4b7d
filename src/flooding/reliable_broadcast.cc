#include "flooding/reliable_broadcast.h"

#include <algorithm>

#include "core/check.h"
#include "core/rng.h"
#include "flooding/network.h"
#include "flooding/reliable_link.h"

namespace lhg::flooding {

using core::NodeId;

ReliableBroadcastResult reliable_broadcast(const core::Graph& topology,
                                           const ReliableBroadcastConfig& cfg,
                                           const FailurePlan& failures) {
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());
  LHG_CHECK(cfg.retransmit_interval > 0 && cfg.max_retries >= 0,
            "reliable_broadcast: bad retry settings (interval={}, retries={})",
            cfg.retransmit_interval, cfg.max_retries);

  Simulator sim;
  core::Rng rng(cfg.seed);
  const ChaosSpec chaos = cfg.chaos.enabled()
                              ? cfg.chaos
                              : ChaosSpec::iid(cfg.loss_probability);
  Network net(topology, sim, cfg.latency, rng, chaos);
  obs::Runtime obs_rt(cfg.obs);
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  apply_failure_plan(net, failures);

  BackoffPolicy backoff;
  backoff.base = cfg.retransmit_interval;
  backoff.factor = cfg.backoff_factor;
  backoff.max = cfg.backoff_max;
  backoff.jitter = cfg.backoff_jitter;
  backoff.max_retries = cfg.max_retries;
  backoff.persist_when_blocked = cfg.persist_when_blocked;
  ReliableLink link(net, backoff, rng);
  link.set_obs(obs_rt.obs());

  ReliableBroadcastResult result;
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  result.delivery_time.assign(n, -1.0);
  result.delivery_hops.assign(n, -1);

  // First copy delivers and forwards; ReliableLink already suppressed
  // duplicates, but a node can still hear the payload over several
  // distinct arcs — only the first one relays.
  auto deliver_and_forward = [&](NodeId self, NodeId except,
                                 std::int64_t hops) {
    auto& t = result.delivery_time[static_cast<std::size_t>(self)];
    if (t >= 0.0) return;
    t = sim.now();
    result.delivery_hops[static_cast<std::size_t>(self)] =
        static_cast<std::int32_t>(hops);
    std::int32_t arc = topology.arc_begin(self);
    for (NodeId v : topology.neighbors(self)) {
      if (v != except) link.send_arc(self, v, arc, hops + 1);
      ++arc;
    }
  };
  link.set_deliver_handler([&](NodeId self, NodeId from, std::int64_t hops) {
    deliver_and_forward(self, from, hops);
  });

  if (net.is_alive(cfg.source)) {
    sim.schedule_at(0.0, [&] { deliver_and_forward(cfg.source, -1, 0); });
  }
  sim.run();

  result.messages_sent = net.messages_sent();
  result.events_processed = sim.events_processed();
  result.messages_lost = net.messages_lost();
  result.net = net.stats();
  LHG_CHECK(result.net.conserved(),
            "reliable_broadcast: NetworkStats not conserved");
  result.retransmissions = link.retransmissions();
  result.acks_sent = link.acks_sent();
  result.duplicates_suppressed = link.duplicates_suppressed();
  result.window_overflows = link.window_overflows();
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  result.alive_nodes = 0;
  result.delivered_alive = 0;
  for (NodeId u = 0; u < topology.num_nodes(); ++u) {
    if (!net.is_alive(u)) continue;
    ++result.alive_nodes;
    if (result.delivery_time[static_cast<std::size_t>(u)] >= 0.0) {
      ++result.delivered_alive;
      result.completion_time = std::max(
          result.completion_time,
          result.delivery_time[static_cast<std::size_t>(u)]);
      result.completion_hops = std::max(
          result.completion_hops,
          result.delivery_hops[static_cast<std::size_t>(u)]);
    }
  }
  return result;
}

}  // namespace lhg::flooding
