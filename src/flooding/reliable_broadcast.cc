#include "flooding/reliable_broadcast.h"

#include "core/check.h"
#include "core/rng.h"
#include "flooding/flood_generic.h"
#include "flooding/network.h"

namespace lhg::flooding {

using core::NodeId;

ReliableBroadcastResult reliable_broadcast(const core::Graph& topology,
                                           const ReliableBroadcastConfig& cfg,
                                           const FailurePlan& failures) {
  LHG_CHECK_RANGE(cfg.source, topology.num_nodes());

  Simulator sim;
  core::Rng rng(cfg.seed);
  Network net(topology, sim, cfg.latency, rng, cfg.chaos);
  obs::Runtime obs_rt(cfg.obs);
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  apply_failure_plan(net, failures);

  ReliableLink link(net, cfg.backoff);
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
  link.set_deliver_handler(deliver_and_forward);

  if (net.is_alive(cfg.source)) {
    sim.schedule_at(0.0, [&] { deliver_and_forward(cfg.source, -1, 0); });
  }
  sim.run();

  detail::harvest_run(result, sim, net, obs_rt);
  result.retransmissions = link.retransmissions();
  result.acks_sent = link.acks_sent();
  result.duplicates_suppressed = link.duplicates_suppressed();
  result.window_overflows = link.window_overflows();
  return result;
}

}  // namespace lhg::flooding
