#include "flooding/session.h"

#include <algorithm>

#include "core/check.h"
#include "core/rng.h"

namespace lhg::flooding {

using core::NodeId;

SessionResult run_broadcast_session(const core::Graph& topology,
                                    const std::vector<BroadcastSpec>& specs,
                                    const SessionConfig& cfg,
                                    const FailurePlan& failures) {
  for (const auto& spec : specs) {
    LHG_CHECK_RANGE(spec.source, topology.num_nodes());
    LHG_CHECK(spec.start_time >= 0, "session: negative start time {}",
              spec.start_time);
  }

  Simulator sim;
  core::Rng rng(cfg.seed);
  Network net(topology, sim, cfg.latency, rng);
  apply_failure_plan(net, failures);

  // Per-message delivery state.  The wire payload is the message index.
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  std::vector<std::vector<bool>> seen(specs.size(),
                                      std::vector<bool>(n, false));
  SessionResult result;
  result.messages.resize(specs.size());
  for (std::size_t m = 0; m < specs.size(); ++m) {
    result.messages[m].source = specs[m].source;
    result.messages[m].start_time = specs[m].start_time;
  }

  auto forward = [&](std::int64_t message, NodeId self, NodeId except) {
    std::int32_t arc = topology.arc_begin(self);
    for (NodeId v : topology.neighbors(self)) {
      if (v != except) {
        net.send_link(self, v, topology.edge_of_arc(arc), message);
      }
      ++arc;
    }
  };
  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t message) {
    auto seen_here = seen[static_cast<std::size_t>(message)]
                         [static_cast<std::size_t>(self)];
    if (seen_here) return;
    seen[static_cast<std::size_t>(message)][static_cast<std::size_t>(self)] =
        true;
    auto& outcome = result.messages[static_cast<std::size_t>(message)];
    ++outcome.delivered_alive;
    outcome.completion_time = std::max(outcome.completion_time, sim.now());
    forward(message, self, from);
  });

  for (std::size_t m = 0; m < specs.size(); ++m) {
    const auto spec = specs[m];
    sim.schedule_at(spec.start_time, [&, m, spec] {
      if (!net.is_alive(spec.source)) return;
      if (seen[m][static_cast<std::size_t>(spec.source)]) return;
      seen[m][static_cast<std::size_t>(spec.source)] = true;
      auto& outcome = result.messages[m];
      ++outcome.delivered_alive;
      outcome.completion_time = spec.start_time;
      forward(static_cast<std::int64_t>(m), spec.source, -1);
    });
  }
  sim.run();
  LHG_CHECK(net.stats().conserved(),
            "run_broadcast_session: NetworkStats not conserved");

  result.alive_nodes = net.alive_count();
  result.total_messages_sent = net.stats().sent;
  for (auto& outcome : result.messages) {
    // delivered_alive counted deliveries to nodes that may have crashed
    // later; recount against the final alive set for the strict metric.
    outcome.complete = true;
    const auto m = static_cast<std::size_t>(&outcome - result.messages.data());
    std::int32_t delivered = 0;
    for (NodeId u = 0; u < topology.num_nodes(); ++u) {
      if (!net.is_alive(u)) continue;
      if (seen[m][static_cast<std::size_t>(u)]) {
        ++delivered;
      } else {
        outcome.complete = false;
      }
    }
    outcome.delivered_alive = delivered;
    if (outcome.complete) {
      result.makespan = std::max(result.makespan, outcome.completion_time);
    }
  }
  return result;
}

}  // namespace lhg::flooding
