#include "flooding/heartbeat.h"

#include <functional>
#include <utility>

#include "core/check.h"
#include "core/rng.h"

namespace lhg::flooding {

using core::NodeId;

HeartbeatResult run_heartbeat(const core::Graph& topology,
                              const HeartbeatConfig& cfg,
                              const FailurePlan& failures) {
  LHG_CHECK(cfg.interval > 0 && cfg.timeout > cfg.interval && cfg.horizon > 0,
            "heartbeat: need 0 < interval < timeout and horizon > 0, got "
            "interval={}, timeout={}, horizon={}",
            cfg.interval, cfg.timeout, cfg.horizon);

  Simulator sim;
  core::Rng rng(cfg.seed);
  Network net(topology, sim, cfg.latency, rng,
              ChaosSpec::iid(cfg.loss_probability));
  obs::Runtime obs_rt(cfg.obs);
  const obs::SimObs* obs = obs_rt.obs();
  sim.set_obs(obs);
  net.set_obs(obs);
  std::vector<std::pair<NodeId, double>> crash_time;  // plan order
  for (const NodeCrash& crash : failures.crashes) {
    if (crash.time > 0.0) crash_time.emplace_back(crash.node, crash.time);
  }
  apply_failure_plan(net, failures);

  HeartbeatResult result;
  // Per-(observer, target) monitoring state is per *directed arc* of
  // the overlay: flat arrays over Graph::arc_index ids replace the
  // hash-keyed maps this loop used to probe on every beat.
  const auto arcs = static_cast<std::size_t>(topology.num_arcs());
  std::vector<double> last_heard(arcs, 0.0);
  std::vector<std::uint8_t> suspected(arcs, 0);
  std::vector<double> suspect_time(arcs, 0.0);

  // Suspicion check: fires `timeout` after the heartbeat that armed it;
  // a newer heartbeat re-arms a later check, so only the newest matters.
  auto schedule_check = [&](NodeId observer, NodeId target,
                            std::int32_t arc, double armed_at) {
    sim.schedule_at(armed_at + cfg.timeout,
                    [&, observer, target, arc, armed_at] {
      if (!net.is_alive(observer)) return;
      // Beats stop at the horizon; silence past it is an artifact of
      // the simulation ending, not a failure.
      if (sim.now() > cfg.horizon) return;
      const auto a = static_cast<std::size_t>(arc);
      if (last_heard[a] > armed_at) return;  // newer beat re-armed
      if (suspected[a] != 0) return;
      suspected[a] = 1;
      suspect_time[a] = sim.now();
      const bool false_alarm = net.is_alive(target);
      if (false_alarm) ++result.false_suspicions;
      if (obs != nullptr) {
        obs->add(obs->hb_suspicions);
        if (false_alarm) obs->add(obs->hb_false_suspicions);
        obs->event(sim.now(), obs::TraceKind::kSuspicion, observer, target,
                   false_alarm ? 1 : 0);
      }
    });
  };

  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t) {
    const std::int32_t arc = topology.arc_index(self, from);
    const auto a = static_cast<std::size_t>(arc);
    last_heard[a] = sim.now();
    suspected[a] = 0;  // rebut any standing suspicion
    schedule_check(self, from, arc, sim.now());
  });

  // Periodic beats: each node re-arms its own next beat instead of
  // pre-scheduling horizon/interval events per node up front, so the
  // pending-event set stays O(n) however long the horizon — the same
  // per-resource exhaustion pattern reliable_link's 1024-seq cap had,
  // fixed the same way (a constant-size rolling footprint).  Crashed
  // nodes keep ticking: their sends are refused at the Network without
  // consuming Rng draws, exactly like the pre-scheduled schedule, and a
  // recovered node resumes beating on the next tick.  The next-beat
  // time accumulates as t + interval per tick (not k * interval), so
  // beat timestamps stay bit-identical to the pre-scheduled loop's.
  std::function<void(NodeId, double)> beat = [&](NodeId u, double t) {
    std::int32_t arc = topology.arc_begin(u);
    for (NodeId v : topology.neighbors(u)) {
      net.send_link(u, v, topology.edge_of_arc(arc), 0);
      ++arc;
    }
    if (obs != nullptr) obs->add(obs->hb_beats);
    const double next = t + cfg.interval;
    if (next <= cfg.horizon) {
      sim.schedule_at(next, [&beat, u, next] { beat(u, next); });
    }
  };
  for (NodeId u = 0; u < topology.num_nodes(); ++u) {
    sim.schedule_at(cfg.interval,
                    [&beat, u, t = cfg.interval] { beat(u, t); });
    // Everyone starts "heard at 0".
    for (NodeId v : topology.neighbors(u)) {
      const std::int32_t arc = topology.arc_index(u, v);
      last_heard[static_cast<std::size_t>(arc)] = 0.0;
      schedule_check(u, v, arc, 0.0);
    }
  }
  sim.run_until(cfg.horizon + cfg.timeout + 1.0);

  result.heartbeats_sent = net.messages_sent();

  // Post-process detections for crashes scheduled inside the horizon
  // (in failure-plan order, deterministically).
  for (const auto& [node, at] : crash_time) {
    if (at >= cfg.horizon) continue;
    CrashDetection detection;
    detection.node = node;
    detection.crash_time = at;
    double worst = 0;
    bool complete = true;
    for (NodeId w : topology.neighbors(node)) {
      if (!net.is_alive(w)) continue;  // dead observers owe nothing
      const auto a =
          static_cast<std::size_t>(topology.arc_index(w, node));
      if (suspected[a] == 0) {
        complete = false;
        break;
      }
      worst = std::max(worst, suspect_time[a] - at);
    }
    detection.detection_latency = complete ? worst : -1.0;
    result.detections.push_back(detection);
  }
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  return result;
}

}  // namespace lhg::flooding
