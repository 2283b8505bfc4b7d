#include "flooding/heartbeat.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "core/rng.h"

namespace lhg::flooding {

using core::NodeId;

HeartbeatDetector::HeartbeatDetector(Network& net, double interval,
                                     double timeout, double horizon,
                                     SendBeat send_beat, OnSuspect on_suspect)
    : g_(&net.topology()),
      sim_(&net.simulator()),
      net_(&net),
      interval_(interval),
      timeout_(timeout),
      horizon_(horizon),
      send_beat_(std::move(send_beat)),
      on_suspect_(std::move(on_suspect)),
      last_heard_(static_cast<std::size_t>(g_->num_arcs()), 0.0),
      suspected_since_(static_cast<std::size_t>(g_->num_arcs()), -1.0) {
  LHG_CHECK(interval > 0 && timeout > interval && horizon > 0,
            "heartbeat: need 0 < interval < timeout and horizon > 0, got "
            "interval={}, timeout={}, horizon={}",
            interval, timeout, horizon);
}

void HeartbeatDetector::start() {
  for (NodeId u = 0; u < g_->num_nodes(); ++u) {
    sim_->schedule_at(interval_, [this, u, t = interval_] { tick(u, t); });
    std::int32_t arc = g_->arc_begin(u);
    for (NodeId v : g_->neighbors(u)) {
      arm_check(u, v, arc, 0.0);
      ++arc;
    }
  }
}

void HeartbeatDetector::on_beat(NodeId self, NodeId from) {
  const std::int32_t arc = g_->arc_index(self, from);
  const auto a = static_cast<std::size_t>(arc);
  last_heard_[a] = sim_->now();
  suspected_since_[a] = -1.0;  // rebut any standing suspicion
  arm_check(self, from, arc, sim_->now());
}

void HeartbeatDetector::tick(NodeId u, double t) {
  if (net_->is_alive(u)) {
    std::int32_t arc = g_->arc_begin(u);
    for (NodeId v : g_->neighbors(u)) {
      if (send_beat_(u, v, arc)) ++beats_sent_;
      ++arc;
    }
    if (obs_ != nullptr) obs_->add(obs_->hb_beats);
  }
  const double next = t + interval_;
  if (next <= horizon_) {
    sim_->schedule_at(next, [this, u, next] { tick(u, next); });
  }
}

void HeartbeatDetector::arm_check(NodeId observer, NodeId target,
                                  std::int32_t arc, double armed_at) {
  sim_->schedule_at(
      armed_at + timeout_, [this, observer, target, arc, armed_at] {
        if (!net_->is_alive(observer)) return;
        if (sim_->now() > horizon_) return;
        const auto a = static_cast<std::size_t>(arc);
        if (last_heard_[a] > armed_at) return;  // newer beat re-armed
        if (suspected_since_[a] >= 0.0) return;
        suspected_since_[a] = sim_->now();
        const bool false_alarm = net_->is_alive(target);
        if (false_alarm) ++false_suspicions_;
        if (obs_ != nullptr) {
          obs_->add(obs_->hb_suspicions);
          if (false_alarm) obs_->add(obs_->hb_false_suspicions);
          obs_->event(sim_->now(), obs::TraceKind::kSuspicion, observer,
                      target, false_alarm ? 1 : 0);
        }
        if (on_suspect_) on_suspect_(observer, target, false_alarm);
      });
}

HeartbeatResult run_heartbeat(const core::Graph& topology,
                              const HeartbeatConfig& cfg,
                              const FailurePlan& failures) {
  Simulator sim;
  core::Rng rng(cfg.seed);
  Network net(topology, sim, cfg.latency, rng,
              ChaosSpec::iid(cfg.loss_probability));
  HeartbeatDetector detector(
      net, cfg.interval, cfg.timeout, cfg.horizon,
      [&](NodeId u, NodeId v, std::int32_t arc) {
        return net.send_link(u, v, topology.edge_of_arc(arc), 0);
      });
  obs::Runtime obs_rt(cfg.obs);
  const obs::SimObs* obs = obs_rt.obs();
  sim.set_obs(obs);
  net.set_obs(obs);
  detector.set_obs(obs);
  apply_failure_plan(net, failures);

  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t) {
    detector.on_beat(self, from);
  });
  detector.start();
  sim.run_until(cfg.horizon + cfg.timeout + 1.0);

  HeartbeatResult result;
  result.heartbeats_sent = detector.beats_sent();
  result.false_suspicions = detector.false_suspicions();
  result.net = net.stats();
  result.in_flight = sim.pending_deliveries();
  LHG_CHECK(result.net.conserved(result.in_flight),
            "heartbeat run: NetworkStats not conserved with {} copies in "
            "flight",
            result.in_flight);

  // Post-process detections for crashes scheduled inside the horizon
  // (in failure-plan order, deterministically).
  for (const NodeCrash& crash : failures.crashes) {
    if (crash.time <= 0.0 || crash.time >= cfg.horizon) continue;
    CrashDetection detection;
    detection.node = crash.node;
    detection.crash_time = crash.time;
    double worst = 0;
    bool complete = true;
    for (NodeId w : topology.neighbors(crash.node)) {
      if (!net.is_alive(w)) continue;  // dead observers owe nothing
      const double since =
          detector.suspected_since(topology.arc_index(w, crash.node));
      if (since < 0.0) {
        complete = false;
        break;
      }
      worst = std::max(worst, since - crash.time);
    }
    detection.detection_latency = complete ? worst : -1.0;
    result.detections.push_back(detection);
  }
  result.metrics = obs_rt.metrics_snapshot();
  result.trace = obs_rt.trace_log();
  return result;
}

}  // namespace lhg::flooding
