#include "flooding/repair.h"

#include <algorithm>

#include "core/check.h"
#include "core/connectivity.h"
#include "flooding/heartbeat.h"
#include "membership/incremental.h"

namespace lhg::flooding {

using core::NodeId;

static_assert(RepairConfig::kUnderlayLatency > 0.0,
              "handshake messages need a positive underlay latency");
static_assert(RepairConfig::kHandshakeBackoff.base > 0.0 &&
                  RepairConfig::kHandshakeBackoff.factor >= 1.0 &&
                  RepairConfig::kHandshakeBackoff.max_retries >= 0,
              "handshake retries need a positive, non-shrinking schedule");

namespace {

// View-change payload on the reliable layer, packed into the 45
// payload bits ReliableLink exposes: bit 0 = kind (0 a node went down,
// 1 it asserts aliveness), bits 1..32 the node id, bits 33+ the
// rumor's epoch (12 bits — a node's epoch moves only on rejoin
// announcements and self-rebuttals, far fewer than 4096 per run).
constexpr std::int64_t vc_payload(NodeId node, std::int32_t epoch, bool up) {
  return (static_cast<std::int64_t>(epoch) << 33) |
         (static_cast<std::int64_t>(node) << 1) | (up ? 1 : 0);
}
constexpr bool vc_is_up(std::int64_t payload) { return (payload & 1) != 0; }
constexpr NodeId vc_node(std::int64_t payload) {
  return static_cast<NodeId>((payload >> 1) & 0xffffffff);
}
constexpr std::int32_t vc_epoch(std::int64_t payload) {
  return static_cast<std::int32_t>(payload >> 33);
}

/// One underlay REQ/ACK handshake for a target edge the overlay lacks.
/// `u` is the requester (lower id).
struct Handshake {
  NodeId u = 0;
  NodeId v = 0;
  double established = -1.0;
};

/// One rumor an observer holds: the highest epoch it accepted about
/// `subject`, and whether that rumor says the subject is down.
struct ViewEntry {
  NodeId subject = 0;
  std::int32_t epoch = 0;
  bool down = false;
};

/// The whole simulation's state; methods are the event handlers.
/// Everything lives on the caller's stack until sim.run() drains.
struct RepairSim {
  const core::Graph& g;
  const RepairConfig& cfg;
  Simulator sim;
  // lint: allow(unseeded-rng): member is re-seeded from config.seed in
  // the constructor init list before any draw.
  core::Rng rng;
  Network net;
  ReliableLink link;
  obs::Runtime obs_rt;
  const obs::SimObs* obs;
  RepairResult res;

  std::size_t n;
  std::vector<std::uint8_t> in_perm;  // permanently crashed per node
  std::int32_t perm_count = 0;

  HeartbeatDetector detector;
  /// Length of one confirmation round: PROBE and VOUCH each cross the
  /// underlay once, plus a heartbeat interval for the subject's next
  /// beat to land at the vouching neighbors.
  double round;
  // Per arc w -> x: the start of the latest confirmation round of w's
  // suspicion of x that a vouch answered; -1 before any.
  std::vector<double> vouched_at;
  // Per node: when its first obituary flooded while it was down.
  std::vector<double> first_obituary;

  // Per-observer disseminated view: the observer's entries sorted by
  // subject, one per subject it heard a rumor about, so the state is
  // O(n + rumors) rather than n x n.  Epochs order rumors about one
  // subject: an aliveness assertion carries a strictly larger epoch
  // than every obituary it refutes, so stale down rumors cannot
  // resurrect a rebutted entry.  `match` counts the permanent crashes
  // currently down in the view, `initiated` whether the node already
  // kicked off its handshakes.
  std::vector<std::vector<ViewEntry>> views;
  std::vector<std::int32_t> self_epoch;  // per node: epoch of its last assert
  std::vector<std::int32_t> match;
  std::vector<std::uint8_t> initiated;

  std::vector<Handshake> needed;
  std::int32_t established_count = 0;

  RepairSim(const core::Graph& graph, const RepairConfig& config)
      : g(graph),
        cfg(config),
        rng(config.seed),
        net(graph, sim, config.latency, rng, config.chaos),
        link(net, RepairConfig::kViewBackoff),
        obs_rt(config.obs),
        obs(obs_rt.obs()),
        n(static_cast<std::size_t>(graph.num_nodes())),
        in_perm(n, 0),
        detector(
            net, config.heartbeat_interval, config.heartbeat_timeout,
            config.horizon,
            [this](NodeId u, NodeId v, std::int32_t arc) {
              return link.send_raw_arc(u, v, arc, 0);
            },
            // A suspicion floods nothing yet: the observer first asks
            // the subject's other neighbors whether they still hear it.
            [this](NodeId observer, NodeId target, bool) {
              probe(observer, g.arc_index(observer, target), sim.now());
            }),
        round(2.0 * RepairConfig::kUnderlayLatency + config.heartbeat_interval),
        vouched_at(static_cast<std::size_t>(graph.num_arcs()), -1.0),
        first_obituary(n, -1.0),
        views(n),
        self_epoch(n, 0),
        match(n, 0),
        initiated(n, 0) {
    sim.set_obs(obs);
    net.set_obs(obs);
    link.set_obs(obs);
    detector.set_obs(obs);
  }

  bool underlay_drops() {
    return cfg.underlay_loss > 0.0 && rng.next_bool(cfg.underlay_loss);
  }

  // --- Confirmation: indirect probes before an obituary floods ------

  void count_confirm() {
    ++res.confirm_messages;
    if (obs != nullptr) obs->add(obs->repair_confirms);
  }

  // One round of w's confirmation of its suspicion (arc w -> x, begun
  // at t_s): a PROBE over the underlay to each of x's other overlay
  // neighbors, asking for a beat from x heard after this round began.
  void probe(NodeId w, std::int32_t arc, double t_s) {
    const double t_r = sim.now();
    const NodeId x = g.arc_target(arc);
    std::int32_t xy = g.arc_begin(x);
    for (NodeId y : g.neighbors(x)) {
      if (y != w) {
        count_confirm();  // the PROBE
        if (!underlay_drops()) {
          sim.schedule_in(RepairConfig::kUnderlayLatency,
                          [this, y, arc, yx = g.twin_arc(xy), t_s, t_r] {
                            on_probe(y, arc, yx, t_s, t_r);
                          });
        }
      }
      ++xy;
    }
    sim.schedule_in(round, [this, w, arc, t_s, t_r] {
      end_round(w, arc, t_s, t_r);
    });
  }

  // y vouches for x iff a beat from x (arc y -> x) reached it after the
  // round began.
  void on_probe(NodeId y, std::int32_t arc, std::int32_t yx, double t_s,
                double t_r) {
    if (!net.is_alive(y) || detector.last_heard(yx) <= t_r) return;
    count_confirm();  // the VOUCH
    if (underlay_drops()) return;
    sim.schedule_in(RepairConfig::kUnderlayLatency, [this, arc, t_s, t_r] {
      auto& at = vouched_at[static_cast<std::size_t>(arc)];
      if (at < t_s) {  // the suspicion's first vouch counts it
        ++res.suspicions_vouched;
        if (obs != nullptr) obs->add(obs->repair_vouched);
      }
      at = std::max(at, t_r);
    });
  }

  // The confirmation ends once a beat from x reached w (the suspicion
  // ended, or a newer one replaced it), w crashed, or x's obituary
  // already reached w.  Otherwise a vouched round re-probes (while beats still
  // run) and a round without a vouch floods x's obituary.
  void end_round(NodeId w, std::int32_t arc, double t_s, double t_r) {
    const NodeId x = g.arc_target(arc);
    if (detector.suspected_since(arc) != t_s || !net.is_alive(w)) return;
    const ViewEntry& e = entry(w, x);
    if (e.down) return;
    if (vouched_at[static_cast<std::size_t>(arc)] < t_r) {
      const auto i = static_cast<std::size_t>(x);
      if (!net.is_alive(x) && first_obituary[i] < 0.0) {
        first_obituary[i] = sim.now();
      }
      learn_down(w, x, e.epoch, /*relay_except=*/-1);
    } else if (sim.now() <= cfg.horizon) {
      probe(w, arc, t_s);
    }
  }

  // --- Dissemination ------------------------------------------------

  // w's entry for x, inserted (epoch 0, up: nothing heard) if absent.
  ViewEntry& entry(NodeId w, NodeId x) {
    auto& v = views[static_cast<std::size_t>(w)];
    const auto it = std::lower_bound(
        v.begin(), v.end(), x,
        [](const ViewEntry& e, NodeId s) { return e.subject < s; });
    return it != v.end() && it->subject == x
               ? *it
               : *v.insert(it, ViewEntry{x, 0, false});
  }

  void relay(NodeId w, NodeId except, std::int64_t payload) {
    std::int32_t arc = g.arc_begin(w);
    for (NodeId v : g.neighbors(w)) {
      if (v != except) {
        link.send_arc(w, v, arc, payload);
        ++res.view_change_messages;
      }
      ++arc;
    }
    if (obs != nullptr) {
      obs->add(obs->repair_view_changes);
      obs->event(sim.now(), obs::TraceKind::kViewChange, w, except,
                 vc_node(payload));
    }
  }

  // An obituary is accepted unless a strictly newer epoch already
  // rebutted it; a duplicate at the current epoch is dropped.
  void learn_down(NodeId w, NodeId x, std::int32_t epoch, NodeId relay_except) {
    ViewEntry& e = entry(w, x);
    if (epoch < e.epoch) return;  // already rebutted at a later epoch
    if (e.down) return;
    e.epoch = epoch;
    e.down = true;
    if (in_perm[static_cast<std::size_t>(x)] != 0) {
      ++match[static_cast<std::size_t>(w)];
    }
    relay(w, relay_except, vc_payload(x, epoch, /*up=*/false));
    check_view(w);
  }

  // An aliveness assertion wins iff its epoch is strictly newer than
  // anything heard about the subject — assertions always carry a fresh
  // epoch, so echoes and duplicates drop here.
  void learn_up(NodeId w, NodeId r, std::int32_t epoch, NodeId relay_except) {
    ViewEntry& e = entry(w, r);
    if (epoch <= e.epoch) return;
    e.epoch = epoch;
    if (e.down) {
      e.down = false;
      if (in_perm[static_cast<std::size_t>(r)] != 0) {
        --match[static_cast<std::size_t>(w)];
      }
    }
    relay(w, relay_except, vc_payload(r, epoch, /*up=*/true));
  }

  void on_deliver(NodeId self, NodeId from, std::int64_t payload) {
    const NodeId x = vc_node(payload);
    const std::int32_t epoch = vc_epoch(payload);
    if (!vc_is_up(payload)) {
      if (x == self) {
        // A live node hearing its own obituary refutes it with a
        // strictly newer epoch (once per obituary epoch: the flood's
        // duplicate copies arrive stale and drop here).
        if (epoch >= self_epoch[static_cast<std::size_t>(x)]) {
          self_epoch[static_cast<std::size_t>(x)] = epoch;
          ++res.self_rebuttals;
          announce_alive(self);
        }
        return;
      }
      learn_down(self, x, epoch, from);
      return;
    }
    // An assertion heard directly from a rejoiner triggers a state
    // transfer: the neighbor replays the down entries of its view so
    // the recovered node (which lost all protocol state) catches up.
    const bool direct = from == x && epoch > entry(self, x).epoch;
    learn_up(self, x, epoch, from);
    if (direct) {
      const std::int32_t arc = g.arc_index(self, from);
      for (const ViewEntry& e : views[static_cast<std::size_t>(self)]) {
        if (e.down) {
          link.send_arc(self, from, arc,
                        vc_payload(e.subject, e.epoch, /*up=*/false));
          ++res.view_change_messages;
        }
      }
    }
  }

  // Floods an epoch'd aliveness assertion from r: the rejoin
  // announcement and the false-obituary self-rebuttal are the same
  // flood.
  void announce_alive(NodeId r) {
    if (!net.is_alive(r)) return;
    auto& e = self_epoch[static_cast<std::size_t>(r)];
    ++e;
    learn_up(r, r, e, /*relay_except=*/-1);
  }

  void check_view(NodeId w) {
    const auto i = static_cast<std::size_t>(w);
    if (initiated[i] != 0 || match[i] != perm_count) return;
    if (!net.is_alive(w)) return;
    initiated[i] = 1;
    // `needed` follows the target's canonical edge order, so it is
    // sorted by requester: w's handshakes are one contiguous run.
    const auto [first, last] = std::equal_range(
        needed.begin(), needed.end(), Handshake{w, 0, 0.0},
        [](const Handshake& a, const Handshake& b) { return a.u < b.u; });
    for (auto it = first; it != last; ++it) {
      start_handshake(static_cast<std::int32_t>(it - needed.begin()), 0);
    }
  }

  void start_handshake(std::int32_t hid, std::int32_t attempt) {
    Handshake& h = needed[static_cast<std::size_t>(hid)];
    if (h.established >= 0.0) return;
    if (net.is_alive(h.u)) {
      ++res.handshake_messages;  // the REQ
      if (obs != nullptr) obs->add(obs->repair_handshakes);
      if (!underlay_drops()) {
        sim.schedule_in(RepairConfig::kUnderlayLatency,
                        [this, hid] { req_arrive(hid); });
      }
    }
    if (attempt < RepairConfig::kHandshakeBackoff.max_retries) {
      sim.schedule_in(RepairConfig::kHandshakeBackoff.delay(attempt),
                      [this, hid, attempt] {
                        start_handshake(hid, attempt + 1);
                      });
    }
  }

  void req_arrive(std::int32_t hid) {
    Handshake& h = needed[static_cast<std::size_t>(hid)];
    if (!net.is_alive(h.v)) return;  // peer (still) down; retries cover it
    ++res.handshake_messages;        // the ACK (re-sent on duplicate REQs)
    if (obs != nullptr) obs->add(obs->repair_handshakes);
    if (!underlay_drops()) {
      sim.schedule_in(RepairConfig::kUnderlayLatency,
                      [this, hid] { ack_arrive(hid); });
    }
  }

  void ack_arrive(std::int32_t hid) {
    Handshake& h = needed[static_cast<std::size_t>(hid)];
    if (!net.is_alive(h.u)) return;
    if (h.established >= 0.0) return;
    h.established = sim.now();
    ++established_count;
    res.reconnect_time = std::max(res.reconnect_time, h.established);
    if (obs != nullptr) {
      obs->add(obs->repair_rewires);
      obs->event(sim.now(), obs::TraceKind::kRewire, h.u, h.v);
    }
  }
};

}  // namespace

RepairResult run_repair(const core::Graph& topology, const RepairConfig& cfg,
                        const FailurePlan& plan) {
  LHG_CHECK(cfg.k >= 1, "repair: k {} < 1", cfg.k);
  LHG_CHECK(cfg.underlay_loss >= 0.0 && cfg.underlay_loss < 1.0,
            "repair: underlay loss {} out of [0, 1)", cfg.underlay_loss);

  const NodeId num = topology.num_nodes();
  const auto n = static_cast<std::size_t>(num);

  // Final membership: the nodes the plan leaves down under the fault
  // rule of apply_failure_plan.
  const std::vector<std::uint8_t> down = crashed_at_end(plan, num);
  RepairSim s(topology, cfg);
  std::vector<NodeId> survivors;
  for (NodeId u = 0; u < num; ++u) {
    const auto i = static_cast<std::size_t>(u);
    if (down[i] != 0) {
      s.in_perm[i] = 1;
      ++s.perm_count;
    } else {
      survivors.push_back(u);
    }
  }
  const auto n_surv = static_cast<NodeId>(survivors.size());
  LHG_CHECK(lhg::exists(n_surv, cfg.k, cfg.constraint),
            "repair: no LHG with n={}, k={} to heal toward", n_surv, cfg.k);

  // Dense survivor ids: survivors[] is ascending, so target edges map
  // back with endpoint order preserved.
  std::vector<NodeId> dense(n, -1);
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    dense[static_cast<std::size_t>(survivors[i])] = static_cast<NodeId>(i);
  }

  // Links cut by the plan with no restoring flap are gone for good and
  // cannot be "reused" toward the target.
  std::vector<std::uint8_t> link_dead(
      static_cast<std::size_t>(topology.num_edges()), 0);
  for (const LinkFailure& f : plan.link_failures) {
    const std::int32_t e = topology.edge_index(f.link.u, f.link.v);
    if (e >= 0) link_dead[static_cast<std::size_t>(e)] = 1;
  }

  // The rewiring target.  When the in-service size is itself
  // LHG-realizable, the incremental membership engine produces it:
  // member ids are the original node ids, the permanent crashes
  // batch-leave, and member_graph() is the canonical overlay for the
  // survivors *under stable identities* — survivors keep every edge
  // the plan delta preserves, so edges_needed is the O(k·log n) delta,
  // not a Θ(n) relabeled diff.  (member_graph densifies by ascending
  // member id, which is exactly the survivors[] order.)  Otherwise —
  // the overlay in service was never a canonical LHG size — fall back
  // to the dense rebuild target over sorted survivor ids.
  core::Graph target;
  if (lhg::exists(num, cfg.k, cfg.constraint)) {
    membership::IncrementalOverlay inc(num, cfg.k, cfg.constraint);
    std::vector<membership::MemberId> leavers;
    for (NodeId u = 0; u < num; ++u) {
      if (s.in_perm[static_cast<std::size_t>(u)] != 0) leavers.push_back(u);
    }
    const membership::MemberDelta delta = inc.apply_batch(leavers, 0);
    s.res.target_churn = delta.total();
    target = inc.member_graph();
  } else {
    s.res.target_churn = -1;
    target = lhg::build(n_surv, cfg.k, cfg.constraint);
  }
  for (const core::Edge& e : target.edges()) {
    const NodeId u = survivors[static_cast<std::size_t>(e.u)];
    const NodeId v = survivors[static_cast<std::size_t>(e.v)];
    const std::int32_t idx = topology.edge_index(u, v);
    if (idx >= 0 && link_dead[static_cast<std::size_t>(idx)] == 0) {
      ++s.res.edges_reused;
    } else {
      s.needed.push_back({u, v, -1.0});
    }
  }
  s.res.survivors = n_surv;
  s.res.edges_needed = static_cast<std::int32_t>(s.needed.size());

  apply_failure_plan(s.net, plan);
  s.link.set_raw_handler([&s](NodeId self, NodeId from, std::int64_t) {
    s.detector.on_beat(self, from);
  });
  s.link.set_deliver_handler(
      [&s](NodeId self, NodeId from, std::int64_t payload) {
        s.on_deliver(self, from, payload);
      });

  s.detector.start();

  // Recovered nodes announce themselves the moment they are back (the
  // plan's recover event at the same timestamp runs first).
  for (const NodeRecovery& r : plan.recoveries) {
    s.sim.schedule_at(std::max(r.time, 0.0),
                      [&s, node = r.node] { s.announce_alive(node); });
  }

  // With no permanent crash to wait for, views are trivially complete:
  // kick off any needed rewiring (topology != target) immediately.
  if (s.perm_count == 0) {
    s.sim.schedule_at(0.0, [&s, num] {
      for (NodeId w = 0; w < num; ++w) s.check_view(w);
    });
  }

  s.sim.run();

  RepairResult res = std::move(s.res);
  res.heartbeats_sent = s.detector.beats_sent();
  res.false_suspicions = s.detector.false_suspicions();
  res.view_change_messages += s.link.retransmissions() + s.link.acks_sent();
  res.window_overflows = s.link.window_overflows();
  res.net = s.net.stats();
  LHG_CHECK(res.net.conserved(), "run_repair: NetworkStats not conserved");
  res.metrics = s.obs_rt.metrics_snapshot();
  res.trace = s.obs_rt.trace_log();
  res.edges_established = s.established_count;
  res.repaired = s.established_count == res.edges_needed;
  if (!res.repaired) res.reconnect_time = -1.0;

  res.detection_time = 0.0;
  for (NodeId u = 0; u < num; ++u) {
    const auto i = static_cast<std::size_t>(u);
    if (s.in_perm[i] == 0) continue;
    if (s.first_obituary[i] < 0.0) {
      res.detection_time = -1.0;
      break;
    }
    res.detection_time = std::max(res.detection_time, s.first_obituary[i]);
  }

  // False obituaries still standing at quiescence: observer and
  // subject both in the final membership, yet the observer's view
  // marks the subject down.  Epoch'd self-rebuttal keeps this at 0.
  for (NodeId w = 0; w < num; ++w) {
    if (s.in_perm[static_cast<std::size_t>(w)] != 0) continue;
    for (const ViewEntry& e : s.views[static_cast<std::size_t>(w)]) {
      if (e.down && s.in_perm[static_cast<std::size_t>(e.subject)] == 0) {
        ++res.lingering_false_obituaries;
      }
    }
  }

  // The healed overlay: surviving original edges (dead links excluded)
  // plus everything the handshakes established, on dense survivor ids.
  std::vector<core::Edge> healed;
  std::int32_t idx = 0;
  for (const core::Edge& e : topology.edges()) {
    const NodeId du = dense[static_cast<std::size_t>(e.u)];
    const NodeId dv = dense[static_cast<std::size_t>(e.v)];
    if (du >= 0 && dv >= 0 && link_dead[static_cast<std::size_t>(idx)] == 0) {
      healed.push_back({du, dv});
    }
    ++idx;
  }
  for (const Handshake& h : s.needed) {
    if (h.established >= 0.0) {
      healed.push_back({dense[static_cast<std::size_t>(h.u)],
                        dense[static_cast<std::size_t>(h.v)]});
    }
  }
  res.healed = core::Graph::from_edges(n_surv, healed);
  res.survivor_ids = std::move(survivors);
  res.k_connected = core::is_k_vertex_connected(res.healed, cfg.k);
  return res;
}

}  // namespace lhg::flooding
