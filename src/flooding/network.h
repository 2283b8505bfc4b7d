// Message-passing network over a fixed overlay topology.
//
// Nodes communicate only along the edges of an overlay graph; the
// network owns crash/recovery state, link failures and flaps, partition
// windows, per-link latencies, the adversarial channel model (ChaosSpec)
// and the robustness counters (NetworkStats).  A message sent at time t
// arrives at t + latency(link) unless it is dropped by the channel, or,
// at the *delivery* instant, the receiver is crashed, the link is down,
// or an active partition separates the endpoints.  A sender crash only
// blocks *future* sends: under fail-stop, copies already in flight when
// the sender dies still arrive (pinned by the regression tests in
// test_network.cc).  Crash-recovery is symmetric: once a node's last
// crash window closes, copies that would have arrived while it was down
// stay lost while later arrivals (and later sends) succeed.
//
// This header holds the one fault model of both event engines:
// `FaultModel` keeps the crash/link/partition state as counts of open
// fault windows, the send- and delivery-time checks with their
// per-shard NetworkStats/obs accounting, and the channel draws.  Fault
// state has one writer, `apply_failure_plan` (failure.h), which opens
// and closes the windows of a FailurePlan at setup or in scheduled
// mutations.  Two networks derive from FaultModel and add only what
// their engine needs: `BasicNetwork` below runs on the single-queue
// Simulator, `ShardedNetwork` (shard_net.h) on the ShardedSimulator.
//
// The overlay is a template parameter: a network needs only
// `num_nodes()`, `num_edges()` and `edge_index(u, v)` from it, so the
// same simulation runs over a materialized `core::Graph` (the `Network`
// alias, explicitly instantiated in network.cc) or over the
// storage-free `lhg::ImplicitLhg` view at n = 10^6+.
//
// All per-link state is edge-indexed: `edge_index` maps {u,v} to a
// dense id once per send, and latencies / failure flags / channel
// states are flat vectors over those ids.  For kUniformPerLink the
// latencies are drawn up front, one per link in canonical edge order,
// so the send path is branch-light and allocation-free; deliveries ride
// the engine's typed deliver events straight back into the network.
//
// Rng consumption (the determinism contract, one rule for both
// networks).  The constructor draws from the caller's generator: first
// the kUniformPerLink latency table, one draw per link in canonical edge
// order; then, only when the ChaosSpec or kUniformPerSend needs draws,
// one 64-bit arc seed.  Directed arc a = (link << 1) | (from > to) draws
// from its own `Rng::stream(arc_seed, a)` and keeps its own
// Gilbert–Elliott state; an arc's draws happen at its sender, in that
// node's execution order.  Per transmission, the arc's stream yields
//   1. the Gilbert–Elliott state transition, if enabled (one draw);
//   2. the loss draw (i.i.d. probability, or the GE state's);
//   3. the first copy's draws: the latency sample (kUniformPerSend
//      only), then the reorder draw and, when it hits, the extra-delay
//      draw;
//   4. the duplication draw, if duplication is enabled, and when it
//      hits, the second copy's draws as in 3.
// A disabled knob draws nothing, so chaos-free kFixed / kUniformPerLink
// runs reproduce the golden traces bit for bit.  Both engines therefore
// draw alike: a run matches draw for draw across them whenever no node
// runs two events of one generation at one timestamp (the sharded engine
// runs such events in key order, the single queue in insertion order;
// shard_sim.h), and the per-arc streams cost
// 64 B per edge on chaos or per-send runs.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "flooding/event_sim.h"

namespace lhg::flooding {

/// How link latencies are produced.
struct LatencySpec {
  enum class Kind {
    kFixed,           ///< every message takes `base`
    kUniformPerLink,  ///< each link samples once in [base, base+jitter]
    kUniformPerSend,  ///< each message samples in [base, base+jitter]
  };
  Kind kind = Kind::kFixed;
  double base = 1.0;
  double jitter = 0.0;

  static LatencySpec fixed(double value) { return {Kind::kFixed, value, 0.0}; }
  static LatencySpec per_link(double base, double jitter) {
    return {Kind::kUniformPerLink, base, jitter};
  }
  static LatencySpec per_send(double base, double jitter) {
    return {Kind::kUniformPerSend, base, jitter};
  }
};

/// Adversarial channel model, applied per transmission.  All knobs
/// default off, in which case the Network consumes no Rng draws on the
/// send path (the golden-trace determinism contract).
struct ChaosSpec {
  /// I.i.d. per-transmission drop probability in [0, 1).  Ignored when
  /// the Gilbert–Elliott channel is enabled.
  double loss = 0.0;

  /// Probability that a transmission is duplicated (two independent
  /// copies are delivered; both count the same send).
  double duplicate = 0.0;

  /// Probability that a delivered copy picks up extra delay, uniform in
  /// [0, reorder_jitter] — out-of-order delivery relative to FIFO links.
  double reorder = 0.0;
  double reorder_jitter = 0.0;

  /// Gilbert–Elliott bursty channel: each directed arc is a two-state
  /// Markov chain advanced once per transmission; the loss probability
  /// depends on the state.  Models correlated (bursty) loss.
  bool gilbert_elliott = false;
  double ge_good_to_bad = 0.05;  ///< P(good -> bad) per transmission
  double ge_bad_to_good = 0.25;  ///< P(bad -> good) per transmission
  double ge_loss_good = 0.0;     ///< drop probability in the good state
  double ge_loss_bad = 0.5;      ///< drop probability in the bad state

  static ChaosSpec none() { return {}; }
  static ChaosSpec iid(double p) {
    ChaosSpec c;
    c.loss = p;
    return c;
  }
  static ChaosSpec bursty(double good_to_bad, double bad_to_good,
                          double loss_bad) {
    ChaosSpec c;
    c.gilbert_elliott = true;
    c.ge_good_to_bad = good_to_bad;
    c.ge_bad_to_good = bad_to_good;
    c.ge_loss_bad = loss_bad;
    return c;
  }

  bool lossy() const { return loss > 0.0 || gilbert_elliott; }
  bool enabled() const {
    return lossy() || duplicate > 0.0 || reorder > 0.0;
  }
};

/// Robustness counters.  `sent` counts transmission attempts accepted by
/// send()/send_link(); every accepted transmission ends in exactly one
/// of {delivered, lost, dropped_*} per scheduled copy, and `duplicated`
/// counts the extra copies on top.
struct NetworkStats {
  std::int64_t sent = 0;        ///< accepted transmissions
  std::int64_t delivered = 0;   ///< copies handed to the receive handler
  std::int64_t lost = 0;        ///< copies dropped by the loss model
  std::int64_t duplicated = 0;  ///< extra copies injected by duplication

  std::int64_t blocked_sender_crashed = 0;  ///< sends refused: dead sender
  std::int64_t blocked_link_down = 0;       ///< sends refused: link down
  std::int64_t blocked_partition = 0;       ///< sends refused: cut crossing

  std::int64_t dropped_receiver_crashed = 0;  ///< in flight, receiver dead
  std::int64_t dropped_link_down = 0;         ///< in flight, link cut
  std::int64_t dropped_partition = 0;         ///< in flight, cut activated

  /// In-flight copies that never reached the handler, any cause.
  std::int64_t undelivered() const {
    return lost + dropped_receiver_crashed + dropped_link_down +
           dropped_partition;
  }

  /// The conservation law: every accepted copy was delivered, counted
  /// as undelivered, or is still `in_flight` (0 after a drained run;
  /// the engine's queued deliveries after a bounded one).
  bool conserved(std::int64_t in_flight = 0) const {
    return delivered + undelivered() + in_flight == sent + duplicated;
  }

  NetworkStats& operator+=(const NetworkStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    lost += other.lost;
    duplicated += other.duplicated;
    blocked_sender_crashed += other.blocked_sender_crashed;
    blocked_link_down += other.blocked_link_down;
    blocked_partition += other.blocked_partition;
    dropped_receiver_crashed += other.dropped_receiver_crashed;
    dropped_link_down += other.dropped_link_down;
    dropped_partition += other.dropped_partition;
    return *this;
  }

  bool operator==(const NetworkStats&) const = default;
};

namespace detail {

inline void check_probability(double p, const char* what) {
  LHG_CHECK(p >= 0.0 && p < 1.0, "Network: {} probability {} must be in [0, 1)",
            what, p);
}

}  // namespace detail

struct FailurePlan;

/// The only way to change fault state (failure.h).
template <typename Net>
void apply_failure_plan(Net& net, const FailurePlan& plan);

/// The fault model, lossy channel and accounting of both networks.
/// `Derived` (a BasicNetwork or ShardedNetwork, which befriends this
/// base) supplies what differs per engine through four private hooks:
///
///   * `now(shard)` is the executing shard's clock;
///   * `schedule_mutation(at, fn)` runs `fn()` at virtual time `at`: a
///     callback on the single queue, a control event between windows
///     on the sharded engine;
///   * `trace_node(kind, node)` records a crash/recover trace event on
///     the engine's tap and clock;
///   * `schedule_delivery(shard, time, from, to, link, message)` queues
///     one copy on the engine.
///
/// The accounting is per shard (one shard on the single queue): each
/// shard's NetworkStats, cache-line padded, and its obs tap are touched
/// only by the lane executing that shard.  The channel state, per
/// directed arc, lives here too.
template <typename Derived, typename Topology>
class FaultModel {
 public:
  /// Robustness counters (see NetworkStats): the shard-index-ordered sum
  /// of the per-shard counters, int64 sums, so bit-identical at any
  /// shard and thread count.
  NetworkStats stats() const {
    NetworkStats total;
    for (const ShardAccount& account : accounts_) total += account.stats;
    return total;
  }

  const Topology& topology() const { return *topology_; }

  bool is_alive(core::NodeId node) const {
    return crashed_[static_cast<std::size_t>(node)] == 0;
  }
  bool link_ok(core::NodeId u, core::NodeId v) const {
    const std::int32_t link = topology_->edge_index(u, v);
    return link >= 0 && link_failed_[static_cast<std::size_t>(link)] == 0;
  }
  std::int32_t alive_count() const { return alive_count_; }

  /// Whether at least one partition window is open.
  bool partition_active() const { return !open_cuts_.empty(); }

 protected:
  /// `topology` must outlive the network.  Every draw from `rng` happens
  /// here: the kUniformPerLink latency table, then the arc seed (see the
  /// header).  `shards` sizes the per-shard accounting.
  FaultModel(const Topology& topology, LatencySpec latency, core::Rng& rng,
             const ChaosSpec& chaos, std::int32_t shards)
      : topology_(&topology),
        latency_(latency),
        chaos_(chaos),
        accounts_(static_cast<std::size_t>(shards)),
        crashed_(static_cast<std::size_t>(topology.num_nodes()), 0),
        alive_count_(topology.num_nodes()),
        link_failed_(static_cast<std::size_t>(topology.num_edges()), 0) {
    LHG_CHECK(latency.base >= 0 && latency.jitter >= 0,
              "Network: negative latency (base={}, jitter={})", latency.base,
              latency.jitter);
    detail::check_probability(chaos.loss, "loss");
    detail::check_probability(chaos.duplicate, "duplicate");
    detail::check_probability(chaos.reorder, "reorder");
    LHG_CHECK(chaos.reorder_jitter >= 0.0,
              "Network: negative reorder jitter {}", chaos.reorder_jitter);
    if (chaos.gilbert_elliott) {
      detail::check_probability(chaos.ge_good_to_bad, "GE good->bad");
      detail::check_probability(chaos.ge_bad_to_good, "GE bad->good");
      detail::check_probability(chaos.ge_loss_good, "GE good-state loss");
      detail::check_probability(chaos.ge_loss_bad, "GE bad-state loss");
    }
    if (latency.kind == LatencySpec::Kind::kUniformPerLink) {
      // Draw every link's latency up front, in canonical edge order (the
      // pinned consumption order of the determinism contract); the send
      // path then reduces to a flat load.
      link_latency_.resize(static_cast<std::size_t>(topology.num_edges()));
      for (double& l : link_latency_) {
        l = latency.base + latency.jitter * rng.next_double();
      }
    }
    if (chaos.enabled() ||
        latency.kind == LatencySpec::Kind::kUniformPerSend) {
      const std::uint64_t arc_seed = rng();
      const auto arcs = static_cast<std::int64_t>(topology.num_edges()) * 2;
      arc_rng_.resize(static_cast<std::size_t>(arcs));
      core::parallel_for(arcs, /*grain=*/4096,
                         [&](std::int64_t a, int /*lane*/) {
                           arc_rng_[static_cast<std::size_t>(a)] =
                               core::Rng::stream(arc_seed,
                                                 static_cast<std::uint64_t>(a));
                         });
      if (chaos.gilbert_elliott) {
        // Every arc starts in the good state.
        arc_bad_.assign(static_cast<std::size_t>(arcs), 0);
      }
    }
  }
  ~FaultModel() = default;

  // Deferred mutations and in-flight deliveries hold pointers to the
  // network.
  FaultModel(const FaultModel&) = delete;
  FaultModel& operator=(const FaultModel&) = delete;

  /// Edge id of {u, v}; fails a contract naming `what` when the overlay
  /// has no such link.
  std::int32_t link_of(core::NodeId u, core::NodeId v, const char* what) const {
    const std::int32_t link = topology_->edge_index(u, v);
    LHG_CHECK(link >= 0, "{}: ({}, {}) is not a link of the overlay", what, u,
              v);
    return link;
  }

  /// One transmission from `from` over `link`, sent by `shard` (the
  /// sender's) at its current time: the send-time checks, then the
  /// channel, then one copy (two when duplicated) handed to the engine.
  /// Returns whether the transmission was accepted (a copy lost on the
  /// wire was).  Always inlined (as is BasicNetwork::send_link), so a
  /// chaos-free send stays inside the protocol's handler.
  [[gnu::always_inline]] bool transmit(std::int32_t shard, core::NodeId from,
                                       core::NodeId to, std::int32_t link,
                                       std::int64_t message) {
    ShardAccount& account = accounts_[static_cast<std::size_t>(shard)];
    NetworkStats& stats = account.stats;
    const obs::SimObs* obs = account.obs;
    const double now = derived().now(shard);
    if (crashed_[static_cast<std::size_t>(from)] != 0) {
      ++stats.blocked_sender_crashed;
      blocked(obs, now, from, to, obs::DropCause::kBlockedSenderCrashed);
      return false;
    }
    if (link_failed_[static_cast<std::size_t>(link)] != 0) {
      ++stats.blocked_link_down;
      blocked(obs, now, from, to, obs::DropCause::kBlockedLinkDown);
      return false;
    }
    if (partition_cuts(from, to)) {
      ++stats.blocked_partition;
      blocked(obs, now, from, to, obs::DropCause::kBlockedPartition);
      return false;
    }
    ++stats.sent;
    if (obs != nullptr) {
      obs->add(obs->net_sent);
      obs->event(now, obs::TraceKind::kSend, from, to, link);
    }
    const std::size_t arc = (static_cast<std::size_t>(link) << 1) |
                            static_cast<std::size_t>(from > to ? 1 : 0);
    if (channel_drops(arc)) {
      ++stats.lost;  // transmitted but dropped on the wire
      if (obs != nullptr) {
        obs->add(obs->net_lost);
        obs->event(now, obs::TraceKind::kDrop, from, to,
                   static_cast<std::int64_t>(obs::DropCause::kChannelLoss));
      }
      return true;
    }
    schedule_copy(shard, obs, now, arc, from, to, link, message);
    if (chaos_.duplicate > 0.0 && draw_bool(arc, chaos_.duplicate)) {
      ++stats.duplicated;
      if (obs != nullptr) obs->add(obs->net_duplicated);
      schedule_copy(shard, obs, now, arc, from, to, link, message);
    }
    return true;
  }

  /// Delivery checks on `shard` (the receiver's) at arrival time: the
  /// receiver must be alive, the link must still be up, and no active
  /// partition may separate the endpoints (a message in flight when its
  /// link fails or the cut activates is lost, modeling a cut trunk).
  /// The sender's state is irrelevant here — it was alive at send time
  /// or transmit refused.  Returns whether the copy reaches the receive
  /// handler.
  bool admit_delivery(std::int32_t shard, core::NodeId from, core::NodeId to,
                      std::int32_t link) {
    ShardAccount& account = accounts_[static_cast<std::size_t>(shard)];
    NetworkStats& stats = account.stats;
    const obs::SimObs* obs = account.obs;
    const double now = derived().now(shard);
    if (crashed_[static_cast<std::size_t>(to)] != 0) {
      ++stats.dropped_receiver_crashed;
      dropped(obs, now, from, to, obs::DropCause::kReceiverCrashed);
      return false;
    }
    if (link_failed_[static_cast<std::size_t>(link)] != 0) {
      ++stats.dropped_link_down;
      dropped(obs, now, from, to, obs::DropCause::kLinkDown);
      return false;
    }
    if (partition_cuts(from, to)) {
      ++stats.dropped_partition;
      dropped(obs, now, from, to, obs::DropCause::kPartition);
      return false;
    }
    ++stats.delivered;
    if (obs != nullptr) {
      obs->add(obs->net_delivered);
      obs->event(now, obs::TraceKind::kDeliver, to, from, link);
    }
    return true;
  }

  const Topology* topology_;
  LatencySpec latency_;
  ChaosSpec chaos_;
  std::vector<double> link_latency_;  // per edge id (kUniformPerLink)

  /// One shard's counters and obs tap (may be null), on cache lines of
  /// their own.
  struct alignas(64) ShardAccount {
    NetworkStats stats;
    const obs::SimObs* obs = nullptr;
  };
  std::vector<ShardAccount> accounts_;  // per shard

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  // Advances arc `arc`'s channel for one transmission; true = the copy
  // drops.
  bool channel_drops(std::size_t arc) {
    if (chaos_.gilbert_elliott) return ge_drops(arc);
    return chaos_.loss > 0.0 && draw_bool(arc, chaos_.loss);
  }
  // Advances the arc's two-state chain once, then draws the loss with
  // the new state's probability.
  [[gnu::noinline]] bool ge_drops(std::size_t arc) {
    std::uint8_t& bad = arc_bad_[arc];
    if (bad == 0) {
      if (draw_bool(arc, chaos_.ge_good_to_bad)) bad = 1;
    } else {
      if (draw_bool(arc, chaos_.ge_bad_to_good)) bad = 0;
    }
    const double p = bad != 0 ? chaos_.ge_loss_bad : chaos_.ge_loss_good;
    return p > 0.0 && draw_bool(arc, p);
  }

  // The arc's stream, out of line: only the draw branches reach it, so
  // the chaos-free send path stays small.
  [[gnu::noinline]] bool draw_bool(std::size_t arc, double p) {
    return arc_rng_[arc].next_bool(p);
  }
  [[gnu::noinline]] double draw_double(std::size_t arc) {
    return arc_rng_[arc].next_double();
  }

  double sample_latency(std::int32_t link, std::size_t arc) {
    switch (latency_.kind) {
      case LatencySpec::Kind::kFixed:
        return latency_.base;
      case LatencySpec::Kind::kUniformPerLink:
        return link_latency_[static_cast<std::size_t>(link)];
      case LatencySpec::Kind::kUniformPerSend:
        return latency_.base + latency_.jitter * draw_double(arc);
    }
    LHG_FAIL("Network: unknown latency kind {}",
             static_cast<int>(latency_.kind));
  }

  // Schedules one delivery copy (latency + optional reorder jitter).
  // Inlined into the send path like transmit itself.
  [[gnu::always_inline]] void schedule_copy(
      std::int32_t shard, const obs::SimObs* obs, double now, std::size_t arc,
      core::NodeId from, core::NodeId to, std::int32_t link,
      std::int64_t message) {
    double delay = sample_latency(link, arc);
    if (chaos_.reorder > 0.0 && draw_bool(arc, chaos_.reorder)) {
      delay += chaos_.reorder_jitter * draw_double(arc);
    }
    if (obs != nullptr) {
      obs->observe(obs->net_delay, obs::SimObs::milli_ticks(delay));
    }
    derived().schedule_delivery(shard, now + delay, from, to, link, message);
  }

  // Cold-path obs recording for refused sends / dropped copies.
  static void blocked(const obs::SimObs* obs, double now, core::NodeId from,
                      core::NodeId to, obs::DropCause cause) {
    if (obs == nullptr) return;
    obs->add(obs->net_blocked);
    obs->event(now, obs::TraceKind::kDrop, from, to,
               static_cast<std::int64_t>(cause));
  }
  static void dropped(const obs::SimObs* obs, double now, core::NodeId from,
                      core::NodeId to, obs::DropCause cause) {
    if (obs == nullptr) return;
    obs->add(obs->net_dropped);
    obs->event(now, obs::TraceKind::kDrop, from, to,
               static_cast<std::int64_t>(cause));
  }

  bool partition_cuts(core::NodeId u, core::NodeId v) const {
    return !open_cuts_.empty() && open_cut_separates(u, v);
  }
  // Out of line and cold, so the send and deliver paths stay small and
  // fall through while no cut is open.
  [[gnu::cold, gnu::noinline]] bool open_cut_separates(core::NodeId u,
                                                       core::NodeId v) const {
    const auto a = static_cast<std::size_t>(u);
    const auto b = static_cast<std::size_t>(v);
    for (const std::uint8_t* side : open_cuts_) {
      if (side[a] != side[b]) return true;
    }
    return false;
  }

  // --- Fault windows ----------------------------------------------------
  // Reached only by apply_failure_plan (failure.h, which states the rule),
  // at setup or inside a scheduled mutation.
  template <typename Net>
  friend void apply_failure_plan(Net& net, const FailurePlan& plan);

  /// Runs `fn` at once when `time <= 0`, else as one mutation at `time`.
  template <typename F>
  void mutate_at(double time, F&& fn) {
    if (time <= 0.0) {
      fn();
    } else {
      derived().schedule_mutation(time, std::forward<F>(fn));
    }
  }

  static void open_window(std::uint8_t& count) {
    LHG_CHECK(count < 255, "fault model: 255 windows open on one target");
    ++count;
  }
  void open_crash(core::NodeId node) {
    std::uint8_t& count = crashed_[static_cast<std::size_t>(node)];
    open_window(count);
    if (count == 1) {
      --alive_count_;
      derived().trace_node(obs::TraceKind::kCrash, node);
    }
  }
  /// A recovery with no open crash window does nothing.
  void close_crash(core::NodeId node) {
    std::uint8_t& count = crashed_[static_cast<std::size_t>(node)];
    if (count == 0) return;
    if (--count == 0) {
      ++alive_count_;
      derived().trace_node(obs::TraceKind::kRecover, node);
    }
  }
  void open_link(std::int32_t link) {
    open_window(link_failed_[static_cast<std::size_t>(link)]);
  }
  void close_link(std::int32_t link) {  // always after its own open
    --link_failed_[static_cast<std::size_t>(link)];
  }

  /// Keeps a copy of `side` for the network's lifetime; the returned
  /// pointer names the cut to open_cut / close_cut.
  const std::uint8_t* add_cut(const std::vector<std::uint8_t>& side) {
    return cut_sides_.emplace_back(side).data();
  }
  void open_cut(const std::uint8_t* side) { open_cuts_.push_back(side); }
  void close_cut(const std::uint8_t* side) {
    open_cuts_.erase(std::find(open_cuts_.begin(), open_cuts_.end(), side));
  }

  // Channel state per directed arc, empty unless the channel draws.  An
  // arc is touched only by its sender, so each shard owns its arcs.
  std::vector<core::Rng> arc_rng_;
  std::vector<std::uint8_t> arc_bad_;  // Gilbert–Elliott state

  // Open-window counts, byte-wide: hot-path loads, no bit ops.
  std::vector<std::uint8_t> crashed_;  // per node
  std::int32_t alive_count_ = 0;
  std::vector<std::uint8_t> link_failed_;  // per edge id
  std::vector<std::vector<std::uint8_t>> cut_sides_;  // one per window
  std::vector<const std::uint8_t*> open_cuts_;  // into cut_sides_
};

/// The fault model on the single-queue Simulator: every timed mutation
/// is a callback event.
template <typename Topology>
class BasicNetwork final
    : public FaultModel<BasicNetwork<Topology>, Topology>,
      private Simulator::DeliverSink {
  using Base = FaultModel<BasicNetwork<Topology>, Topology>;
  friend Base;

 public:
  /// `topology` and `sim` must outlive the network.  `rng` is drawn
  /// from here only (FaultModel's constructor), never during the run.
  BasicNetwork(const Topology& topology, Simulator& sim, LatencySpec latency,
               core::Rng& rng, const ChaosSpec& chaos = {})
      : Base(topology, latency, rng, chaos, /*shards=*/1), sim_(&sim) {}

  Simulator& simulator() { return *sim_; }

  /// Observability tap (may be null; default).  Mirrors NetworkStats
  /// into the metrics registry and emits send/drop/deliver/crash trace
  /// events; recording never draws from the Rng, so enabling it cannot
  /// change a run.
  void set_obs(const obs::SimObs* obs) { this->accounts_[0].obs = obs; }

  /// Handler invoked on message delivery: (receiver, sender, message id).
  using ReceiveHandler =
      std::function<void(core::NodeId, core::NodeId, std::int64_t)>;
  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }

  /// Sends `message` from `from` to its neighbor `to`.  Throws if the
  /// nodes are not adjacent in the topology.  Returns false (and sends
  /// nothing) if the sender is crashed, the link is down, or an active
  /// partition separates the endpoints.  Counts one message on every
  /// actual transmission attempt.
  bool send(core::NodeId from, core::NodeId to, std::int64_t message) {
    return send_link(from, to, this->link_of(from, to, "send"), message);
  }

  /// Fast-path send for callers that already hold the dense edge id of
  /// {from, to} — e.g. protocols walking a CSR arc range with
  /// `arc_begin` / `edge_of_arc` or `incident_edge`.  Identical
  /// semantics to send(), minus the O(log deg) adjacency search.
  [[gnu::always_inline]] bool send_link(core::NodeId from, core::NodeId to,
                                        std::int32_t link,
                                        std::int64_t message) {
    LHG_DCHECK(link == this->topology_->edge_index(from, to),
               "send_link: {} is not the edge id of ({}, {})", link, from, to);
    return this->transmit(/*shard=*/0, from, to, link, message);
  }

 private:
  // Typed-event entry point: delivery-instant checks, then the handler.
  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t message) override {
    if (this->admit_delivery(/*shard=*/0, from, to, link) && on_receive_) {
      on_receive_(to, from, message);
    }
  }

  // --- FaultModel hooks --------------------------------------------------
  double now(std::int32_t /*shard*/) const { return sim_->now(); }
  template <typename F>
  void schedule_mutation(double at, F&& fn) {
    sim_->schedule_at(at, std::forward<F>(fn));
  }
  void trace_node(obs::TraceKind kind, core::NodeId node) const {
    const obs::SimObs* obs = this->accounts_[0].obs;
    if (obs != nullptr) obs->event(sim_->now(), kind, node);
  }
  void schedule_delivery(std::int32_t /*shard*/, double time,
                         core::NodeId from, core::NodeId to,
                         std::int32_t link, std::int64_t message) {
    sim_->schedule_deliver_at(time, this, from, to, link, message);
  }

  Simulator* sim_;
  ReceiveHandler on_receive_;
};

/// The canonical materialized-overlay instantiation (the only one most
/// of the library uses); compiled once in network.cc.
using Network = BasicNetwork<core::Graph>;

extern template class FaultModel<Network, core::Graph>;
extern template class BasicNetwork<core::Graph>;

}  // namespace lhg::flooding
