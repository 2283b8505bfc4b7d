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
// test_network.cc).  Crash-recovery is symmetric: recover_* clears the
// crash flag, so copies that would arrive during the down window are
// lost while later arrivals (and later sends) succeed.
//
// This header holds the one fault model of both event engines:
// `FaultModel` keeps the crash/link/partition state with its
// epoch-guarded windows, the send- and delivery-time checks with their
// NetworkStats/obs accounting, and the channel draws.  Two networks
// derive from it and add only what their engine needs: `BasicNetwork`
// below runs on the single-queue Simulator, `ShardedNetwork`
// (shard_net.h) on the ShardedSimulator.
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
// Rng consumption order per transmission (the determinism contract — a
// disabled knob consumes no draws, so chaos-free runs reproduce the
// golden traces bit for bit).  BasicNetwork draws from its one
// generator, ShardedNetwork from the sending arc's own stream:
//   1. Gilbert–Elliott state transition, if enabled (one draw);
//   2. the loss draw (i.i.d. probability, or the GE state's);
//   3. the duplication draw, if duplication is enabled;
//   4. per scheduled copy: the latency sample (kUniformPerSend only),
//      then the reorder draw and, when it hits, the extra-delay draw.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
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

  /// Gilbert–Elliott bursty channel: each link is a two-state Markov
  /// chain advanced once per transmission; the loss probability depends
  /// on the state.  Models correlated (bursty) loss.
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

  /// The conservation law of a drained run: every accepted copy was
  /// either delivered or counted as undelivered.
  bool conserved() const {
    return delivered + undelivered() == sent + duplicated;
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

/// The fault model and lossy channel of both networks.  `Derived` (a
/// BasicNetwork or ShardedNetwork, which befriends this base) supplies
/// what differs per engine through four private hooks:
///
///   * `schedule_mutation(at, fn)` runs `fn()` at virtual time `at`: a
///     callback on the single queue, a control event between windows
///     on the sharded engine;
///   * `check_mutable(what)` asserts that shared state may change now
///     (the sharded engine allows it only in serial phases);
///   * `trace_node(kind, node)` records a crash/recover trace event on
///     the engine's tap and clock;
///   * `schedule_delivery(shard, time, from, to, link, message)` queues
///     one copy on the engine.
///
/// Derived also provides `stats()`.  Stats, obs taps, the clock and the
/// channel's Rng reach the shared send and deliver paths as arguments,
/// so each engine keeps its own (one of each, or one per shard / arc).
template <typename Derived, typename Topology>
class FaultModel {
 public:
  const Topology& topology() const { return *topology_; }

  /// Crashes `node` immediately (fail-stop; in-flight messages *from* it
  /// sent before the crash still arrive, later sends are dropped).
  /// Every call — including one on an already-crashed node — advances
  /// the node's crash epoch, so pending windowed recoveries for earlier
  /// crashes of the node are invalidated (see `crash_windowed`).
  void crash_now(core::NodeId node) {
    LHG_CHECK_RANGE(node, topology_->num_nodes());
    derived().check_mutable("crash_now");
    bump_crash_epoch(node);
    if (crashed_[static_cast<std::size_t>(node)] == 0) {
      crashed_[static_cast<std::size_t>(node)] = 1;
      --alive_count_;
      derived().trace_node(obs::TraceKind::kCrash, node);
    }
  }

  /// Schedules a crash at absolute virtual time `at`.
  void crash_at(core::NodeId node, double at) {
    derived().schedule_mutation(at, [this, node] { crash_now(node); });
  }

  /// Crash-recovery model: the node comes back with no protocol state
  /// (state restoration is the protocol's problem, not the network's).
  /// Copies that arrived during the down window stay lost; arrivals and
  /// sends after the recovery instant succeed.  Idempotent.
  void recover_now(core::NodeId node) {
    LHG_CHECK_RANGE(node, topology_->num_nodes());
    derived().check_mutable("recover_now");
    if (crashed_[static_cast<std::size_t>(node)] != 0) {
      crashed_[static_cast<std::size_t>(node)] = 0;
      ++alive_count_;
      derived().trace_node(obs::TraceKind::kRecover, node);
    }
  }
  void recover_at(core::NodeId node, double at) {
    derived().schedule_mutation(at, [this, node] { recover_now(node); });
  }

  /// Overlap-safe crash/recovery window.  Crashes `node` at `down`
  /// (immediately when down <= 0) and returns a window token; the
  /// matching `recover_windowed(node, up, token)` recovers the node at
  /// `up` only if this window's crash is still the node's most recent
  /// one.  A later crash — from another window or a direct
  /// `crash_now` — advances the epoch, so the stale recovery becomes a
  /// no-op instead of reviving a node someone else just took down.
  std::size_t crash_windowed(core::NodeId node, double down) {
    const std::size_t w = new_window();
    if (down <= 0.0) {
      crash_now(node);
      window_epoch_[w] = crash_epoch_of(node);
    } else {
      derived().schedule_mutation(down, [this, node, w] {
        crash_now(node);
        window_epoch_[w] = crash_epoch_of(node);
      });
    }
    return w;
  }
  void recover_windowed(core::NodeId node, double up, std::size_t window) {
    LHG_CHECK(window < window_epoch_.size(),
              "recover_windowed: bad window token {}", window);
    derived().schedule_mutation(up, [this, node, w = window] {
      if (crash_epoch_of(node) == window_epoch_[w]) recover_now(node);
    });
  }

  /// Fails the link {u, v} immediately / at time `at`.  Messages in
  /// flight on the link at failure time are lost.  Like `crash_now`,
  /// every call advances the link's failure epoch, invalidating pending
  /// windowed restores from earlier failure windows.
  void fail_link_now(core::NodeId u, core::NodeId v) {
    const std::int32_t link = link_of(u, v, "fail_link");
    derived().check_mutable("fail_link_now");
    bump_link_epoch(link);
    link_failed_[static_cast<std::size_t>(link)] = 1;
  }
  void fail_link_at(core::NodeId u, core::NodeId v, double at) {
    derived().schedule_mutation(at, [this, u, v] { fail_link_now(u, v); });
  }

  /// Overlap-safe link flap window, mirroring `crash_windowed`: the
  /// restore at `up` fires only while this window's failure is still the
  /// link's most recent one.
  std::size_t fail_link_windowed(core::NodeId u, core::NodeId v, double down) {
    const std::int32_t link = link_of(u, v, "fail_link");
    const std::size_t w = new_window();
    if (down <= 0.0) {
      fail_link_now(u, v);
      window_epoch_[w] = link_epoch_of(link);
    } else {
      derived().schedule_mutation(down, [this, u, v, w] {
        fail_link_now(u, v);
        window_epoch_[w] = link_epoch_of(topology_->edge_index(u, v));
      });
    }
    return w;
  }
  void restore_link_windowed(core::NodeId u, core::NodeId v, double up,
                             std::size_t window) {
    LHG_CHECK(window < window_epoch_.size(),
              "restore_link_windowed: bad window token {}", window);
    derived().schedule_mutation(up, [this, u, v, w = window] {
      const std::int32_t link = topology_->edge_index(u, v);
      if (link_epoch_of(link) == window_epoch_[w]) restore_link_now(u, v);
    });
  }

  /// Brings a failed link back up (a "flap" is fail_link_at + this).
  /// Idempotent.
  void restore_link_now(core::NodeId u, core::NodeId v) {
    const std::int32_t link = link_of(u, v, "restore_link");
    derived().check_mutable("restore_link_now");
    link_failed_[static_cast<std::size_t>(link)] = 0;
  }
  void restore_link_at(core::NodeId u, core::NodeId v, double at) {
    derived().schedule_mutation(at,
                                [this, u, v] { restore_link_now(u, v); });
  }

  /// Activates a bipartition: `side` maps every node to 0 or 1, and
  /// while active every transmission whose endpoints disagree is
  /// blocked at send time and dropped at delivery time.  One partition
  /// is active at a time (a new call replaces the old cut and advances
  /// the partition epoch, invalidating scheduled window clears for the
  /// replaced cut).
  void set_partition(std::vector<std::uint8_t> side) {
    LHG_CHECK(static_cast<core::NodeId>(side.size()) == topology_->num_nodes(),
              "partition: side map has {} entries for n={}", side.size(),
              topology_->num_nodes());
    derived().check_mutable("set_partition");
    for (const std::uint8_t s : side) {
      LHG_CHECK(s <= 1, "partition: side {} is not 0 or 1", s);
    }
    partition_side_ = std::move(side);
    partition_active_ = true;
    ++partition_epoch_;
  }
  void clear_partition() {
    derived().check_mutable("clear_partition");
    partition_active_ = false;
  }
  bool partition_active() const { return partition_active_; }

  /// Schedules the partition for the window [start, end).  The clear at
  /// `end` is epoch-guarded: if another partition replaces this one
  /// mid-window, the stale clear no longer dissolves the new cut.
  void partition_during(std::vector<std::uint8_t> side, double start,
                        double end) {
    LHG_CHECK(start < end, "partition: empty window [{}, {})", start, end);
    const std::size_t w = new_window();
    derived().schedule_mutation(
        start, [this, w, side = std::move(side)]() mutable {
          set_partition(std::move(side));
          window_epoch_[w] = partition_epoch_;
        });
    derived().schedule_mutation(end, [this, w] {
      if (partition_epoch_ == window_epoch_[w]) clear_partition();
    });
  }

  /// Activates `side` immediately and schedules the epoch-guarded clear
  /// at `end` — the immediate-start form of `partition_during`.
  void partition_until(std::vector<std::uint8_t> side, double end) {
    set_partition(std::move(side));
    derived().schedule_mutation(end, [this, e = partition_epoch_] {
      if (partition_epoch_ == e) clear_partition();
    });
  }

  bool is_alive(core::NodeId node) const {
    return crashed_[static_cast<std::size_t>(node)] == 0;
  }
  bool link_ok(core::NodeId u, core::NodeId v) const {
    const std::int32_t link = topology_->edge_index(u, v);
    return link >= 0 && link_failed_[static_cast<std::size_t>(link)] == 0;
  }
  std::int32_t alive_count() const { return alive_count_; }

  /// Transmissions accepted / dropped by the loss model so far.
  std::int64_t messages_sent() const { return derived().stats().sent; }
  std::int64_t messages_lost() const { return derived().stats().lost; }

 protected:
  /// `topology` must outlive the network.  With kUniformPerLink every
  /// link's latency is drawn here from `rng`, in canonical edge order.
  FaultModel(const Topology& topology, LatencySpec latency, core::Rng& rng,
             const ChaosSpec& chaos)
      : topology_(&topology),
        latency_(latency),
        chaos_(chaos),
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

  /// One transmission from `from` over `link`, sent at `now`: the
  /// send-time checks, then the channel, then one copy (two when
  /// duplicated) handed to the engine.  `rng` and `ge_bad` are the
  /// channel's generator and Gilbert–Elliott state; either may be null
  /// when the ChaosSpec and LatencySpec never draw from it.  Returns
  /// whether the transmission was accepted (a copy lost on the wire
  /// was).
  bool transmit(std::int32_t shard, NetworkStats& stats,
                const obs::SimObs* obs, double now, core::Rng* rng,
                std::uint8_t* ge_bad, core::NodeId from, core::NodeId to,
                std::int32_t link, std::int64_t message) {
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
    if (channel_drops(rng, ge_bad)) {
      ++stats.lost;  // transmitted but dropped on the wire
      if (obs != nullptr) {
        obs->add(obs->net_lost);
        obs->event(now, obs::TraceKind::kDrop, from, to,
                   static_cast<std::int64_t>(obs::DropCause::kChannelLoss));
      }
      return true;
    }
    schedule_copy(shard, obs, now, rng, from, to, link, message);
    if (chaos_.duplicate > 0.0 && rng->next_bool(chaos_.duplicate)) {
      ++stats.duplicated;
      if (obs != nullptr) obs->add(obs->net_duplicated);
      schedule_copy(shard, obs, now, rng, from, to, link, message);
    }
    return true;
  }

  /// Delivery checks at arrival time `now`: the receiver must be alive,
  /// the link must still be up, and no active partition may separate
  /// the endpoints (a message in flight when its link fails or the cut
  /// activates is lost, modeling a cut trunk).  The sender's state is
  /// irrelevant here — it was alive at send time or transmit refused.
  /// Returns whether the copy reaches the receive handler.
  bool admit_delivery(NetworkStats& stats, const obs::SimObs* obs, double now,
                      core::NodeId from, core::NodeId to, std::int32_t link) {
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

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  // Advances the channel for one transmission; true = the copy drops.
  bool channel_drops(core::Rng* rng, std::uint8_t* ge_bad) const {
    if (chaos_.gilbert_elliott) {
      std::uint8_t& bad = *ge_bad;
      // Advance the two-state chain once per transmission, then draw the
      // loss with the new state's probability.
      if (bad == 0) {
        if (rng->next_bool(chaos_.ge_good_to_bad)) bad = 1;
      } else {
        if (rng->next_bool(chaos_.ge_bad_to_good)) bad = 0;
      }
      const double p = bad != 0 ? chaos_.ge_loss_bad : chaos_.ge_loss_good;
      return p > 0.0 && rng->next_bool(p);
    }
    return chaos_.loss > 0.0 && rng->next_bool(chaos_.loss);
  }

  double sample_latency(std::int32_t link, core::Rng* rng) const {
    switch (latency_.kind) {
      case LatencySpec::Kind::kFixed:
        return latency_.base;
      case LatencySpec::Kind::kUniformPerLink:
        return link_latency_[static_cast<std::size_t>(link)];
      case LatencySpec::Kind::kUniformPerSend:
        return latency_.base + latency_.jitter * rng->next_double();
    }
    LHG_CHECK(false, "Network: unknown latency kind {}",
              static_cast<int>(latency_.kind));
  }

  // Schedules one delivery copy (latency + optional reorder jitter).
  void schedule_copy(std::int32_t shard, const obs::SimObs* obs, double now,
                     core::Rng* rng, core::NodeId from, core::NodeId to,
                     std::int32_t link, std::int64_t message) {
    double delay = sample_latency(link, rng);
    if (chaos_.reorder > 0.0 && rng->next_bool(chaos_.reorder)) {
      delay += chaos_.reorder_jitter * rng->next_double();
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
    return partition_active_ &&
           partition_side_[static_cast<std::size_t>(u)] !=
               partition_side_[static_cast<std::size_t>(v)];
  }

  // --- Mutation epochs (overlap-safe timed windows) ---------------------
  // Every crash / link-failure / set_partition call advances an epoch;
  // a windowed end-event captures the epoch its own start produced and
  // fires only while it still matches, so a window whose state was
  // replaced mid-flight cannot clobber the replacement.  The per-node /
  // per-link vectors are lazily allocated: failure-free runs pay nothing.
  void bump_crash_epoch(core::NodeId node) {
    if (crash_epoch_.empty()) {
      crash_epoch_.assign(static_cast<std::size_t>(topology_->num_nodes()), 0);
    }
    ++crash_epoch_[static_cast<std::size_t>(node)];
  }
  std::uint64_t crash_epoch_of(core::NodeId node) const {
    return crash_epoch_.empty() ? 0
                                : crash_epoch_[static_cast<std::size_t>(node)];
  }
  void bump_link_epoch(std::int32_t link) {
    if (link_epoch_.empty()) {
      link_epoch_.assign(static_cast<std::size_t>(topology_->num_edges()), 0);
    }
    ++link_epoch_[static_cast<std::size_t>(link)];
  }
  std::uint64_t link_epoch_of(std::int32_t link) const {
    return link_epoch_.empty() ? 0
                               : link_epoch_[static_cast<std::size_t>(link)];
  }
  std::size_t new_window() {
    window_epoch_.push_back(0);
    return window_epoch_.size() - 1;
  }

  std::vector<std::uint8_t> crashed_;  // byte-wide: hot-path loads, no bit ops
  std::int32_t alive_count_ = 0;
  std::vector<std::uint8_t> link_failed_;     // per edge id
  std::vector<std::uint8_t> partition_side_;  // per node; empty until set
  bool partition_active_ = false;
  std::vector<std::uint64_t> crash_epoch_;   // per node; lazy
  std::vector<std::uint64_t> link_epoch_;    // per edge id; lazy
  std::uint64_t partition_epoch_ = 0;
  std::vector<std::uint64_t> window_epoch_;  // one slot per windowed call
};

/// The fault model on the single-queue Simulator: every timed mutation
/// is a callback event, and every channel draw comes from the one
/// generator passed in, in global execution order.
template <typename Topology>
class BasicNetwork final
    : public FaultModel<BasicNetwork<Topology>, Topology>,
      private Simulator::DeliverSink {
  using Base = FaultModel<BasicNetwork<Topology>, Topology>;
  friend Base;

 public:
  /// `topology` and `sim` must outlive the network.  `rng` is consumed
  /// for latency sampling and chaos draws (may be shared with the
  /// caller); with kUniformPerLink every link's latency is drawn here,
  /// in canonical edge order.
  BasicNetwork(const Topology& topology, Simulator& sim, LatencySpec latency,
               core::Rng& rng, const ChaosSpec& chaos = {})
      : Base(topology, latency, rng, chaos), sim_(&sim), rng_(&rng) {
    if (chaos.gilbert_elliott) {
      // Every link starts in the good state.
      link_bad_.assign(static_cast<std::size_t>(topology.num_edges()), 0);
    }
  }

  Simulator& simulator() { return *sim_; }

  /// Observability tap (may be null; default).  Mirrors NetworkStats
  /// into the metrics registry and emits send/drop/deliver/crash trace
  /// events; recording never draws from the Rng, so enabling it cannot
  /// change a run.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

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
  bool send_link(core::NodeId from, core::NodeId to, std::int32_t link,
                 std::int64_t message) {
    LHG_DCHECK(link == this->topology_->edge_index(from, to),
               "send_link: {} is not the edge id of ({}, {})", link, from, to);
    std::uint8_t* ge_bad =
        link_bad_.empty() ? nullptr : &link_bad_[static_cast<std::size_t>(link)];
    return this->transmit(/*shard=*/0, stats_, obs_, sim_->now(), rng_, ge_bad,
                          from, to, link, message);
  }

  /// Robustness counters (see NetworkStats).
  const NetworkStats& stats() const { return stats_; }

 private:
  // Typed-event entry point: delivery-instant checks, then the handler.
  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t message) override {
    if (this->admit_delivery(stats_, obs_, sim_->now(), from, to, link) &&
        on_receive_) {
      on_receive_(to, from, message);
    }
  }

  // --- FaultModel hooks --------------------------------------------------
  template <typename F>
  void schedule_mutation(double at, F&& fn) {
    sim_->schedule_at(at, std::forward<F>(fn));
  }
  void check_mutable(const char* /*what*/) const {}
  void trace_node(obs::TraceKind kind, core::NodeId node) const {
    if (obs_ != nullptr) obs_->event(sim_->now(), kind, node);
  }
  void schedule_delivery(std::int32_t /*shard*/, double time,
                         core::NodeId from, core::NodeId to,
                         std::int32_t link, std::int64_t message) {
    sim_->schedule_deliver_at(time, this, from, to, link, message);
  }

  Simulator* sim_;
  core::Rng* rng_;
  NetworkStats stats_;
  const obs::SimObs* obs_ = nullptr;
  ReceiveHandler on_receive_;
  std::vector<std::uint8_t> link_bad_;  // per edge id: GE channel state
};

/// The canonical materialized-overlay instantiation (the only one most
/// of the library uses); compiled once in network.cc.
using Network = BasicNetwork<core::Graph>;

extern template class FaultModel<Network, core::Graph>;
extern template class BasicNetwork<core::Graph>;

}  // namespace lhg::flooding
