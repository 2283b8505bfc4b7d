// Heartbeat failure detection over the overlay.
//
// Fault-tolerant flooding presumes someone notices failures; in
// practice that is a neighbor-to-neighbor heartbeat layer on the same
// overlay links.  Each node beats to its overlay neighbors every
// `interval`; a neighbor that stays silent for `timeout` is suspected.
// Because the LHG has degree ~k, the monitoring cost is O(k) messages
// per node per interval — another payoff of link minimality.
//
// HeartbeatDetector is the one detector in the library: run_heartbeat
// below drives it on plain Network sends, and run_repair (repair.h)
// drives it on ReliableLink RAW frames, acting on each suspicion
// through a hook.  run_heartbeat measures the two quantities failure
// detectors trade off (completeness vs accuracy): detection latency of
// real crashes, and false suspicions caused by message loss.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/network.h"
#include "obs/obs.h"

namespace lhg::flooding {

struct HeartbeatConfig {
  double interval = 1.0;  ///< heartbeat period
  double timeout = 3.5;   ///< silence before suspicion (> interval)
  double horizon = 60.0;  ///< simulated duration
  LatencySpec latency = LatencySpec::fixed(0.1);
  double loss_probability = 0.0;
  std::uint64_t seed = 1;
  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
};

struct CrashDetection {
  core::NodeId node = -1;
  double crash_time = 0.0;
  /// Time until the LAST alive neighbor suspected the crash; negative
  /// if some neighbor never noticed before the horizon.
  double detection_latency = -1.0;
};

struct HeartbeatResult {
  std::int64_t heartbeats_sent = 0;
  std::vector<CrashDetection> detections;  // one per crashed node
  /// Suspicions raised against nodes that were alive at the time.
  std::int64_t false_suspicions = 0;

  /// Network counters at the end of the run, and the beats still in
  /// flight there: the run stops at a deadline, so with latencies above
  /// `timeout + 1` some copies have not landed.  run_heartbeat checks
  /// `net.conserved(in_flight)`.
  NetworkStats net;
  std::int64_t in_flight = 0;

  /// Observability output (empty unless the config enables it).
  obs::Snapshot metrics;
  obs::TraceLog trace;

  bool all_crashes_detected() const {
    for (const auto& d : detections) {
      if (d.detection_latency < 0) return false;
    }
    return true;
  }
  double max_detection_latency() const {
    double worst = 0;
    for (const auto& d : detections) {
      worst = std::max(worst, d.detection_latency);
    }
    return worst;
  }
};

/// The heartbeat/suspicion loop over one overlay's directed arcs.
///
/// Each node re-arms its own next tick, so pending events stay O(n) for
/// any horizon; tick times accumulate as t + interval.  A crashed node
/// keeps ticking but skips its beat (no send, no draw), so a recovered
/// node resumes on its next tick.  A beat re-arms a check `timeout`
/// later at the receiver; only the newest check can fire, none fires
/// after the horizon (silence past it is the simulation ending), and a
/// beat rebuts a standing suspicion.
///
/// The caller supplies the transport: `send_beat(from, to, arc)` sends
/// one beat over CSR arc `arc` and returns whether the network accepted
/// it, and each received beat goes to `on_beat`.  The optional
/// `on_suspect(observer, target, false_alarm)` runs after a suspicion is
/// recorded.  Tick and check callbacks stay inside the Simulator's
/// inline callback slots.
class HeartbeatDetector {
 public:
  using SendBeat =
      std::function<bool(core::NodeId, core::NodeId, std::int32_t)>;
  using OnSuspect = std::function<void(core::NodeId, core::NodeId, bool)>;

  /// Monitors `net`'s overlay on its simulator; `net` must outlive the
  /// detector.  Throws unless 0 < interval < timeout and horizon > 0.
  HeartbeatDetector(Network& net, double interval, double timeout,
                    double horizon, SendBeat send_beat,
                    OnSuspect on_suspect = {});

  HeartbeatDetector(const HeartbeatDetector&) = delete;
  HeartbeatDetector& operator=(const HeartbeatDetector&) = delete;

  /// Observability tap (may be null): hb.beats per live tick,
  /// hb.suspicions / hb.false_suspicions and kSuspicion trace events.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

  /// Schedules, node by node, the first tick at `interval` and the
  /// initial checks on every out-arc (everyone starts "heard at 0").
  /// Call once, after the failure plan is applied: events at equal
  /// times run in insertion order.
  void start();

  /// `self` received a beat from its neighbor `from`.
  void on_beat(core::NodeId self, core::NodeId from);

  /// When the observer of arc `arc` last received a beat from its
  /// target; 0 before the first.
  double last_heard(std::int32_t arc) const {
    return last_heard_[static_cast<std::size_t>(arc)];
  }

  /// When the observer of arc `arc` began suspecting its target; -1
  /// while it does not.
  double suspected_since(std::int32_t arc) const {
    return suspected_since_[static_cast<std::size_t>(arc)];
  }

  /// Beats the network accepted.
  std::int64_t beats_sent() const { return beats_sent_; }
  /// Suspicions raised against nodes that were alive at the time.
  std::int64_t false_suspicions() const { return false_suspicions_; }

 private:
  void tick(core::NodeId u, double t);
  void arm_check(core::NodeId observer, core::NodeId target, std::int32_t arc,
                 double armed_at);

  const core::Graph* g_;
  Simulator* sim_;
  const Network* net_;
  double interval_;
  double timeout_;
  double horizon_;
  SendBeat send_beat_;
  OnSuspect on_suspect_;
  const obs::SimObs* obs_ = nullptr;
  // Per directed arc (Graph::arc_index ids): observer -> target.
  std::vector<double> last_heard_;
  std::vector<double> suspected_since_;
  std::int64_t beats_sent_ = 0;
  std::int64_t false_suspicions_ = 0;
};

/// Simulates the heartbeat layer until the horizon.  Crashes in
/// `failures` take their configured times (time 0 crashes are never
/// "detected" — there is nothing to detect them against — so give
/// crashes positive times).  Throws on bad config.
HeartbeatResult run_heartbeat(const core::Graph& topology,
                              const HeartbeatConfig& cfg,
                              const FailurePlan& failures = {});

}  // namespace lhg::flooding
