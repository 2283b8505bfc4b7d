// Self-healing overlay: crash detection, view-change dissemination, and
// rewiring back to a k-connected LHG.
//
// The paper's guarantee — flooding survives any f <= k-1 crashes — is a
// one-shot property: after the f-th crash the residual graph may be
// exactly (k-f)-connected, and the *next* crash can split it.  A
// deployment therefore repairs: survivors detect dead neighbors, agree
// on the new membership, and rewire toward the LHG for the surviving
// population, restoring the full fault margin.  This module simulates
// that pipeline end to end on one event engine and instruments it:
//
//   1. Detection — the HeartbeatDetector of heartbeat.h, with every
//      beat a RAW frame on a ReliableLink: a neighbor silent for
//      `heartbeat_timeout` is suspected.  A suspicion is not yet an
//      obituary.  The observer w first confirms it with indirect probes
//      (SWIM, Das, Gupta & Motivala, DSN 2002): it sends PROBE over the
//      underlay to the subject x's other overlay neighbors, and each
//      one that received a beat from x after the round began answers
//      VOUCH.  While w still hears nothing from x, it re-probes every
//      round (2 underlay latencies plus a heartbeat interval) until the
//      horizon; the first round that brings no vouch confirms the
//      crash.  This is complete: the live neighbor that received x's
//      last-ever beat suspects x only after every beat of x has landed,
//      so nobody can vouch for it.  Lost PROBEs or VOUCHes can only
//      cause an unneeded obituary, which is rebutted below, never hide
//      a crash.
//   2. Dissemination — a confirmed suspicion floods a view-change
//      obituary over the surviving overlay on the reliable layer
//      (ACK/retransmit with backoff), so single drops cannot silence
//      the membership update.  Recovered nodes announce themselves the
//      same way and are brought up to date by a neighbor state
//      transfer.  Each node's view is a sparse list with one (subject,
//      epoch, down) entry per subject it heard a rumor about, so the
//      repair state is O(n + rumors), never n x n.
//   3. Rewiring — once a survivor's disseminated view covers the
//      adversary's permanent crashes, it rewires toward the
//      identity-stable incremental target: the in-service overlay is
//      seeded into a membership::IncrementalOverlay (member ids ==
//      original node ids) and the permanent crashes batch-leave, so
//      survivors keep every edge the canonical plan delta preserves
//      and only the O(k·log n) delta edges need establishing — not the
//      Θ(n) relabeled diff of a fresh lhg::build.  For every target
//      edge a survivor must initiate (lower id) that the surviving
//      overlay lacks, it runs a REQ/ACK handshake over the *underlay*
//      (point-to-point, assumed routable, configurable latency and
//      loss) with exponential-backoff retries.  Handshakes persist
//      through a peer's down window, which is how recovered nodes are
//      re-adopted.
//
// False suspicions are mostly vouched away: message loss silences one
// link, not all of a live node's links, so some other neighbor still
// hears the subject and no obituary floods.  The rest rebut themselves:
// every view-change rumor carries the subject's *epoch*, and a live
// node that hears its own obituary floods an aliveness assertion under
// a strictly larger epoch (the same announcement a recovered node
// makes), which clears the false obituary from every view — stale down
// rumors lose to the newer epoch instead of resurrecting it.  The
// result counts the vouched suspicions, the rebuttals and any
// obituaries of final members still standing at quiescence
// (`lingering_false_obituaries`, 0 in healthy runs).
//
// Modeling simplifications, stated honestly: the repair target is the
// overlay for the *final* membership (nodes alive once the failure
// plan is exhausted), and survivors act when their view has converged
// to it — a real deployment would re-run the rewiring on every view
// change; the converged round is the one instrumented here.
//
// The result reports detection / reconnect times, message costs split
// by phase, and the verifier's judgment of the healed survivor graph's
// k-connectivity.  Everything runs on the typed-event Simulator and a
// caller-seeded Rng: deterministic per seed, TrialRunner-safe.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/network.h"
#include "flooding/reliable_link.h"
#include "lhg/lhg.h"

namespace lhg::flooding {

struct RepairConfig {
  /// Retry schedule for view-change dissemination on the overlay.
  /// Persists through down windows so flapped links don't eat updates.
  static constexpr BackoffPolicy kViewBackoff{3.0, 2.0, 24.0, 6, true};
  /// Underlay model for confirmation probes and rewiring handshakes:
  /// any two survivors can exchange PROBE/VOUCH and REQ/ACK
  /// point-to-point at this latency (and at `underlay_loss`).
  static constexpr double kUnderlayLatency = 2.0;
  /// Retry schedule for REQ/ACK handshakes (per needed edge).
  static constexpr BackoffPolicy kHandshakeBackoff{4.0, 2.0, 32.0, 8, true};

  /// Target connectivity: the healed overlay aims at the k-connected
  /// LHG over the survivors.
  std::int32_t k = 3;
  Constraint constraint = Constraint::kKTree;

  double heartbeat_interval = 1.0;
  double heartbeat_timeout = 3.5;  ///< silence before suspicion (> interval)
  double horizon = 60.0;           ///< heartbeats stop here (hard stop)

  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;
  /// Overlay channel conditions (loss/burst/duplication/reorder).
  ChaosSpec chaos{};

  /// Loss probability of each underlay PROBE/VOUCH/REQ/ACK transmission.
  double underlay_loss = 0.0;

  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
};

struct RepairResult {
  /// Every needed target edge was established (trivially true when the
  /// surviving overlay already contains the target).
  bool repaired = false;
  /// Verifier check: the healed survivor graph is k-vertex-connected.
  bool k_connected = false;

  /// Max over permanently crashed nodes of the time the first
  /// confirmed obituary of the node (sent while it was down) flooded;
  /// -1 if some crash was never detected, 0 when nothing crashed.
  double detection_time = 0.0;
  /// Max handshake-completion time over needed edges; -1 if some edge
  /// was never established, 0 when none were needed.
  double reconnect_time = 0.0;

  std::int32_t survivors = 0;     ///< |final membership|
  std::int32_t edges_needed = 0;  ///< target edges the overlay lacked
  std::int32_t edges_reused = 0;  ///< target edges already present
  std::int32_t edges_established = 0;

  std::int64_t heartbeats_sent = 0;
  /// Reliable-layer view-change traffic: DATA + retransmissions + ACKs.
  std::int64_t view_change_messages = 0;
  /// Underlay REQ + ACK transmissions (including retries).
  std::int64_t handshake_messages = 0;
  std::int64_t false_suspicions = 0;
  /// Suspicions that a neighbor of the subject vouched for: a VOUCH
  /// (a beat heard after the probe round began) reached the observer.
  std::int64_t suspicions_vouched = 0;
  /// Underlay PROBE + VOUCH transmissions (including re-probes).
  std::int64_t confirm_messages = 0;
  /// Live nodes that heard their own obituary and flooded an epoch'd
  /// aliveness assertion to refute it (counted per rebuttal flood).
  std::int64_t self_rebuttals = 0;
  /// (observer, subject) pairs, both in the final membership, where the
  /// observer's view still marks the subject down at quiescence.  A
  /// false obituary that was never rebutted; 0 in healthy runs.
  std::int64_t lingering_false_obituaries = 0;
  /// |added| + |removed| of the incremental membership delta that
  /// produced the rewiring target — the O(k·log n) work the final view
  /// implies.  -1 when the in-service overlay's size is not
  /// LHG-realizable and the dense rebuild target was used instead.
  std::int64_t target_churn = 0;
  /// View-change frames abandoned by the reliable layer's sliding send
  /// window (see ReliableLink::window_overflows); 0 in healthy runs.
  std::int64_t window_overflows = 0;
  NetworkStats net{};  ///< overlay network counters (beats + view changes)

  /// Observability output (empty unless the config enables it).
  obs::Snapshot metrics;
  obs::TraceLog trace;

  /// The healed overlay on dense survivor ids: surviving original
  /// edges (permanently failed links excluded) plus established ones.
  core::Graph healed;
  /// Dense survivor id -> original node id, ascending.
  std::vector<core::NodeId> survivor_ids;
};

/// Simulates detection, dissemination and rewiring of `topology` (the
/// overlay in service) under `plan`, to quiescence.  Throws
/// std::invalid_argument on bad config or when the final membership is
/// not realizable under (k, constraint).
RepairResult run_repair(const core::Graph& topology, const RepairConfig& cfg,
                        const FailurePlan& plan);

}  // namespace lhg::flooding
