// Reliable broadcast over lossy links: flooding plus per-link
// ACK/retransmit (the ReliableLink layer).
//
// Plain flooding assumes reliable channels; on lossy links a dropped
// copy can silence a whole subtree.  This protocol keeps flooding's
// structure but rides every link-hop on ReliableLink: DATA is ACKed,
// unACKed copies are retransmitted on a fixed or exponential backoff
// schedule until retries run out, and duplicate DATA is re-ACKed but
// not re-forwarded.
//
// With i.i.d. loss probability p and fixed-interval retries, a link-hop
// fails only if all 1+max_retries transmissions drop (p^(r+1)); the E13
// bench measures delivery and the message overhead this costs versus
// plain flooding.  The `chaos` field exposes the full adversarial
// channel (bursty loss, duplication, reordering) to the E20 sweeps.

#pragma once

#include <cstdint>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/protocols.h"
#include "flooding/reliable_link.h"

namespace lhg::flooding {

struct ReliableBroadcastConfig {
  core::NodeId source = 0;
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;

  /// Channel conditions: i.i.d. or bursty loss, duplication, reordering.
  ChaosSpec chaos{};
  /// Per-copy retry schedule (ReliableLink validates it); the default is
  /// a fixed 3.0 interval with 5 retransmissions.
  BackoffPolicy backoff = BackoffPolicy::fixed(3.0, 5);

  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
};

struct ReliableBroadcastResult : DisseminationResult {
  std::int64_t retransmissions = 0;
  std::int64_t acks_sent = 0;
  std::int64_t duplicates_suppressed = 0;
  /// Frames abandoned by the sender's sliding window (an arc had 1024
  /// unACKed seqs in flight); see ReliableLink::window_overflows.
  std::int64_t window_overflows = 0;
};

/// Runs the protocol to completion (all timers drained) and reports
/// delivery and cost.  Throws std::invalid_argument on bad config.
ReliableBroadcastResult reliable_broadcast(const core::Graph& topology,
                                           const ReliableBroadcastConfig& cfg,
                                           const FailurePlan& failures = {});

}  // namespace lhg::flooding
