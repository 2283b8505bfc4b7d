// Sustained broadcast sessions: many concurrent floods over one overlay.
//
// A single flood measures one message's latency; a deployment floods
// continuously from many sources.  `BroadcastSession` multiplexes any
// number of broadcasts over one Network with per-message duplicate
// suppression, so experiments can measure aggregate throughput, per-
// message completion under interleaving, and the (absent) interference
// between concurrent floods — deterministic flooding has no contention
// beyond link counters, which E14 demonstrates.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "flooding/failure.h"
#include "flooding/network.h"

namespace lhg::flooding {

struct BroadcastSpec {
  core::NodeId source = 0;
  double start_time = 0.0;
};

struct SessionConfig {
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;
};

struct MessageOutcome {
  core::NodeId source = 0;
  double start_time = 0.0;
  std::int32_t delivered_alive = 0;
  double completion_time = 0.0;  // absolute virtual time of last delivery
  bool complete = false;         // all alive nodes reached
};

struct SessionResult {
  std::vector<MessageOutcome> messages;
  std::int64_t total_messages_sent = 0;
  std::int32_t alive_nodes = 0;
  double makespan = 0.0;  // completion time of the last-finishing flood

  /// Fraction of broadcasts that reached every live node.
  double complete_fraction() const {
    if (messages.empty()) return 1.0;
    std::int64_t complete = 0;
    for (const auto& m : messages) complete += m.complete ? 1 : 0;
    return static_cast<double>(complete) / static_cast<double>(messages.size());
  }
};

/// Runs every broadcast in `specs` over one simulated network,
/// interleaved in virtual time.  Each broadcast floods independently
/// (per-message dedup); failures apply to the whole session.
SessionResult run_broadcast_session(const core::Graph& topology,
                                    const std::vector<BroadcastSpec>& specs,
                                    const SessionConfig& cfg = {},
                                    const FailurePlan& failures = {});

}  // namespace lhg::flooding
