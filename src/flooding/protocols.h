// Dissemination protocols: deterministic flooding (the paper's subject)
// and the two baselines it is judged against — push gossip and
// spanning-tree multicast.
//
// All three report the same DisseminationResult so the E4–E6 benches can
// tabulate them side by side: who got the message, when, and how many
// point-to-point messages it cost.

#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/rng.h"
#include "flooding/failure.h"
#include "flooding/network.h"
#include "obs/obs.h"

namespace lhg::flooding {

struct DisseminationResult {
  /// Virtual delivery time per node; negative = never delivered.
  std::vector<double> delivery_time;
  /// Hop distance of the delivery path per node; -1 = never delivered.
  std::vector<std::int32_t> delivery_hops;

  std::int64_t messages_sent = 0;
  /// Simulator events executed (0 for round-based protocols that never
  /// touch the event engine); the benches' throughput denominator.
  std::int64_t events_processed = 0;
  /// Network robustness counters (all-zero for round-based protocols
  /// that never touch a Network).
  NetworkStats net{};
  std::int32_t alive_nodes = 0;      // nodes never crashed during the run
  std::int32_t delivered_alive = 0;  // alive nodes that got the message

  /// Completion time: max delivery time over delivered alive nodes.
  double completion_time = 0.0;
  /// Max delivery hop count over delivered alive nodes.
  std::int32_t completion_hops = 0;

  /// Observability output, populated only when the config's ObsConfig
  /// enables it (empty otherwise; round-based protocols that never
  /// touch the event engine always leave it empty).  Simulation results
  /// are bit-identical with or without it.
  obs::Snapshot metrics;
  obs::TraceLog trace;

  /// Reliability: every alive node was delivered.
  bool all_alive_delivered() const { return delivered_alive == alive_nodes; }
  double delivery_ratio() const {
    return alive_nodes == 0
               ? 1.0
               : static_cast<double>(delivered_alive) / alive_nodes;
  }
};

struct FloodConfig {
  core::NodeId source = 0;
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;  // drives latency jitter and chaos draws
  /// Adversarial channel conditions (loss, duplication, reordering).
  ChaosSpec chaos{};
  /// Metrics / trace recording (off by default: zero overhead).
  obs::ObsConfig obs{};
  /// > 1 runs the flood on the sharded engine (shard_sim.h): the node
  /// set splits into `shards` time queues driven by core::parallel
  /// lanes, bit-identical at any shard/thread count.  Chaos-free runs
  /// with kFixed/kUniformPerLink latency are additionally bit-equal to
  /// the single-queue engine; chaotic runs draw from per-arc streams
  /// instead of one shared generator (DESIGN.md §17).  Clamped to n.
  std::int32_t shards = 1;
};

/// Deterministic flooding: the source sends to all overlay neighbors;
/// every node forwards the first copy it receives to all neighbors
/// except the one it came from.  Exactly the protocol whose worst-case
/// latency is the graph diameter and whose message count is 2m − deg(s)
/// − (n − 1) + n − 1 … ≈ 2m (each link crossed at most twice).
DisseminationResult flood(const core::Graph& topology, const FloodConfig& cfg,
                          const FailurePlan& failures = {});

enum class GossipMode {
  kPush,      ///< infected nodes push to fanout random peers per round
  kPushPull,  ///< additionally, susceptible nodes pull from fanout peers
};

struct GossipConfig {
  core::NodeId source = 0;
  std::int32_t fanout = 3;      // peers contacted per round per node
  std::int32_t max_rounds = 0;  // 0 = ceil(log2 n) + c rounds (classic)
  std::int32_t extra_rounds = 4;
  GossipMode mode = GossipMode::kPush;
  std::uint64_t seed = 1;
};

/// Round-synchronous gossip over *uniform random peers* (full
/// membership view, as in probabilistic broadcast systems).  Crashed
/// nodes neither relay nor count as delivered.  Delivery time of a node
/// is the round it first heard the rumor.  In push-pull mode a
/// successful pull costs two messages (request + response); a miss
/// costs one.
DisseminationResult gossip(core::NodeId num_nodes, const GossipConfig& cfg,
                           const FailurePlan& failures = {});

struct ProbabilisticFloodConfig {
  core::NodeId source = 0;
  /// Probability with which a relaying node forwards to each neighbor
  /// (the source always sends to all of its neighbors).
  double forward_probability = 0.7;
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;
  obs::ObsConfig obs{};
};

/// Probabilistic ("gossip-style") flooding over the overlay: every
/// non-source node forwards its first copy to each remaining neighbor
/// independently with probability p.  The classic message/reliability
/// knob between spanning trees (p → 0) and deterministic flooding
/// (p = 1); exhibits the usual phase transition in p (experiment E15).
DisseminationResult probabilistic_flood(const core::Graph& topology,
                                        const ProbabilisticFloodConfig& cfg,
                                        const FailurePlan& failures = {});

struct TreeConfig {
  core::NodeId source = 0;
  LatencySpec latency = LatencySpec::fixed(1.0);
  std::uint64_t seed = 1;
  obs::ObsConfig obs{};
};

/// Multicast over a BFS spanning tree of `topology` rooted at the
/// source: each node forwards to its tree children only.  Minimum
/// message count (n−1), zero redundancy — and zero fault tolerance: the
/// subtree under any crashed node is lost.
DisseminationResult spanning_tree_multicast(const core::Graph& topology,
                                            const TreeConfig& cfg,
                                            const FailurePlan& failures = {});

}  // namespace lhg::flooding
