// First-principles verification of the LHG definition.
//
// `verify` takes ANY graph and a target k and checks, from scratch (no
// knowledge of how the graph was built):
//
//   P1  k-node connectivity   — exact κ(G) via Menger/max-flow
//   P2  k-link connectivity   — exact λ(G) via max-flow
//   P3  link minimality       — for each (or each sampled) edge e,
//                               κ(G−e) < κ(G) or λ(G−e) < λ(G); an
//                               edge with an endpoint of degree λ(G)
//                               passes by degree alone
//   P4  logarithmic diameter  — exact diameter, reported together with
//                               the log₂(n) ratio; judged against a
//                               caller-supplied constant
//   P5  k-regularity          — degree spread (informational: an LHG
//                               need not be regular)
//
// This is the module benchmarks and tests use as the ground truth, so it
// deliberately shares no code with the constructions it validates.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/graph.h"
#include "core/rng.h"

namespace lhg {

struct VerifyOptions {
  /// Check P3 on every edge (exact) or on at most this many uniformly
  /// sampled edges (0 = all edges).  Minimality costs one local κ and
  /// one local λ flow per edge whose endpoints both have degree above
  /// λ(G), so large graphs with many such edges want sampling.
  std::int64_t minimality_sample = 0;

  /// P4 passes iff diameter <= log_diameter_constant · log2(n) + 2.
  /// The +2 absorbs tiny-n noise (log2 of the minimum graph is ~2.5).
  double log_diameter_constant = 4.0;

  /// Seed for edge sampling.
  std::uint64_t seed = 0x5eedULL;
};

struct VerificationReport {
  std::int32_t k = 0;
  core::NodeId n = 0;
  std::int64_t edges = 0;

  std::int32_t node_connectivity = 0;  // κ(G)
  std::int32_t edge_connectivity = 0;  // λ(G)
  bool p1_node_connected = false;      // κ >= k
  bool p2_link_connected = false;      // λ >= k

  std::int64_t minimality_checked_edges = 0;
  std::int64_t minimality_violations = 0;
  bool p3_link_minimal = false;
  /// First edge whose removal does NOT reduce connectivity, if any.
  std::optional<core::Edge> p3_witness;

  std::int32_t diameter = 0;
  double log2_n = 0.0;
  bool p4_log_diameter = false;

  std::int32_t min_degree = 0;
  std::int32_t max_degree = 0;
  bool k_regular = false;  // P5 (informational)

  /// P1..P4 all hold.
  bool is_lhg() const {
    return p1_node_connected && p2_link_connected && p3_link_minimal &&
           p4_log_diameter;
  }
};

/// Verifies the LHG properties of `g` against fault-tolerance target `k`.
/// Throws std::invalid_argument for k < 1 or an empty graph.
VerificationReport verify(const core::Graph& g, std::int32_t k,
                          const VerifyOptions& options = {});

/// Multi-line human-readable rendering of a report.
std::string to_string(const VerificationReport& report);

}  // namespace lhg
