// Exact vertex and edge connectivity: Nagamochi–Ibaraki sparse
// certificates feeding Even's ordered fan tests and capped
// augmenting-path max-flow (Menger's theorem).
//
// The LHG definition is stated in terms of κ(G) (node connectivity, P1)
// and λ(G) (link connectivity, P2).  Both are computed exactly, in two
// stages (DESIGN.md §15):
//
//  1. *Sparsify.*  Every query is capped — explicitly by the caller's
//     `upper_limit`/`limit`, implicitly by δ(G) (for globals) or by
//     min(deg(s), deg(t)) (for pairs), since no connectivity can exceed
//     those.  A Nagamochi–Ibaraki certificate at that cap
//     (core/certificate.h) preserves every answer that can still matter
//     while shrinking m edges to ≤ cap·n.
//  2. *Flow.*  On the certificate:
//     λ(s,t) is a unit-capacity max-flow where every undirected edge
//     becomes two opposing arcs of capacity 1; κ(s,t) splits every
//     vertex v into v_in → v_out with an arc of capacity 1 (Even's
//     construction).  Flows run on the reusable augmenting-path solver
//     (core/maxflow.h) with the cap as the flow limit, so a yes/no
//     question costs at most cap+1 searches, O(cap · certificate-size).
//
// Global values: S. Even's ordered tests ("An algorithm for
// determining whether the connectivity of a graph is at least k", SIAM
// J. Comput. 4(3), 1975) on the certificate, under a fixed
// seeded-random vertex order v_1 … v_n, one local search per vertex in
// parallel through `core::parallel`:
//  - κ(G) ≥ c: the c(c−1)/2 pairs among v_1 … v_c are probed, then
//    every later v_j runs one c-fan search (core/maxflow.h FanSearch)
//    into {v_1 … v_{j−1}};
//  - λ(G) ≥ c: every v_j with j ≥ 2 runs one search for c edge-disjoint
//    paths (core/maxflow.h EdgeFanSearch) into {v_1 … v_{j−1}}.
// `vertex_connectivity` and `edge_connectivity` test c = min(δ, cap),
// then c−1, … and return the first that passes.  The answer is a bool
// per c, so results are bit-identical at every LHG_THREADS.
// `minimum_vertex_cut` keeps the Esfahanian–Hakimi pair loop — a
// minimum-degree v against its non-neighbours, then pairs of v's
// neighbours — because its witness is the sink side of the pair it
// finds.
//
// All global routines accept an `upper_limit` so that yes/no questions
// ("is κ ≥ k?") stop each flow as soon as k augmenting paths exist —
// and, equally important, certify at k instead of δ.  Callers that know
// k (the verifier and repair pipelines always do) must pass it; debug
// builds nudge with an LHG_DCHECK when a large graph is queried
// uncapped.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/graph.h"
#include "core/maxflow.h"

namespace lhg::core {

/// Reusable s-t connectivity prober over one fixed graph (typically a
/// certificate): the κ and λ flow networks are built lazily on first
/// use and then answer any number of capped queries with zero heap
/// allocation, sharing one scratch.  Not thread-safe — parallel callers
/// keep one prober per lane (core/parallel.h lane contract).
class ConnectivityProber {
 public:
  /// Probes run against `g`, which must outlive the prober.
  explicit ConnectivityProber(const Graph& g);

  /// min(κ(s,t), limit): internally-vertex-disjoint s-t paths, counting
  /// a direct {s,t} edge as one path.  Requires s != t.
  std::int32_t vertex_probe(NodeId s, NodeId t, std::int32_t limit);

  /// min(λ(s,t), limit): edge-disjoint s-t paths.  Requires s != t.
  std::int32_t edge_probe(NodeId s, NodeId t, std::int32_t limit);

 private:
  const Graph* g_;
  std::optional<FlowNetwork> vertex_net_;  // Even's split network
  std::optional<FlowNetwork> edge_net_;    // two opposing unit arcs/edge
  MaxflowScratch scratch_;
};

/// Number of edge-disjoint s-t paths (= min s-t edge cut), capped at
/// `limit`.  Requires s != t.  One-shot wrapper: sparsifies at
/// min(limit, deg(s), deg(t)) and runs one capped flow.
std::int32_t local_edge_connectivity(const Graph& g, NodeId s, NodeId t,
                                     std::int32_t limit = INT32_MAX);

/// Number of internally-vertex-disjoint s-t paths (counting a direct
/// {s,t} edge as one path), capped at `limit`.  Requires s != t.
std::int32_t local_vertex_connectivity(const Graph& g, NodeId s, NodeId t,
                                       std::int32_t limit = INT32_MAX);

/// Global edge connectivity λ(G), capped at `upper_limit`.
/// λ of a disconnected graph is 0; λ of a single node is defined here as
/// n-1 = 0; throws on the empty graph.
std::int32_t edge_connectivity(const Graph& g,
                               std::int32_t upper_limit = INT32_MAX);

/// Global vertex connectivity κ(G), capped at `upper_limit`.
/// κ(K_n) = n-1; κ of a disconnected graph is 0; throws on the empty
/// graph.
std::int32_t vertex_connectivity(const Graph& g,
                                 std::int32_t upper_limit = INT32_MAX);

/// True iff κ(G) >= k (P1).  k <= 0 is trivially true.
bool is_k_vertex_connected(const Graph& g, std::int32_t k);

/// Extracts `count` pairwise internally-vertex-disjoint s-t paths (each
/// a node sequence s ... t).  Returns std::nullopt if fewer than `count`
/// disjoint paths exist.  The returned paths are simple and share no
/// internal vertex; a direct edge {s,t} may appear as the 2-node path.
std::optional<std::vector<std::vector<NodeId>>> vertex_disjoint_paths(
    const Graph& g, NodeId s, NodeId t, std::int32_t count);

/// A minimum vertex cut separating some pair of non-adjacent vertices
/// (witness for κ(G) when G is not complete).  Returns std::nullopt for
/// complete graphs (no vertex cut exists).
std::optional<std::vector<NodeId>> minimum_vertex_cut(const Graph& g);

namespace detail {

/// Even's ordered test of κ(g) >= k on `g` as given (no certificate),
/// under the vertex order `order` (a permutation of g's nodes).  The
/// verdict does not depend on the order; `is_k_vertex_connected` and
/// `vertex_connectivity` pass a fixed seeded-random one.  Exposed so
/// tests can pin an order.  Requires k >= 1.
bool is_k_vertex_connected_in_order(const Graph& g, std::int32_t k,
                                    std::span<const NodeId> order);

/// The λ twin: Even's ordered test of λ(g) >= k on `g` as given, under
/// `order`.  Requires k >= 1.
bool is_k_edge_connected_in_order(const Graph& g, std::int32_t k,
                                  std::span<const NodeId> order);

}  // namespace detail

}  // namespace lhg::core
