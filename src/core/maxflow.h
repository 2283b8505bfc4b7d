// Unit-capacity maximum flow from one vertex to a vertex SET over the
// graph's own CSR — the one flow kernel behind core/connectivity.h,
// where vertex and edge connectivity reduce to unit max-flow (Menger).
//
// `FanSearch` counts S. Even's fans (internally vertex-disjoint paths)
// and `EdgeFanSearch` edge-disjoint paths.  Every connectivity query is
// capped at a small `limit` or bounded by a vertex degree, so it needs
// only a handful of augmenting paths, each one BFS over the residual
// moves read off the CSR and a per-vertex (or per-arc) flow array.  A
// search stops at the first set vertex it reaches, so a query costs
// only what it explores: the per-vertex step of the κ ≥ k and λ ≥ k
// tests costs a few hops, and an s–t probe is a fan from s into t's
// neighbourhood (core/connectivity.cc).  Flow is undone from a list of
// what the previous query touched, so no query sweeps all n vertices,
// and after construction nothing allocates on the query path (the
// no-alloc discipline of DESIGN.md §9, §15).
//
// `FanSearch` keeps its last flow until the next query, and two
// read-outs decompose it: the fan's paths (`vertex_disjoint_paths`) and
// the vertices of the sink-closest minimum vertex cut
// (`minimum_vertex_cut`'s witness).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.h"

namespace lhg::core {

/// Fans in one fixed graph (S. Even, SIAM J. Comput. 4(3), 1975): a
/// fan from `source` to a set S ∌ source is a family of paths that
/// share only `source` and end at distinct vertices of S.  Its largest
/// size is a max-flow in Even's vertex-split network — v_in → v_out of
/// capacity 1 per vertex, u_out → v_in and v_out → u_in per edge, and
/// v_out → T for every v in S — and that is what `fan` computes, one
/// unit BFS augmentation at a time.
///
/// The split network is never built: with unit capacities a flow
/// state is one "feeding arc" per vertex (the graph arc carrying flow
/// into v_in, or none), so every residual move is read off the graph's
/// CSR and that one array.  An in-node has exactly one residual move —
/// on to v_out if v is unused, else back along its feeding arc — and an
/// out-node is entered from exactly one in-node, so the search runs over
/// out-nodes only, with one visit stamp per vertex.  It stops at the
/// first out-node of a vertex in S (a vertex ending a path in S is
/// never reachable again), and the next query undoes the flow from a
/// list of the vertices it touched, so no query sweeps all n vertices.
///
/// Holds O(n) scratch and reads `g`, which must outlive it.  Not
/// thread-safe: parallel callers keep one per lane.
class FanSearch {
 public:
  explicit FanSearch(const Graph& g);

  /// min(limit, the largest fan from `source` to S = {v : rank[v] <
  /// bound}).  `rank` has one entry per vertex and rank[source] >=
  /// bound.  A direct edge to a vertex of S is a path of the fan.  Each
  /// call starts from zero flow and leaves its flow for the read-outs
  /// below, which read `rank`: it must stay unchanged until then.
  std::int32_t fan(NodeId source, std::int32_t limit,
                   std::span<const std::int32_t> rank, std::int32_t bound);

  /// The last fan's paths, each from `source` to its vertex of S, in
  /// the order they were found.
  std::vector<std::vector<NodeId>> paths() const;

  /// After a fan that is maximum (it stopped below its limit, or its
  /// limit is the largest fan's size): the vertices, ascending, whose
  /// split arc crosses the sink-closest minimum cut of the split network
  /// in which edge arcs and the arcs into T cannot be cut.  The sink
  /// side — every node that still reaches T in the residual network —
  /// is the same for every maximum flow, so the cut depends only on the
  /// graph, `source` and S.
  std::vector<NodeId> vertex_cut() const;

 private:
  bool augment(NodeId source, std::span<const std::int32_t> rank,
               std::int32_t bound);
  void set_feed(NodeId v, std::int32_t arc);
  NodeId tail(std::int32_t arc) const;

  const Graph* g_;
  NodeId source_ = -1;                // the last fan's query
  std::span<const std::int32_t> rank_;
  std::int32_t bound_ = 0;
  std::vector<NodeId> ends_;          // the last fan's paths' vertices in S
  std::vector<std::int32_t> feed_;    // per vertex: arc feeding v_in, or -1
  std::vector<NodeId> touched_;       // vertices whose feed_ was set
  std::vector<std::uint32_t> mark_;   // per vertex: stamp of out-node visit
  std::vector<std::int32_t> via_;     // per vertex: how the search entered v_in
  std::vector<NodeId> pred_;          // per vertex: in-node before v_out
  std::vector<NodeId> queue_;         // out-nodes, BFS order
  std::uint32_t stamp_ = 0;
};

/// The edge-disjoint twin of `FanSearch`: the most edge-disjoint paths
/// from `source` to a set S ∌ source, a unit max-flow in the graph with
/// every edge as two opposing unit arcs and every vertex of S fed into
/// one sink.  A flow state is one byte per CSR arc; a push along an arc
/// whose twin carries a unit cancels that unit instead.  Each BFS stops
/// at the first vertex of S it reaches (its arc to the sink never
/// saturates, so S vertices may end any number of paths), and the flow
/// is undone from a list of the arcs it set, so no query sweeps all n
/// vertices or m edges.
///
/// Holds O(n + m) scratch and reads `g`, which must outlive it.  Not
/// thread-safe: parallel callers keep one per lane.
class EdgeFanSearch {
 public:
  explicit EdgeFanSearch(const Graph& g);

  /// min(limit, the most edge-disjoint paths from `source` to S = {v :
  /// rank[v] < bound}).  `rank` has one entry per vertex and
  /// rank[source] >= bound.  Each call starts from zero flow.
  std::int32_t fan(NodeId source, std::int32_t limit,
                   std::span<const std::int32_t> rank, std::int32_t bound);

 private:
  bool augment(NodeId source, std::span<const std::int32_t> rank,
               std::int32_t bound);

  const Graph* g_;
  std::vector<std::uint8_t> flow_;    // per arc: carries a unit
  std::vector<std::int32_t> touched_; // arcs whose flow_ was set
  std::vector<std::uint32_t> mark_;   // per vertex: stamp of BFS visit
  std::vector<std::int32_t> parent_;  // per vertex: arc the BFS entered by
  std::vector<NodeId> queue_;         // BFS order
  std::uint32_t stamp_ = 0;
};

}  // namespace lhg::core
