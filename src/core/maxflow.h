// Capped augmenting-path maximum flow on integer-capacity directed
// networks — the engine behind core/connectivity.h, where vertex and
// edge connectivity reduce to unit-capacity max-flow (Menger).
//
// Every connectivity query is capped at a small `limit` or bounded by
// a vertex degree, so it needs only a handful of augmenting paths.
// Each augmentation is one bidirectional BFS over residual arcs: a
// forward tree from the source and a backward tree from the sink grow
// one whole level at a time, always the smaller frontier first; the
// first residual arc that joins them closes a path, whose bottleneck is
// pushed.  A query ends when the flow reaches `limit` or a search
// exhausts, which proves the flow maximum.  Bidirectional, because the
// same search run one-sided from the source measured 1.4–1.8x slower
// than the push-relabel engine this replaced on certificate probes,
// where this one is 3–7x faster (DESIGN.md §15 lists the variants).
//
// Verification asks one network thousands of s-t questions, so the arc
// structure is built once (`add_arc`, then a CSR `finalize` on the first
// query) and each query starts from zero flow by undoing only the arcs
// the previous query used.  Search state lives in flat arrays
// (`MaxflowScratch`) with stamped visit marks, so no query sweeps all n
// nodes or m arcs, and after the first query nothing allocates (the
// no-alloc discipline of DESIGN.md §9, §15).  The result of every query
// is a valid flow, read by `flow_on` and `min_cut_source_side`.
//
// `FanSearch` and `EdgeFanSearch` are the local counterparts: a
// unit-capacity flow from one vertex to a vertex SET over the graph's
// own CSR, whose searches stop at the first set vertex they reach, so a
// query costs only what it explores (S. Even's fans, the per-vertex
// step of the κ ≥ k and λ ≥ k tests in core/connectivity.cc).

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/graph.h"

namespace lhg::core {

/// Flat per-search state for `FlowNetwork::max_flow`, preallocated once
/// and reused across queries (and across networks: the arrays size
/// themselves to the largest network seen).  Keeping it external lets
/// the κ and λ networks of one `ConnectivityProber` share a single
/// scratch; every `FlowNetwork` also owns a private one for the
/// scratch-less overload.
struct MaxflowScratch {
  std::vector<std::uint32_t> mark;    // per node: search stamp + side
  std::vector<std::int32_t> parent;   // per node: arc that reached it
  std::vector<std::int32_t> forward;  // source-side BFS queue
  std::vector<std::int32_t> backward; // sink-side BFS queue
  std::uint32_t stamp = 0;            // last stamp handed out

  /// Grows every array to cover `num_vertices` nodes.  Idempotent.
  void reserve(std::int32_t num_vertices);
};

class FlowNetwork {
 public:
  /// A network with `num_vertices` vertices and no arcs.
  explicit FlowNetwork(std::int32_t num_vertices);

  /// Adds a directed arc u -> v with the given capacity (in
  /// [0, INT32_MAX]) and its residual reverse arc of capacity 0.
  /// Returns the arc index (used by `flow_on`).  All arcs must be
  /// added before the first `max_flow` call.
  std::int32_t add_arc(std::int32_t u, std::int32_t v, std::int64_t capacity);

  std::int32_t num_vertices() const { return num_vertices_; }
  std::int32_t num_arcs() const {
    return static_cast<std::int32_t>(arc_to_.size() / 2);
  }

  /// Computes a maximum flow from `source` to `sink`, capped at `limit`
  /// (augmentation stops once the flow reaches it), and returns its
  /// value.  Every call starts from zero flow: the network is reusable
  /// across any number of (source, sink, limit) queries with no
  /// allocation after the first call.  Uses the private scratch.
  std::int64_t max_flow(
      std::int32_t source, std::int32_t sink,
      std::int64_t limit = std::numeric_limits<std::int64_t>::max());

  /// As above with caller-provided scratch (shared across networks).
  std::int64_t max_flow(std::int32_t source, std::int32_t sink,
                        std::int64_t limit, MaxflowScratch& scratch);

  /// After max_flow: flow through arc `arc_index` (0 or more).
  std::int64_t flow_on(std::int32_t arc_index) const;

  /// After a max_flow that stopped below its limit: the source side of
  /// a minimum cut — the complement of the set of vertices that can
  /// still reach the sink in the residual graph.  That set is the same
  /// for every maximum flow, so the cut depends only on the network and
  /// the (source, sink) pair, not on the augmenting paths taken.
  std::vector<bool> min_cut_source_side() const;

 private:
  void finalize();
  std::int64_t augment(std::int32_t source, std::int32_t sink,
                       std::int64_t room, MaxflowScratch& s);
  void push(std::int32_t arc, std::int64_t delta);

  std::int32_t num_vertices_ = 0;
  bool finalized_ = false;
  std::int32_t last_source_ = -1;
  std::int32_t last_sink_ = -1;

  // Twin arcs live at paired indices: internal arc 2a is the a-th
  // added arc, 2a+1 its reverse, twin(x) == x ^ 1, tail(x) ==
  // arc_to_[x ^ 1].  arc_res_[2a+1] is the flow on added arc a.
  std::vector<std::int32_t> arc_to_;    // head vertex per internal arc
  std::vector<std::int32_t> arc_cap_;   // as-added capacity (reverse: 0)
  std::vector<std::int32_t> arc_res_;   // residual capacity, per query
  std::vector<std::int32_t> dirty_;     // added arcs the last query used

  // CSR adjacency over internal arc ids, built by finalize().
  std::vector<std::int32_t> first_;     // size n+1
  std::vector<std::int32_t> adj_arc_;   // arc ids grouped by tail

  MaxflowScratch scratch_;
};

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
/// never reachable again), and the flow is undone from a list of the
/// vertices it touched, so no query sweeps all n vertices.
///
/// Holds O(n) scratch and reads `g`, which must outlive it.  Not
/// thread-safe: parallel callers keep one per lane.
class FanSearch {
 public:
  explicit FanSearch(const Graph& g);

  /// min(limit, the largest fan from `source` to S = {v : rank[v] <
  /// bound}).  `rank` has one entry per vertex and rank[source] >=
  /// bound.  A direct edge to a vertex of S is a path of the fan.  Each
  /// call starts from zero flow.
  std::int32_t fan(NodeId source, std::int32_t limit,
                   std::span<const std::int32_t> rank, std::int32_t bound);

 private:
  bool augment(NodeId source, std::span<const std::int32_t> rank,
               std::int32_t bound);
  void set_feed(NodeId v, std::int32_t arc);

  const Graph* g_;
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
