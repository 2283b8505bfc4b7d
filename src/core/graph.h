// Compact immutable undirected graph.
//
// `Graph` stores adjacency in CSR (compressed sparse row) form: one
// offsets array of size n+1 and one flat neighbor array of size 2m, with
// each node's neighbor slice kept sorted so membership queries are
// O(log deg).  Graphs are value types — cheap to move, safe to copy —
// and immutable after construction, which lets every algorithm in this
// library take `const Graph&` without defensive copies.
//
// Construction has one path: `from_csr` adopts finished CSR arrays and
// derives the canonical edge list and the arc companions; `from_edges`
// turns an arbitrary edge list (duplicates and flipped copies allowed,
// self-loops rejected: an LHG is a simple graph) into such arrays and
// hands them to `from_csr`.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"

namespace lhg::core {

/// Node identifier: dense indices in [0, num_nodes()).
using NodeId = std::int32_t;

/// An undirected edge in canonical form (u < v after normalization).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Canonicalizes an edge so that u <= v.
constexpr Edge canonical(NodeId a, NodeId b) {
  return a < b ? Edge{a, b} : Edge{b, a};
}

/// Packs a canonical edge into a single 64-bit key (for hashing).
constexpr std::uint64_t edge_key(NodeId a, NodeId b) {
  const Edge e = canonical(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
         static_cast<std::uint32_t>(e.v);
}

class Graph {
 public:
  /// Empty graph (0 nodes, 0 edges).
  Graph() = default;

  /// Builds a graph with `num_nodes` nodes from an arbitrary edge list
  /// in any order; duplicate and flipped copies of an edge collapse to
  /// one.  Endpoints are validated (in range, no self-loops), counted
  /// into CSR slices, and each slice is sorted, deduplicated and
  /// compacted before `from_csr` finishes the graph.  Bad input fails
  /// an LHG_CHECK contract (fatal by default; throwing under a test
  /// failure handler).
  static Graph from_edges(NodeId num_nodes, std::span<const Edge> edges);

  /// Adopts already-finished CSR arrays — `offsets` of size n+1 and
  /// `adjacency` of size 2m with every node's slice strictly ascending
  /// — and derives the canonical edge list and the twin/edge-id arc
  /// companions in two flat O(m) passes, during which symmetry (v in
  /// adj[u] <=> u in adj[v]) is verified.  The only code that writes
  /// those derived arrays.  Malformed input fails an LHG_CHECK
  /// contract.  Implicit views materialize through it directly.
  static Graph from_csr(NodeId num_nodes, std::vector<std::int32_t> offsets,
                        std::vector<NodeId> adjacency);

  /// Number of nodes n.
  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size()) - 1; }

  /// Number of undirected edges m.
  std::int64_t num_edges() const { return static_cast<std::int64_t>(edges_.size()); }

  /// Sorted neighbors of `u`.
  std::span<const NodeId> neighbors(NodeId u) const {
    LHG_DCHECK_RANGE(u, num_nodes());
    const auto lo = static_cast<std::size_t>(offsets_[as_index(u)]);
    const auto hi = static_cast<std::size_t>(offsets_[as_index(u) + 1]);
    return {adjacency_.data() + lo, hi - lo};
  }

  /// The i-th neighbor of `u` (ascending id order) — the random-access
  /// form of `neighbors(u)` required by the GraphLike concept
  /// (core/graph_concept.h), so templated kernels can walk any view.
  NodeId neighbor(NodeId u, std::int32_t i) const {
    LHG_DCHECK_RANGE(i, degree(u));
    return adjacency_[static_cast<std::size_t>(offsets_[as_index(u)] + i)];
  }

  /// Degree of `u`.
  std::int32_t degree(NodeId u) const {
    LHG_DCHECK_RANGE(u, num_nodes());
    return offsets_[as_index(u) + 1] - offsets_[as_index(u)];
  }

  /// True iff the edge {u,v} is present.  O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const { return arc_index(u, v) >= 0; }

  /// All edges in canonical (u < v) lexicographic order.
  std::span<const Edge> edges() const { return edges_; }

  /// Number of directed arcs (2m); `arc_index` values live in [0, 2m).
  std::int32_t num_arcs() const {
    return static_cast<std::int32_t>(adjacency_.size());
  }

  /// CSR position of the arc u→v — the index of `v` inside
  /// `neighbors(u)`, offset by u's slice start — or -1 if the edge is
  /// absent.  O(log deg(u)).  Arc ids index per-direction state (e.g.
  /// who-heard-whom heartbeat tables) as flat arrays of size num_arcs().
  std::int32_t arc_index(NodeId u, NodeId v) const;

  /// CSR position of the reverse arc: twin_arc(arc_index(u,v)) ==
  /// arc_index(v,u).  O(1).
  std::int32_t twin_arc(std::int32_t arc) const {
    LHG_DCHECK_RANGE(arc, num_arcs());
    return twin_[static_cast<std::size_t>(arc)];
  }

  /// First arc id of u's CSR slice: u's outgoing arcs are exactly
  /// [arc_begin(u), arc_begin(u) + degree(u)), aligned index-for-index
  /// with neighbors(u).  Iterating this range instead of calling
  /// arc_index per neighbor turns the per-send O(log deg) search into
  /// O(1) — the flooding hot path relies on it.
  std::int32_t arc_begin(NodeId u) const {
    LHG_DCHECK_RANGE(u, num_nodes());
    return offsets_[as_index(u)];
  }

  /// Head (target node) of the arc at CSR position `arc`.  O(1).
  NodeId arc_target(std::int32_t arc) const {
    LHG_DCHECK_RANGE(arc, num_arcs());
    return adjacency_[static_cast<std::size_t>(arc)];
  }

  /// Dense undirected edge id of {u,v} in [0, num_edges()) — the
  /// position of canonical(u,v) within edges() — or -1 if absent.
  /// O(log deg(u)).  Edge ids index per-link state (latencies, failure
  /// flags) as flat arrays of size num_edges().
  std::int32_t edge_index(NodeId u, NodeId v) const {
    const std::int32_t arc = arc_index(u, v);
    return arc < 0 ? -1 : arc_edge_[static_cast<std::size_t>(arc)];
  }

  /// Undirected edge id of the arc at CSR position `arc`.  O(1).
  std::int32_t edge_of_arc(std::int32_t arc) const {
    LHG_DCHECK_RANGE(arc, num_arcs());
    return arc_edge_[static_cast<std::size_t>(arc)];
  }

  /// Edge id of {u, neighbor(u, i)} — O(1); the EdgeIndexedGraph form
  /// of the arc-slice walk protocol hot loops rely on.
  std::int32_t incident_edge(NodeId u, std::int32_t i) const {
    LHG_DCHECK_RANGE(i, degree(u));
    return arc_edge_[static_cast<std::size_t>(offsets_[as_index(u)] + i)];
  }

  std::int32_t min_degree() const;
  std::int32_t max_degree() const;
  double average_degree() const {
    return num_nodes() == 0 ? 0.0
                            : 2.0 * static_cast<double>(num_edges()) /
                                  static_cast<double>(num_nodes());
  }

  /// True iff every node has degree exactly `d`.
  bool is_regular(std::int32_t d) const {
    return num_nodes() > 0 && min_degree() == d && max_degree() == d;
  }

  /// Returns the graph with edge {u,v} removed.  Throws if absent.
  Graph without_edge(NodeId u, NodeId v) const;

  /// Returns the subgraph induced on the nodes NOT in `removed`,
  /// relabeled to a dense [0, n-|removed|) id space.  `mapping`, if
  /// non-null, receives old-id -> new-id (-1 for removed nodes).
  Graph induced_without(std::span<const NodeId> removed,
                        std::vector<NodeId>* mapping = nullptr) const;

  /// Structural equality (same node count and same canonical edge set).
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.offsets_ == b.offsets_ && a.edges_ == b.edges_;
  }

 private:
  std::vector<std::int32_t> offsets_{0};  // size n+1
  std::vector<NodeId> adjacency_;      // size 2m, per-node sorted
  std::vector<Edge> edges_;            // size m, canonical sorted
  // Arc-indexed companions to `adjacency_` (both size 2m), derived at
  // construction: the reverse-arc position and the undirected edge id.
  std::vector<std::int32_t> twin_;
  std::vector<std::int32_t> arc_edge_;
};

/// Human-readable one-line summary, e.g. "Graph(n=14, m=21, deg 3..3)".
std::string describe(const Graph& g);

}  // namespace lhg::core
