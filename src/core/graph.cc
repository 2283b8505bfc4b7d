#include "core/graph.h"

#include <algorithm>
#include <utility>

#include "core/format.h"

namespace lhg::core {

namespace {

void validate_edge(NodeId num_nodes, Edge e) {
  LHG_CHECK(e.u >= 0 && e.v >= 0 && e.u < num_nodes && e.v < num_nodes,
            "edge ({}, {}) out of range for n={}", e.u, e.v, num_nodes);
  LHG_CHECK(e.u != e.v, "self-loop at node {}", e.u);
}

}  // namespace

Graph Graph::from_edges(NodeId num_nodes, std::span<const Edge> edges) {
  LHG_CHECK(num_nodes >= 0, "negative node count {}", num_nodes);
  // Counting pass, then fill both directions of every listed edge.
  std::vector<std::int32_t> offsets(static_cast<std::size_t>(num_nodes) + 1,
                                    0);
  for (const Edge e : edges) {
    validate_edge(num_nodes, e);
    ++offsets[as_index(e.u) + 1];
    ++offsets[as_index(e.v) + 1];
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    offsets[as_index(u) + 1] += offsets[as_index(u)];
  }
  std::vector<NodeId> adjacency(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge e : edges) {
    adjacency[static_cast<std::size_t>(cursor[as_index(e.u)]++)] = e.v;
    adjacency[static_cast<std::size_t>(cursor[as_index(e.v)]++)] = e.u;
  }
  // Sort and dedup each slice (a duplicated or flipped edge leaves the
  // same repeat in both endpoints' slices, so symmetry survives), then
  // compact the slices leftwards over the removed repeats.
  std::int32_t write = 0;
  std::int32_t lo = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    const std::int32_t hi = offsets[as_index(u) + 1];
    const auto first = adjacency.begin() + lo;
    std::sort(first, adjacency.begin() + hi);
    const auto last = std::unique(first, adjacency.begin() + hi);
    offsets[as_index(u)] = write;
    for (auto it = first; it != last; ++it) {
      adjacency[static_cast<std::size_t>(write++)] = *it;
    }
    lo = hi;
  }
  offsets.back() = write;
  adjacency.resize(static_cast<std::size_t>(write));
  return from_csr(num_nodes, std::move(offsets), std::move(adjacency));
}

Graph Graph::from_csr(NodeId num_nodes, std::vector<std::int32_t> offsets,
                      std::vector<NodeId> adjacency) {
  LHG_CHECK(num_nodes >= 0, "negative node count {}", num_nodes);
  LHG_CHECK(offsets.size() == static_cast<std::size_t>(num_nodes) + 1,
            "from_csr: offsets has {} entries for n={}", offsets.size(),
            num_nodes);
  LHG_CHECK(offsets.front() == 0 &&
                static_cast<std::size_t>(offsets.back()) == adjacency.size(),
            "from_csr: offsets span [{}, {}] but adjacency has {} arcs",
            offsets.front(), offsets.back(), adjacency.size());
  LHG_CHECK(adjacency.size() % 2 == 0,
            "from_csr: odd arc count {} cannot be symmetric",
            adjacency.size());

  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);

  // Slice validation: strictly ascending targets, in range, no loops.
  for (NodeId u = 0; u < num_nodes; ++u) {
    NodeId prev = -1;
    for (const NodeId v : g.neighbors(u)) {
      LHG_CHECK(v >= 0 && v < num_nodes, "from_csr: target {} of node {} out "
                "of range for n={}", v, u, num_nodes);
      LHG_CHECK(v != u, "from_csr: self-loop at node {}", u);
      LHG_CHECK(v > prev, "from_csr: slice of node {} not strictly ascending "
                "({} after {})", u, v, prev);
      prev = v;
    }
  }

  // One flat pass in ascending u builds the canonical edge list and the
  // twin/edge-id companions, verifying symmetry as it goes: within v's
  // slice, the backward arcs (targets < v) occupy the prefix in
  // ascending target order, so they are consumed by a per-node cursor
  // exactly as the outer loop ascends.
  const std::size_t num_arcs = g.adjacency_.size();
  g.edges_.reserve(num_arcs / 2);
  g.twin_.resize(num_arcs);
  g.arc_edge_.resize(num_arcs);
  std::vector<std::int32_t> back_cursor(g.offsets_.begin(),
                                        g.offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (std::int32_t arc = g.offsets_[as_index(u)];
         arc < g.offsets_[as_index(u) + 1]; ++arc) {
      const NodeId v = g.adjacency_[static_cast<std::size_t>(arc)];
      if (v < u) continue;  // handled when the loop visited v's partner
      auto& rev = back_cursor[static_cast<std::size_t>(v)];
      LHG_CHECK(rev < g.offsets_[as_index(v) + 1] &&
                    g.adjacency_[static_cast<std::size_t>(rev)] == u,
                "from_csr: asymmetric adjacency at ({}, {})", u, v);
      const auto edge = static_cast<std::int32_t>(g.edges_.size());
      g.edges_.push_back({u, v});
      g.twin_[static_cast<std::size_t>(arc)] = rev;
      g.twin_[static_cast<std::size_t>(rev)] = arc;
      g.arc_edge_[static_cast<std::size_t>(arc)] = edge;
      g.arc_edge_[static_cast<std::size_t>(rev)] = edge;
      ++rev;
    }
  }
  LHG_CHECK(g.edges_.size() * 2 == num_arcs,
            "from_csr: {} arcs pair into {} edges (asymmetric input)",
            num_arcs, g.edges_.size());
  return g;
}

std::int32_t Graph::arc_index(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes() || u == v) {
    return -1;
  }
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return -1;
  return offsets_[as_index(u)] + static_cast<std::int32_t>(it - nbrs.begin());
}

std::int32_t Graph::min_degree() const {
  std::int32_t best = num_nodes() == 0 ? 0 : degree(0);
  for (NodeId u = 1; u < num_nodes(); ++u) best = std::min(best, degree(u));
  return best;
}

std::int32_t Graph::max_degree() const {
  std::int32_t best = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) best = std::max(best, degree(u));
  return best;
}

Graph Graph::without_edge(NodeId u, NodeId v) const {
  LHG_CHECK(has_edge(u, v), "edge ({}, {}) not present", u, v);
  const Edge target = canonical(u, v);
  std::vector<Edge> rest;
  rest.reserve(edges_.size() - 1);
  for (Edge e : edges_) {
    if (e != target) rest.push_back(e);
  }
  return from_edges(num_nodes(), rest);
}

Graph Graph::induced_without(std::span<const NodeId> removed,
                             std::vector<NodeId>* mapping) const {
  std::vector<bool> gone(static_cast<std::size_t>(num_nodes()), false);
  for (NodeId r : removed) {
    LHG_CHECK_RANGE(r, num_nodes());
    gone[static_cast<std::size_t>(r)] = true;
  }
  std::vector<NodeId> relabel(static_cast<std::size_t>(num_nodes()), -1);
  NodeId next = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    if (!gone[static_cast<std::size_t>(u)]) relabel[static_cast<std::size_t>(u)] = next++;
  }
  std::vector<Edge> kept;
  kept.reserve(edges_.size());
  for (Edge e : edges_) {
    const NodeId nu = relabel[static_cast<std::size_t>(e.u)];
    const NodeId nv = relabel[static_cast<std::size_t>(e.v)];
    if (nu >= 0 && nv >= 0) kept.push_back({nu, nv});
  }
  if (mapping != nullptr) *mapping = std::move(relabel);
  return from_edges(next, kept);
}

std::string describe(const Graph& g) {
  return format("Graph(n={}, m={}, deg {}..{})", g.num_nodes(), g.num_edges(),
                g.min_degree(), g.max_degree());
}

}  // namespace lhg::core
