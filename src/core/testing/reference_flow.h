// Test-only reference implementations: the original Dinic max-flow
// and the per-pair connectivity routines built on it.
//
// This is the exact algorithm `core/connectivity.cc` shipped before the
// certificate-then-max-flow rewrite (one mutable network per s-t query,
// no sparsification).  It is deliberately slow and simple —
// the equivalence suite (tests/test_connectivity_equivalence.cc) and
// the old-vs-new bench rows cross-check the production path against it,
// so it must stay independent: nothing here may call into
// core/maxflow.h or core/certificate.h.
//
// Header-only and only ever included from tests/ and bench/; it is not
// part of the lhg_core library.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/bfs.h"
#include "core/graph.h"

namespace lhg::core::testing {

/// Dinic's algorithm on an adjacency-list residual network.  One-shot:
/// max_flow consumes capacities and may be called once per instance.
class ReferenceFlowNetwork {
 public:
  explicit ReferenceFlowNetwork(std::int32_t num_vertices) {
    LHG_CHECK(num_vertices >= 0, "negative vertex count {}", num_vertices);
    head_.resize(static_cast<std::size_t>(num_vertices));
  }

  std::int32_t add_arc(std::int32_t u, std::int32_t v, std::int64_t capacity) {
    LHG_CHECK(u >= 0 && v >= 0 && u < num_vertices() && v < num_vertices(),
              "arc ({}, {}) out of range for {} vertices", u, v,
              num_vertices());
    LHG_CHECK(capacity >= 0, "negative capacity {} on arc ({}, {})", capacity,
              u, v);
    auto& fwd_list = head_[static_cast<std::size_t>(u)];
    auto& rev_list = head_[static_cast<std::size_t>(v)];
    const auto fwd_slot = static_cast<std::int32_t>(fwd_list.size());
    const auto rev_slot =
        static_cast<std::int32_t>(rev_list.size()) + (u == v ? 1 : 0);
    fwd_list.push_back({v, rev_slot, capacity, capacity});
    rev_list.push_back({u, fwd_slot, 0, 0});
    arc_index_.emplace_back(u, fwd_slot);
    return static_cast<std::int32_t>(arc_index_.size()) - 1;
  }

  std::int32_t num_vertices() const {
    return static_cast<std::int32_t>(head_.size());
  }

  std::int64_t max_flow(
      std::int32_t source, std::int32_t sink,
      std::int64_t limit = std::numeric_limits<std::int64_t>::max()) {
    LHG_CHECK_RANGE(source, num_vertices());
    LHG_CHECK_RANGE(sink, num_vertices());
    LHG_CHECK(source != sink, "max_flow: source == sink == {}", source);
    std::int64_t total = 0;
    while (total < limit && build_levels(source, sink)) {
      iter_.assign(head_.size(), 0);
      while (total < limit) {
        const std::int64_t pushed = push(source, sink, limit - total);
        if (pushed == 0) break;
        total += pushed;
      }
    }
    return total;
  }

  std::int64_t flow_on(std::int32_t arc_index) const {
    LHG_CHECK_RANGE(arc_index, arc_index_.size());
    const auto [u, slot] = arc_index_[static_cast<std::size_t>(arc_index)];
    const Arc& a =
        head_[static_cast<std::size_t>(u)][static_cast<std::size_t>(slot)];
    return a.original - a.capacity;
  }

  /// After max_flow: vertices reachable from `source` in the residual
  /// network.  (Valid for a *flow* — Dinic never leaves excess — unlike
  /// the preflow case discussed in core/maxflow.h.)
  std::vector<bool> min_cut_source_side(std::int32_t source) const {
    std::vector<bool> reachable(head_.size(), false);
    std::vector<std::int32_t> stack{source};
    reachable[static_cast<std::size_t>(source)] = true;
    while (!stack.empty()) {
      const std::int32_t u = stack.back();
      stack.pop_back();
      for (const Arc& a : head_[static_cast<std::size_t>(u)]) {
        if (a.capacity > 0 && !reachable[static_cast<std::size_t>(a.to)]) {
          reachable[static_cast<std::size_t>(a.to)] = true;
          stack.push_back(a.to);
        }
      }
    }
    return reachable;
  }

 private:
  struct Arc {
    std::int32_t to;
    std::int32_t rev;       // index of the reverse arc in head_[to]
    std::int64_t capacity;  // residual capacity
    std::int64_t original;  // as-added capacity (to report flow)
  };

  bool build_levels(std::int32_t source, std::int32_t sink) {
    level_.assign(head_.size(), -1);
    std::deque<std::int32_t> queue{source};
    level_[static_cast<std::size_t>(source)] = 0;
    while (!queue.empty()) {
      const std::int32_t u = queue.front();
      queue.pop_front();
      for (const Arc& a : head_[static_cast<std::size_t>(u)]) {
        if (a.capacity > 0 && level_[static_cast<std::size_t>(a.to)] < 0) {
          level_[static_cast<std::size_t>(a.to)] =
              level_[static_cast<std::size_t>(u)] + 1;
          queue.push_back(a.to);
        }
      }
    }
    return level_[static_cast<std::size_t>(sink)] >= 0;
  }

  std::int64_t push(std::int32_t u, std::int32_t sink, std::int64_t budget) {
    if (u == sink) return budget;
    for (auto& it = iter_[static_cast<std::size_t>(u)];
         it <
         static_cast<std::int32_t>(head_[static_cast<std::size_t>(u)].size());
         ++it) {
      Arc& a =
          head_[static_cast<std::size_t>(u)][static_cast<std::size_t>(it)];
      if (a.capacity <= 0 || level_[static_cast<std::size_t>(a.to)] !=
                                 level_[static_cast<std::size_t>(u)] + 1) {
        continue;
      }
      const std::int64_t pushed =
          push(a.to, sink, std::min(budget, a.capacity));
      if (pushed > 0) {
        a.capacity -= pushed;
        head_[static_cast<std::size_t>(a.to)][static_cast<std::size_t>(a.rev)]
            .capacity += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<std::vector<Arc>> head_;
  std::vector<std::pair<std::int32_t, std::int32_t>> arc_index_;
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> iter_;
};

namespace detail {

inline ReferenceFlowNetwork reference_edge_network(const Graph& g) {
  ReferenceFlowNetwork net(g.num_nodes());
  for (Edge e : g.edges()) {
    net.add_arc(e.u, e.v, 1);
    net.add_arc(e.v, e.u, 1);
  }
  return net;
}

constexpr std::int32_t ref_in(NodeId v) { return 2 * v; }
constexpr std::int32_t ref_out(NodeId v) { return 2 * v + 1; }

inline ReferenceFlowNetwork reference_split_network(const Graph& g) {
  ReferenceFlowNetwork net(2 * g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.add_arc(ref_in(v), ref_out(v), 1);
  }
  for (Edge e : g.edges()) {
    net.add_arc(ref_out(e.u), ref_in(e.v), 1);
    net.add_arc(ref_out(e.v), ref_in(e.u), 1);
  }
  return net;
}

}  // namespace detail

/// min(λ(s,t), limit) by one fresh Dinic run per query.
inline std::int32_t reference_local_edge_connectivity(
    const Graph& g, NodeId s, NodeId t,
    std::int32_t limit = std::numeric_limits<std::int32_t>::max()) {
  auto net = detail::reference_edge_network(g);
  return static_cast<std::int32_t>(net.max_flow(s, t, limit));
}

/// min(κ(s,t), limit) via Even's vertex-split network, one Dinic run.
inline std::int32_t reference_local_vertex_connectivity(
    const Graph& g, NodeId s, NodeId t,
    std::int32_t limit = std::numeric_limits<std::int32_t>::max()) {
  auto net = detail::reference_split_network(g);
  return static_cast<std::int32_t>(
      net.max_flow(detail::ref_out(s), detail::ref_in(t), limit));
}

/// Global λ(G), sequential fixed-source probing (no certificate, no
/// shared-bound parallelism — each probe still prunes with the best
/// value so far, which cannot change the exact minimum).
inline std::int32_t reference_edge_connectivity(
    const Graph& g,
    std::int32_t upper_limit = std::numeric_limits<std::int32_t>::max()) {
  LHG_CHECK(g.num_nodes() > 0, "edge connectivity of the empty graph");
  if (g.num_nodes() == 1) return 0;
  if (!is_connected(g)) return 0;
  std::int32_t best = std::min(g.min_degree(), upper_limit);
  for (NodeId t = 1; t < g.num_nodes() && best > 0; ++t) {
    best = std::min(best, reference_local_edge_connectivity(g, 0, t, best));
  }
  return best;
}

/// Global κ(G), sequential Even-pruned probing.
inline std::int32_t reference_vertex_connectivity(
    const Graph& g,
    std::int32_t upper_limit = std::numeric_limits<std::int32_t>::max()) {
  LHG_CHECK(g.num_nodes() > 0, "vertex connectivity of the empty graph");
  if (g.num_nodes() == 1) return 0;
  if (!is_connected(g)) return 0;
  const auto n = static_cast<std::int64_t>(g.num_nodes());
  if (g.num_edges() == n * (n - 1) / 2) {
    return std::min(g.num_nodes() - 1, upper_limit);
  }
  NodeId v = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  std::int32_t best = std::min(g.degree(v), upper_limit);
  for (NodeId w = 0; w < g.num_nodes() && best > 0; ++w) {
    if (w == v || g.has_edge(v, w)) continue;
    best = std::min(best, reference_local_vertex_connectivity(g, v, w, best));
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size() && best > 0; ++i) {
    for (std::size_t j = i + 1; j < nbrs.size() && best > 0; ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) continue;
      best = std::min(
          best, reference_local_vertex_connectivity(g, nbrs[i], nbrs[j], best));
    }
  }
  return best;
}

}  // namespace lhg::core::testing
