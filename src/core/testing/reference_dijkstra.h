// Test-only weighted shortest paths (Dijkstra, binary heap).
//
// The core graph is unweighted; weights enter through the network layer
// (per-link latencies).  This is the oracle for flood-timing tests
// (tests/test_flood_timing.cc): a flood's delivery time at v equals the
// weighted shortest-path distance from the source, because flooding
// explores every path concurrently.
//
// Header-only and only ever included from tests/; it is not part of
// any library.

#pragma once

#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/graph.h"

namespace lhg::core::testing {

/// Weight callback: must return a non-negative weight for an existing
/// edge {u, v}.  Called once per directed traversal.
using EdgeWeightFn = std::function<double(NodeId u, NodeId v)>;

inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

/// Weighted distances from `source`; unreachable nodes get
/// kInfiniteDistance.  A bad source or a negative weight fails an
/// LHG_CHECK contract.
inline std::vector<double> dijkstra_distances(const Graph& g, NodeId source,
                                              const EdgeWeightFn& weight) {
  LHG_CHECK_RANGE(source, g.num_nodes());
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()),
                           kInfiniteDistance);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[as_index(source)] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[as_index(u)]) continue;  // stale entry
    for (const NodeId v : g.neighbors(u)) {
      const double w = weight(u, v);
      LHG_CHECK(w >= 0, "dijkstra: negative weight {} on ({}, {})", w, u, v);
      if (d + w < dist[as_index(v)]) {
        dist[as_index(v)] = d + w;
        heap.push({d + w, v});
      }
    }
  }
  return dist;
}

}  // namespace lhg::core::testing
