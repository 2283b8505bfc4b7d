// Graph-concept BFS: the traversal kernel behind core/bfs.h, templated
// over GraphLike so implicit adjacency views (lhg::ImplicitLhg) run the
// same code path as materialized CSR graphs.
//
// The concrete `const Graph&` entry points in core/bfs.h delegate here;
// million-node callers that never materialize a graph include this
// header directly.  Memory cost is O(n) for the distance array and the
// two frontiers — independent of the edge count, which is the point:
// at n = 10^7 the traversal state is ~44 MB while the edges it walks
// (arithmetically) would be ~640 MB materialized.

#pragma once

#include <cstdint>
#include <vector>

#include "core/bfs.h"
#include "core/check.h"
#include "core/graph_concept.h"

namespace lhg::core {

/// Single-source BFS hop distances over any GraphLike view, written
/// into `scratch.dist` (resized to n).  Returns a reference to it.
template <GraphLike G>
const std::vector<std::int32_t>& generic_bfs_distances_into(
    const G& g, NodeId source, BfsScratch& scratch) {
  LHG_CHECK_RANGE(source, g.num_nodes());
  auto& dist = scratch.dist;
  dist.assign(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  auto& frontier = scratch.frontier;
  auto& next = scratch.next;
  frontier.assign(1, source);
  dist[static_cast<std::size_t>(source)] = 0;
  std::int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (const NodeId u : frontier) {
      const std::int32_t deg = g.degree(u);
      for (std::int32_t i = 0; i < deg; ++i) {
        const NodeId v = g.neighbor(u, i);
        auto& d = dist[static_cast<std::size_t>(v)];
        if (d == kUnreachable) {
          d = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

/// Allocating convenience form of `generic_bfs_distances_into`.
template <GraphLike G>
std::vector<std::int32_t> generic_bfs_distances(const G& g, NodeId source) {
  BfsScratch scratch;
  generic_bfs_distances_into(g, source, scratch);
  return std::move(scratch.dist);
}

}  // namespace lhg::core
