// Breadth-first search primitives and connectivity predicates.
//
// All functions accept an optional *alive* mask so that callers can ask
// "is the graph still connected after removing these nodes/edges?"
// without materializing a subgraph — the hot path of the P1/P2 verifier
// and of every failure-injection experiment.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/graph.h"

namespace lhg::core {

/// Distance value meaning "unreached".
inline constexpr std::int32_t kUnreachable = std::numeric_limits<std::int32_t>::max();

/// Single-source BFS distances (hop counts) from `source`.
/// Unreached nodes get kUnreachable.
std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId source);

/// Reusable scratch for repeated BFS runs (frontier queues plus the
/// distance array).  Parallel kernels keep one per worker lane / chunk
/// so an all-source sweep allocates O(threads) buffers, not O(n).
struct BfsScratch {
  std::vector<std::int32_t> dist;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
};

/// As `bfs_distances`, but writes into `scratch.dist` (resized to n)
/// instead of allocating.  Returns a reference to `scratch.dist`.
const std::vector<std::int32_t>& bfs_distances_into(const Graph& g,
                                                    NodeId source,
                                                    BfsScratch& scratch);

/// BFS distances restricted to nodes with alive[u] == true.  `source`
/// must be alive.  Dead nodes get kUnreachable.
/// (Takes vector<bool> by reference — it cannot be viewed as a span.)
std::vector<std::int32_t> bfs_distances_masked(const Graph& g, NodeId source,
                                               const std::vector<bool>& alive);

/// Eccentricity of `source`: max finite BFS distance.  Returns
/// kUnreachable if some node is unreachable from `source`.
std::int32_t eccentricity(const Graph& g, NodeId source);

/// True iff the graph is connected.  The empty graph and the singleton
/// are connected by convention.
bool is_connected(const Graph& g);

/// True iff the subgraph induced on nodes not in `removed_nodes` is
/// connected.  Removing *all* nodes yields `true` by convention (there
/// is nothing to disconnect); removing all but one yields `true`.
bool is_connected_after_node_removal(const Graph& g,
                                     std::span<const NodeId> removed_nodes);

/// True iff the graph minus the listed edges is connected.  Edges absent
/// from the graph are ignored.
bool is_connected_after_edge_removal(const Graph& g,
                                     std::span<const Edge> removed_edges);

}  // namespace lhg::core
