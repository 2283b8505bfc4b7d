#include "core/bfs.h"

#include <algorithm>
#include <unordered_set>

#include "core/bfs_generic.h"
#include "core/check.h"

namespace lhg::core {

std::vector<std::int32_t> bfs_distances(const Graph& g, NodeId source) {
  return generic_bfs_distances(g, source);
}

const std::vector<std::int32_t>& bfs_distances_into(const Graph& g,
                                                    NodeId source,
                                                    BfsScratch& scratch) {
  return generic_bfs_distances_into(g, source, scratch);
}

std::vector<std::int32_t> bfs_distances_masked(const Graph& g, NodeId source,
                                               const std::vector<bool>& alive) {
  LHG_CHECK_RANGE(source, g.num_nodes());
  LHG_CHECK(static_cast<NodeId>(alive.size()) == g.num_nodes(),
            "alive mask has {} entries for n={}", alive.size(), g.num_nodes());
  LHG_CHECK(alive[static_cast<std::size_t>(source)],
            "bfs_distances_masked: dead source {}", source);
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.num_nodes()),
                                 kUnreachable);
  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  dist[static_cast<std::size_t>(source)] = 0;
  std::int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId v : g.neighbors(u)) {
        if (!alive[static_cast<std::size_t>(v)]) continue;
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

std::int32_t eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::int32_t ecc = 0;
  for (std::int32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  const auto dist = bfs_distances(g, 0);
  return std::find(dist.begin(), dist.end(), kUnreachable) == dist.end();
}

bool is_connected_after_node_removal(const Graph& g,
                                     std::span<const NodeId> removed_nodes) {
  std::vector<bool> alive(static_cast<std::size_t>(g.num_nodes()), true);
  NodeId alive_count = g.num_nodes();
  for (NodeId r : removed_nodes) {
    LHG_CHECK_RANGE(r, g.num_nodes());
    if (alive[static_cast<std::size_t>(r)]) {
      alive[static_cast<std::size_t>(r)] = false;
      --alive_count;
    }
  }
  if (alive_count <= 1) return true;
  NodeId source = -1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (alive[static_cast<std::size_t>(u)]) {
      source = u;
      break;
    }
  }
  const auto dist = bfs_distances_masked(g, source, alive);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (alive[static_cast<std::size_t>(u)] &&
        dist[static_cast<std::size_t>(u)] == kUnreachable) {
      return false;
    }
  }
  return true;
}

bool is_connected_after_edge_removal(const Graph& g,
                                     std::span<const Edge> removed_edges) {
  if (g.num_nodes() <= 1) return true;
  // Membership-only (insert/contains, never iterated), so the hashed
  // order cannot reach the result — fine under `unordered-iteration`.
  std::unordered_set<std::uint64_t> gone;
  gone.reserve(removed_edges.size() * 2);
  for (Edge e : removed_edges) gone.insert(edge_key(e.u, e.v));

  std::vector<bool> visited(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<NodeId> stack{0};
  visited[0] = true;
  NodeId reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : g.neighbors(u)) {
      if (visited[static_cast<std::size_t>(v)]) continue;
      if (gone.contains(edge_key(u, v))) continue;
      visited[static_cast<std::size_t>(v)] = true;
      ++reached;
      stack.push_back(v);
    }
  }
  return reached == g.num_nodes();
}

}  // namespace lhg::core
