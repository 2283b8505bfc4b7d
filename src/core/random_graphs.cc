#include "core/random_graphs.h"

#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/bfs.h"
#include "core/check.h"

namespace lhg::core {

Graph random_gnm(NodeId num_nodes, std::int64_t num_edges, Rng& rng) {
  LHG_CHECK(num_nodes >= 0, "negative node count {}", num_nodes);
  const std::int64_t max_edges =
      static_cast<std::int64_t>(num_nodes) * (num_nodes - 1) / 2;
  LHG_CHECK(num_edges >= 0 && num_edges <= max_edges,
            "G(n,m): m={} out of range for n={}", num_edges, num_nodes);
  std::vector<Edge> edges;
  // Membership-only dedup (insert, never iterated): the draw order alone
  // fixes `edges`, so the hashed layout is invisible to results.
  std::unordered_set<std::uint64_t> seen;
  while (static_cast<std::int64_t>(edges.size()) < num_edges) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    if (u != v && seen.insert(edge_key(u, v)).second) edges.push_back({u, v});
  }
  return Graph::from_edges(num_nodes, edges);
}

Graph random_regular(NodeId num_nodes, std::int32_t k, Rng& rng) {
  LHG_CHECK(k >= 0 && num_nodes > k,
            "random_regular: need n > k >= 0, got n={}, k={}", num_nodes, k);
  LHG_CHECK((static_cast<std::int64_t>(num_nodes) * k) % 2 == 0,
            "random_regular: n*k must be even, got n={}, k={}", num_nodes, k);
  if (k == 0) return Graph::from_edges(num_nodes, {});

  // Pairing model: k stubs per node, shuffle, pair consecutively, then
  // repair collisions with random edge swaps.
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(k));
    for (NodeId u = 0; u < num_nodes; ++u) {
      for (std::int32_t i = 0; i < k; ++i) stubs.push_back(u);
    }
    rng.shuffle(std::span<NodeId>(stubs));

    std::vector<Edge> edges;
    // Membership-only dedup (insert/contains/erase, never iterated);
    // every edge and every Rng draw is ordered by the stub walk and the
    // `edges` vector, so the hashed layout is invisible to results.
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::pair<NodeId, NodeId>> bad;  // self-loops / duplicates
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const NodeId u = stubs[i];
      const NodeId v = stubs[i + 1];
      if (u == v || !seen.insert(edge_key(u, v)).second) {
        bad.emplace_back(u, v);
      } else {
        edges.push_back(canonical(u, v));
      }
    }
    // Repair: swap a bad pair's endpoint with a random good edge.
    bool stalled = false;
    std::size_t stall_count = 0;
    while (!bad.empty()) {
      if (edges.empty() || ++stall_count > 64 * stubs.size()) {
        stalled = true;
        break;
      }
      auto [u, v] = bad.back();
      const auto pick = rng.next_below(edges.size());
      const Edge other = edges[pick];
      // Rewire (u,v)+(a,b) -> (u,a)+(v,b).
      const NodeId a = other.u;
      const NodeId b = other.v;
      if (u == a || v == b || seen.contains(edge_key(u, a)) ||
          seen.contains(edge_key(v, b))) {
        continue;  // try a different partner edge next round
      }
      bad.pop_back();
      seen.erase(edge_key(a, b));
      edges[pick] = canonical(u, a);
      seen.insert(edge_key(u, a));
      edges.push_back(canonical(v, b));
      seen.insert(edge_key(v, b));
    }
    if (!stalled) return Graph::from_edges(num_nodes, edges);
  }
  throw std::runtime_error("random_regular: pairing repair failed repeatedly");
}

Graph random_regular_connected(NodeId num_nodes, std::int32_t k, Rng& rng,
                               std::int32_t max_tries) {
  for (std::int32_t t = 0; t < max_tries; ++t) {
    Graph g = random_regular(num_nodes, k, rng);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      format("random_regular_connected: no connected sample in {} tries",
             max_tries));
}

}  // namespace lhg::core
