#include "core/special.h"

#include <vector>

#include "core/check.h"

namespace lhg::core {

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return Graph::from_edges(n, edges);
}

Graph cycle_graph(NodeId n) {
  LHG_CHECK(n >= 3, "cycle needs n >= 3, got {}", n);
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    edges.push_back({i, static_cast<NodeId>((i + 1) % n)});
  }
  return Graph::from_edges(n, edges);
}

Graph complete_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return Graph::from_edges(n, edges);
}

Graph complete_bipartite(NodeId a, NodeId b) {
  LHG_CHECK(a >= 0 && b >= 0, "negative partition size ({}, {})", a, b);
  std::vector<Edge> edges;
  for (NodeId i = 0; i < a; ++i) {
    for (NodeId j = 0; j < b; ++j) {
      edges.push_back({i, static_cast<NodeId>(a + j)});
    }
  }
  return Graph::from_edges(a + b, edges);
}

Graph star_graph(NodeId n) {
  LHG_CHECK(n >= 1, "star needs n >= 1, got {}", n);
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.push_back({0, i});
  return Graph::from_edges(n, edges);
}

Graph hypercube(std::int32_t d) {
  LHG_CHECK(d >= 0 && d <= 20, "hypercube dimension {} out of range", d);
  const auto n = static_cast<NodeId>(1) << d;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (std::int32_t bit = 0; bit < d; ++bit) {
      const NodeId v = u ^ (static_cast<NodeId>(1) << bit);
      if (u < v) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(n, edges);
}

Graph petersen() {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.push_back({i, static_cast<NodeId>((i + 1) % 5)});      // outer C5
    edges.push_back({static_cast<NodeId>(5 + i),
                     static_cast<NodeId>(5 + (i + 2) % 5)});     // pentagram
    edges.push_back({i, static_cast<NodeId>(i + 5)});            // spokes
  }
  return Graph::from_edges(10, edges);
}

Graph binary_tree(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.push_back({i, (i - 1) / 2});
  return Graph::from_edges(n, edges);
}

}  // namespace lhg::core
