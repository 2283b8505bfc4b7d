#include "harary/harary.h"

#include <vector>

#include "core/check.h"

namespace lhg::harary {

using core::Edge;
using core::NodeId;

core::Graph circulant(NodeId n, std::int32_t k) {
  // H(1, n) is a path (no fault tolerance); this library starts at k = 2.
  LHG_CHECK(k >= 2 && k < n, "H(k,n) requires 2 <= k < n, got k={}, n={}", k,
            n);
  std::vector<Edge> edges;
  const std::int32_t r = k / 2;
  for (NodeId i = 0; i < n; ++i) {
    for (std::int32_t d = 1; d <= r; ++d) {
      edges.push_back({i, static_cast<NodeId>((i + d) % n)});
    }
  }
  if (k % 2 == 1) {
    if (n % 2 == 0) {
      // Diametric chords: i ~ i + n/2.
      for (NodeId i = 0; i < n / 2; ++i) {
        edges.push_back({i, static_cast<NodeId>(i + n / 2)});
      }
    } else {
      // Odd n: near-diametric chords; node 0 takes one extra edge.
      const NodeId half = (n - 1) / 2;
      edges.push_back({0, half});
      for (NodeId i = 0; i < half; ++i) {
        edges.push_back({i, static_cast<NodeId>(i + half + 1)});
      }
    }
  }
  return core::Graph::from_edges(n, edges);
}

std::int32_t predicted_diameter(NodeId n, std::int32_t k) {
  LHG_CHECK(k >= 2 && k < n,
            "predicted_diameter requires 2 <= k < n, got k={}, n={}", k, n);
  const std::int32_t r = k / 2;
  if (k % 2 == 0) {
    // Farthest pair is n/2 ring-steps apart, covered r at a time.
    return static_cast<std::int32_t>((n / 2 + r - 1) / r);
  }
  // One diametric hop, then at most n/4 ring-steps remain.
  return 1 + static_cast<std::int32_t>((n / 4 + r - 1) / r);
}

}  // namespace lhg::harary
