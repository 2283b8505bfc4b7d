// Nagamochi–Ibaraki sparse k-connectivity certificates.
//
// One scan-first-search pass (Nagamochi & Ibaraki, Algorithmica 1992)
// partitions the edges of G into forests F₁, F₂, … such that Fᵢ is a
// spanning forest of G − (F₁ ∪ … ∪ Fᵢ₋₁); the certificate
// G_k = F₁ ∪ … ∪ F_k has at most k·(n−1) edges and preserves every
// connectivity question up to k:
//
//     λ_{G_k}(x, y) ≥ min(λ_G(x, y), k)   for every pair x, y,
//     κ_{G_k}(x, y) ≥ min(κ_G(x, y), k)   for every pair x, y,
//
// and since G_k ⊆ G the reverse inequalities are free, so
// min(·_{G_k}, k) = min(·_G, k) exactly.  The connectivity module uses
// this to shrink an m-edge graph to ≤ k·n edges before running max-flow
// probes capped at k — the step that turns O(m) per probe into O(k·n)
// and makes million-node verification feasible.
//
// The pass never builds the forests explicitly: a node's r-value counts
// the forests its scanned edges landed in, a bucket queue keeps the
// unscanned node of maximum r on top, and edge {v, u} (v scanned, u
// not) belongs to forest F_{r(u)+1} — kept iff r(u)+1 ≤ k.  Everything
// is index arithmetic over the `GraphLike` concept, so the scan runs
// storage-free against `lhg::ImplicitLhg` views; the kept edges go
// through `Graph::from_edges` like every other edge list.
//
// Determinism: buckets are plain vectors popped LIFO with lazy stale
// entries, nodes enter bucket 0 in descending id order (so node 0 is
// scanned first), and neighbors are visited in the ascending order the
// concept guarantees — the certificate is a pure function of the input
// graph, independent of thread count (it runs single-threaded).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/graph.h"
#include "core/graph_concept.h"

namespace lhg::core {

/// The Nagamochi–Ibaraki certificate G_k = F₁ ∪ … ∪ F_k of `g`.
/// Node ids are preserved; the result has the same node count and at
/// most k·(n−1) edges.  k ≤ 0 yields the edgeless graph on n nodes.
template <GraphLike G>
Graph sparse_certificate(const G& g, std::int32_t k) {
  const NodeId n = g.num_nodes();
  LHG_CHECK(n >= 0, "sparse_certificate: negative node count {}", n);
  if (k < 0) k = 0;
  std::vector<Edge> kept;
  if (k > 0 && n > 1) {
    // r-values are bounded by the degree (< n), so n buckets suffice.
    std::vector<std::int32_t> r(static_cast<std::size_t>(n), 0);
    std::vector<bool> scanned(static_cast<std::size_t>(n), false);
    std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(n));
    buckets[0].reserve(static_cast<std::size_t>(n));
    for (NodeId v = n - 1; v >= 0; --v) buckets[0].push_back(v);
    kept.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(k) * (n - 1), g.num_edges())));

    std::int32_t top = 0;
    for (NodeId remaining = n; remaining > 0;) {
      auto& bucket = buckets[static_cast<std::size_t>(top)];
      if (bucket.empty()) {
        // top only ever grows by 1 per kept r-increment, so this scan
        // is amortized O(m) over the whole pass.
        --top;
        LHG_ASSUME(top >= 0);
        continue;
      }
      const NodeId v = bucket.back();
      bucket.pop_back();
      // Lazy deletion: skip entries superseded by a later r-increment.
      if (scanned[static_cast<std::size_t>(v)] ||
          r[static_cast<std::size_t>(v)] != top) {
        continue;
      }
      scanned[static_cast<std::size_t>(v)] = true;
      --remaining;
      const std::int32_t deg = g.degree(v);
      for (std::int32_t i = 0; i < deg; ++i) {
        const NodeId u = g.neighbor(v, i);
        if (scanned[static_cast<std::size_t>(u)]) continue;
        // Edge {v, u} joins forest F_{r(u)+1}.
        if (r[static_cast<std::size_t>(u)] < k) kept.push_back(canonical(v, u));
        const std::int32_t ru = ++r[static_cast<std::size_t>(u)];
        buckets[static_cast<std::size_t>(ru)].push_back(u);
        top = std::max(top, ru);
      }
    }
  }
  return Graph::from_edges(n, kept);
}

}  // namespace lhg::core
