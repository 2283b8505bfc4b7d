// E19 (extension) — length of the k vertex-disjoint paths.
//
// The paper's connectivity proof (Menger witnesses) routes k disjoint
// paths between any pair through distinct descendant leaves and tree
// copies; the point is not just that k paths EXIST but that all of
// them stay O(log n) long — that is what bounds flooding latency even
// after k−1 failures knock out the short paths.
//
// This bench extracts maximum-flow certificates (k pairwise
// internally-disjoint paths) for sampled pairs and reports the longest
// path in each certificate, against the diameter and log2(n).  Flow
// certificates are not length-optimized, so this is an upper bound on
// what an adversary can force — and it still stays logarithmic.
//
// Expected shape: worst certificate path grows by an additive constant
// per doubling of n (like the diameter), nowhere near linear.
//
// Every returned path set is hard-checked (LHG_CHECK): k paths, each a
// simple s -> t walk over edges of the graph, no internal vertex shared
// between two of them.  CI runs this bench once as its own gate.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "core/check.h"
#include "core/connectivity.h"
#include "core/diameter.h"
#include "core/rng.h"
#include "lhg/lhg.h"
#include "table.h"

namespace {

using lhg::core::NodeId;

/// Aborts unless `paths` is a set of `count` internally-vertex-disjoint
/// simple s-t paths in `g`.
void check_path_set(const lhg::core::Graph& g, NodeId s, NodeId t,
                    const std::vector<std::vector<NodeId>>& paths,
                    std::int32_t count) {
  LHG_CHECK(static_cast<std::int32_t>(paths.size()) == count,
            "({}, {}): {} paths, expected {}", s, t, paths.size(), count);
  // owner[v] = index of the path that already uses v (s and t excepted).
  std::vector<std::int32_t> owner(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const auto& path = paths[p];
    LHG_CHECK(path.size() >= 2 && path.front() == s && path.back() == t,
              "({}, {}): path {} does not run from s to t", s, t, p);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      LHG_CHECK(g.has_edge(path[i], path[i + 1]),
                "({}, {}): path {} steps {} -> {} over a non-edge", s, t, p,
                path[i], path[i + 1]);
    }
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const NodeId v = path[i];
      LHG_CHECK(v != s && v != t, "({}, {}): path {} revisits an endpoint",
                s, t, p);
      auto& o = owner[static_cast<std::size_t>(v)];
      LHG_CHECK(o == -1, "({}, {}): node {} on paths {} and {}", s, t, v,
                o, p);
      o = static_cast<std::int32_t>(p);
    }
  }
}

}  // namespace

int main() {
  using namespace lhg;

  std::cout << "E19: max path length within k-disjoint-path certificates "
               "(60 sampled pairs per row)\n";
  bench::Table table({"k", "n", "diameter", "log2(n)", "mean_longest",
                      "worst_longest"},
                     14);
  table.print_header();

  for (const std::int32_t k : {3, 5}) {
    for (const NodeId n : {64, 128, 256, 512, 1024}) {
      const auto size = static_cast<NodeId>(
          regular_exists(n, k) ? n
                               : n + (2 * (k - 1) - (n - 2 * k) % (2 * (k - 1))));
      const auto g = build(size, k);
      core::Rng rng(static_cast<std::uint64_t>(size) *
                    static_cast<std::uint64_t>(k));
      double total_longest = 0;
      std::int32_t worst_longest = 0;
      int measured = 0;
      for (int trial = 0; trial < 60; ++trial) {
        const auto s = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(size)));
        const auto t = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(size)));
        if (s == t) continue;
        const auto paths = core::vertex_disjoint_paths(g, s, t, k);
        if (!paths.has_value()) {
          std::cerr << "UNEXPECTED: fewer than k disjoint paths for (" << s
                    << ", " << t << ")\n";
          return 1;
        }
        check_path_set(g, s, t, *paths, k);
        std::int32_t longest = 0;
        for (const auto& path : *paths) {
          longest = std::max(longest,
                             static_cast<std::int32_t>(path.size()) - 1);
        }
        total_longest += longest;
        worst_longest = std::max(worst_longest, longest);
        ++measured;
      }
      table.print_row(k, size, core::diameter(g),
                      std::log2(static_cast<double>(size)),
                      total_longest / measured, worst_longest);
    }
    std::cout << '\n';
  }
  std::cout << "shape check: worst_longest grows ~ +const per doubling "
               "(logarithmic), bounded by a small multiple of the diameter\n";
  return 0;
}
