#include "core/connectivity.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bfs.h"
#include "core/certificate.h"
#include "core/check.h"
#include "core/maxflow.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace lhg::core {

namespace {

void check_pair(const Graph& g, NodeId s, NodeId t) {
  LHG_CHECK_RANGE(s, g.num_nodes());
  LHG_CHECK_RANGE(t, g.num_nodes());
  LHG_CHECK(s != t, "query pair must be distinct, got s == t == {}", s);
}

/// Sets rank[v] = `value` on the sink set of an s-t probe: {t} for λ,
/// and for κ (`vertex`) also every neighbour of t but s.  A fan from s
/// into N(t) ∪ {t} ∖ {s} is an s-t path family: a direct edge ends at
/// t, every other path stops at its first neighbour of t, whose edge to
/// t completes it, so its largest size is κ(s,t) (Menger).
void mark_sink_set(const Graph& g, NodeId s, NodeId t, bool vertex,
                   std::int32_t value, std::span<std::int32_t> rank) {
  rank[static_cast<std::size_t>(t)] = value;
  if (!vertex) return;
  for (const NodeId w : g.neighbors(t)) {
    if (w != s) rank[static_cast<std::size_t>(w)] = value;
  }
}

/// min(limit, the s-t connectivity `Search` counts): a fan from s into
/// the probe's sink set, marked with rank 0 in `rank` (all 1 between
/// probes) for this call only.
template <typename Search>
std::int32_t probe_fan(const Graph& g, std::optional<Search>& search,
                       std::vector<std::int32_t>& rank, NodeId s, NodeId t,
                       std::int32_t limit) {
  check_pair(g, s, t);
  if (limit <= 0) return 0;
  if (!search) search.emplace(g);
  if (rank.empty()) rank.assign(static_cast<std::size_t>(g.num_nodes()), 1);
  constexpr bool vertex = std::is_same_v<Search, FanSearch>;
  mark_sink_set(g, s, t, vertex, 0, rank);
  const std::int32_t found = search->fan(s, limit, rank, 1);
  mark_sink_set(g, s, t, vertex, 1, rank);
  return found;
}

bool is_complete(const Graph& g) {
  const auto n = static_cast<std::int64_t>(g.num_nodes());
  return g.num_edges() == n * (n - 1) / 2;
}

/// Every production caller knows the k it is verifying against and must
/// thread it through as `upper_limit` — an uncapped global query on a
/// big graph certifies at δ(G) instead of k and forfeits the early
/// exit.  Debug builds flag the omission.
constexpr NodeId kUncappedNudgeNodes = 8192;
void nudge_uncapped([[maybe_unused]] const Graph& g,
                    [[maybe_unused]] std::int32_t upper_limit,
                    [[maybe_unused]] const char* what) {
  LHG_DCHECK(upper_limit != std::numeric_limits<std::int32_t>::max() ||
                 g.num_nodes() <= kUncappedNudgeNodes,
             "{} called uncapped on n={} — pass upper_limit (callers "
             "verifying P1/P2 always know k)",
             what, g.num_nodes());
}

/// Even's ordered tests under a fixed vertex order v_1 … v_n (SIAM J.
/// Comput. 4(3), 1975), with `Search` = FanSearch for κ and
/// EdgeFanSearch for λ:
///  - κ(g) >= c iff n > c, every pair among v_1 … v_c has c internally
///    disjoint paths, and every later v_j has a c-fan to {v_1 … v_{j-1}}.
///    (If a cut C with |C| < c leaves v_1 … v_c on one side A ∪ C, the
///    first v_j on the other side has no c-fan into A ∪ C; otherwise two
///    of v_1 … v_c lie on opposite sides.)
///  - λ(g) >= c iff every v_j with j >= 2 has c edge-disjoint paths to
///    {v_1 … v_{j-1}}.  (If an edge cut (A, B) with fewer than c edges
///    has v_1 in A, every path from the first v_j in B to the prefix
///    crosses it.)  No pairs are needed, and a simple graph with n <= c
///    has δ < c, so the n > c test holds for both.
/// The verdict does not depend on the order, but the cost does: a fan
/// stops at the first set vertex it reaches, so under a random order
/// the set {v_1 … v_{j-1}} has density j/n around every vertex and most
/// fans end within a few hops.  A breadth-first order would put every
/// later vertex far from the set.
///
/// Fans only read the graph, so they run through `parallel_for` with a
/// search per lane; the shared flag only skips work once some fan
/// failed, so the returned bool is the same at every LHG_THREADS.  It is
/// relaxed because `parallel_for` returns only after every lane has
/// finished, so the final load sees every store (DESIGN.md §8, §13).
template <typename Search>
class OrderedFanTest {
 public:
  OrderedFanTest(const Graph& g, std::span<const NodeId> order)
      : g_(&g),
        order_(order),
        rank_(static_cast<std::size_t>(g.num_nodes()), -1),
        prober_(g),
        fans_(static_cast<std::size_t>(global_thread_count())) {
    LHG_CHECK(order.size() == static_cast<std::size_t>(g.num_nodes()),
              "vertex order has {} entries for {} vertices", order.size(),
              g.num_nodes());
    for (std::size_t i = 0; i < order.size(); ++i) {
      LHG_CHECK_RANGE(order[i], g.num_nodes());
      auto& r = rank_[static_cast<std::size_t>(order[i])];
      LHG_CHECK(r < 0, "vertex {} appears twice in the order", order[i]);
      r = static_cast<std::int32_t>(i);
    }
  }

  bool passes(std::int32_t c) {
    const NodeId n = g_->num_nodes();
    if (n <= c) return false;
    std::int32_t first = 1;
    if constexpr (std::is_same_v<Search, FanSearch>) {
      first = c;
      for (std::int32_t i = 0; i < c; ++i) {
        for (std::int32_t j = i + 1; j < c; ++j) {
          if (prober_.vertex_probe(order_[static_cast<std::size_t>(i)],
                                    order_[static_cast<std::size_t>(j)],
                                    c) < c) {
            return false;
          }
        }
      }
    }
    std::atomic<bool> failed{false};
    parallel_for(n - first, kFanGrain, [&](std::int64_t i, int lane) {
      if (failed.load(std::memory_order_relaxed)) return;
      auto& fans = fans_[static_cast<std::size_t>(lane)];
      if (!fans) fans.emplace(*g_);
      const auto j = static_cast<std::int32_t>(first + i);
      if (fans->fan(order_[static_cast<std::size_t>(j)], c, rank_, j) < c) {
        failed.store(true, std::memory_order_relaxed);
      }
    });
    return !failed.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int64_t kFanGrain = 128;

  const Graph* g_;
  std::span<const NodeId> order_;
  std::vector<std::int32_t> rank_;  // rank_[order_[i]] == i
  ConnectivityProber prober_;  // κ's pair checks, serial
  std::vector<std::optional<Search>> fans_;  // one per lane
};

/// The order the public κ and λ functions test in: a seeded-random
/// permutation from a fixed stream, so every call on the same graph
/// does the same work.
std::vector<NodeId> fan_order(NodeId n) {
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  Rng rng(0x45'76'65'6e'46'61'6e'73ULL);  // "EvenFans"
  rng.shuffle(std::span<NodeId>(order));
  return order;
}

/// The largest c in [lowest, min(δ, cap)] with κ(g) >= c (Search =
/// FanSearch) or λ(g) >= c (EdgeFanSearch), or a value below `lowest`
/// if there is none; with lowest = 2 that is exactly min(κ or λ, cap).
/// `what` names the caller.  Both are 0 on a single vertex or a
/// disconnected graph, n-1 on K_n, and <= δ.  The certificate at
/// c0 = min(δ, cap) keeps min(·, c0), so for every c <= c0 it passes
/// the ordered test at c iff g does: test c = c0, c0-1, … down to
/// `lowest` on it and return the first that passes.  A connected graph
/// passes 1.
template <typename Search>
std::int32_t ordered_connectivity(const Graph& g, std::int32_t upper_limit,
                                  const char* what, std::int32_t lowest) {
  LHG_CHECK(g.num_nodes() > 0, "{} of the empty graph", what);
  nudge_uncapped(g, upper_limit, what);
  if (g.num_nodes() == 1 || !is_connected(g)) return 0;
  if (is_complete(g)) return std::min(g.num_nodes() - 1, upper_limit);
  const std::int32_t initial = std::min(g.min_degree(), upper_limit);
  if (initial <= 1 || initial < lowest) return initial;
  const Graph cert = sparse_certificate(g, initial);
  const std::vector<NodeId> order = fan_order(cert.num_nodes());
  OrderedFanTest<Search> test(cert, order);
  for (std::int32_t c = initial; c >= lowest; --c) {
    if (test.passes(c)) return c;
  }
  return 1;
}

/// min(limit, the local connectivity `probe` measures between s and t),
/// on the certificate at min(limit, deg(s), deg(t)): no s-t path family
/// can be larger than either degree, and the certificate keeps min(·,
/// cap) for every pair (core/certificate.h).
std::int32_t local_connectivity(
    const Graph& g, NodeId s, NodeId t, std::int32_t limit,
    std::int32_t (ConnectivityProber::*probe)(NodeId, NodeId, std::int32_t)) {
  check_pair(g, s, t);
  const std::int32_t cap = std::min({limit, g.degree(s), g.degree(t)});
  if (cap <= 0) return 0;
  const Graph cert = sparse_certificate(g, cap);
  ConnectivityProber prober(cert);
  return (prober.*probe)(s, t, cap);
}

}  // namespace

ConnectivityProber::ConnectivityProber(const Graph& g) : g_(&g) {}

std::int32_t ConnectivityProber::edge_probe(NodeId s, NodeId t,
                                            std::int32_t limit) {
  return probe_fan(*g_, edge_fans_, rank_, s, t, limit);
}

std::int32_t ConnectivityProber::vertex_probe(NodeId s, NodeId t,
                                              std::int32_t limit) {
  return probe_fan(*g_, fans_, rank_, s, t, limit);
}

std::int32_t local_edge_connectivity(const Graph& g, NodeId s, NodeId t,
                                     std::int32_t limit) {
  return local_connectivity(g, s, t, limit, &ConnectivityProber::edge_probe);
}

std::int32_t local_vertex_connectivity(const Graph& g, NodeId s, NodeId t,
                                       std::int32_t limit) {
  return local_connectivity(g, s, t, limit, &ConnectivityProber::vertex_probe);
}

std::int32_t edge_connectivity(const Graph& g, std::int32_t upper_limit) {
  return ordered_connectivity<EdgeFanSearch>(g, upper_limit,
                                             "edge_connectivity", 2);
}

std::int32_t vertex_connectivity(const Graph& g, std::int32_t upper_limit) {
  return ordered_connectivity<FanSearch>(g, upper_limit,
                                         "vertex_connectivity", 2);
}

bool is_k_vertex_connected(const Graph& g, std::int32_t k) {
  if (k <= 0) return true;
  if (g.num_nodes() <= k) return false;  // k-connected needs n >= k+1
  return ordered_connectivity<FanSearch>(g, k, "is_k_vertex_connected", k) >=
         k;
}

namespace detail {

bool is_k_vertex_connected_in_order(const Graph& g, std::int32_t k,
                                    std::span<const NodeId> order) {
  LHG_CHECK(k >= 1, "ordered κ test needs k >= 1, got {}", k);
  return OrderedFanTest<FanSearch>(g, order).passes(k);
}

bool is_k_edge_connected_in_order(const Graph& g, std::int32_t k,
                                  std::span<const NodeId> order) {
  LHG_CHECK(k >= 1, "ordered λ test needs k >= 1, got {}", k);
  return OrderedFanTest<EdgeFanSearch>(g, order).passes(k);
}

}  // namespace detail

std::optional<std::vector<std::vector<NodeId>>> vertex_disjoint_paths(
    const Graph& g, NodeId s, NodeId t, std::int32_t count) {
  check_pair(g, s, t);
  if (count <= 0) return std::vector<std::vector<NodeId>>{};
  // A count-certificate contains `count` disjoint s-t paths iff G does,
  // and any path in the certificate is a path in G.  The κ probe's fan
  // ends each path at t or at a neighbour of t, which t then follows.
  const Graph cert = sparse_certificate(g, count);
  std::vector<std::int32_t> rank(static_cast<std::size_t>(g.num_nodes()), 1);
  mark_sink_set(cert, s, t, true, 0, rank);
  FanSearch fans(cert);
  if (fans.fan(s, count, rank, 1) < count) return std::nullopt;
  std::vector<std::vector<NodeId>> paths = fans.paths();
  for (auto& path : paths) {
    if (path.back() != t) path.push_back(t);
  }
  return paths;
}

std::optional<std::vector<NodeId>> minimum_vertex_cut(const Graph& g) {
  LHG_CHECK(g.num_nodes() > 0, "minimum vertex cut of the empty graph");
  if (is_complete(g)) return std::nullopt;

  // Find a pair realizing κ: Esfahanian–Hakimi, a minimum-degree v
  // against its non-neighbours, then pairs of v's neighbours.  Some pair
  // in that scan has κ(a, b) = κ(G), so it stops at the first one; a
  // scan that kept the minimum to the end would return that same pair.
  // Probes run on a certificate at κ(G)+1, which keeps every value up
  // to that cap.
  NodeId v = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  const std::int32_t kappa = vertex_connectivity(g, g.degree(v));
  const Graph cert = sparse_certificate(g, kappa + 1);
  ConnectivityProber prober(cert);
  const auto realizes = [&](NodeId a, NodeId b) {
    return !g.has_edge(a, b) && prober.vertex_probe(a, b, kappa + 1) == kappa;
  };
  // v as the common sink.  The cut below is the sink-side one of the
  // pair found here, so this orientation is part of the result.
  const auto [s, t] = [&]() -> std::pair<NodeId, NodeId> {
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      if (w != v && realizes(w, v)) return {w, v};
    }
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (realizes(nbrs[i], nbrs[j])) return {nbrs[i], nbrs[j]};
      }
    }
    return {-1, -1};
  }();
  LHG_CHECK(s >= 0, "minimum_vertex_cut: no pair realizes kappa = {}", kappa);

  // The sink-closest cut of a maximum fan from s into N(t), read off the
  // FULL graph, not the certificate: a certificate separator need not
  // separate G.  s and t are non-adjacent, so every s-t vertex cut
  // consists of split arcs.
  std::vector<std::int32_t> rank(static_cast<std::size_t>(g.num_nodes()), 1);
  mark_sink_set(g, s, t, true, 0, rank);
  FanSearch fans(g);
  fans.fan(s, kappa, rank, 1);
  return fans.vertex_cut();
}

}  // namespace lhg::core
