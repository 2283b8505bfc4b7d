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

/// Unit-capacity digraph: every undirected edge becomes two opposing arcs.
FlowNetwork edge_network(const Graph& g) {
  FlowNetwork net(g.num_nodes());
  for (Edge e : g.edges()) {
    net.add_arc(e.u, e.v, 1);
    net.add_arc(e.v, e.u, 1);
  }
  return net;
}

constexpr std::int32_t in_vertex(NodeId v) { return 2 * v; }
constexpr std::int32_t out_vertex(NodeId v) { return 2 * v + 1; }

/// Even's vertex-split network: v_in -> v_out with capacity 1 for every
/// vertex, and u_out -> v_in / v_out -> u_in for every edge {u,v}.  Arc
/// v is v's split arc; arcs n + 2i and n + 2i + 1 carry edges()[i] as
/// u -> v and v -> u, which is how path extraction reads the flow.
///
/// `edge_capacity` = 1 gives the same max-flow VALUE (internally
/// disjoint paths, counting a direct s-t edge once) and is safe for
/// adjacent query pairs.  Cut extraction instead needs edge arcs the
/// min cut can never select, so minimum_vertex_cut passes n+1 — valid
/// only for non-adjacent pairs, where every s-t cut must consist of
/// split arcs.
FlowNetwork split_network(const Graph& g, std::int64_t edge_capacity = 1) {
  FlowNetwork net(2 * g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.add_arc(in_vertex(v), out_vertex(v), 1);
  }
  for (Edge e : g.edges()) {
    net.add_arc(out_vertex(e.u), in_vertex(e.v), edge_capacity);
    net.add_arc(out_vertex(e.v), in_vertex(e.u), edge_capacity);
  }
  return net;
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
  check_pair(*g_, s, t);
  if (limit <= 0) return 0;
  if (!edge_net_) edge_net_.emplace(edge_network(*g_));
  return static_cast<std::int32_t>(edge_net_->max_flow(s, t, limit, scratch_));
}

std::int32_t ConnectivityProber::vertex_probe(NodeId s, NodeId t,
                                              std::int32_t limit) {
  check_pair(*g_, s, t);
  if (limit <= 0) return 0;
  if (!vertex_net_) vertex_net_.emplace(split_network(*g_));
  return static_cast<std::int32_t>(
      vertex_net_->max_flow(out_vertex(s), in_vertex(t), limit, scratch_));
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
  // and any path in the certificate is a path in G.
  const Graph cert = sparse_certificate(g, count);
  FlowNetwork net = split_network(cert);
  const auto flow = net.max_flow(out_vertex(s), in_vertex(t), count);
  if (flow < count) return std::nullopt;

  // Collect directed edges carrying flow and decompose into paths by
  // walking from s.  Vertex capacities are 1, so each internal vertex
  // appears on at most one path; any flow cycle (possible in principle)
  // is dropped by the in-walk cycle check.  Node-indexed flat storage:
  // successor lists fill in arc-index order and pop deterministically,
  // with no hashed container anywhere near the returned paths
  // (determinism-linter rule `unordered-iteration` guards the contract).
  std::vector<std::vector<NodeId>> out_flow(
      static_cast<std::size_t>(g.num_nodes()));
  std::int32_t arc = cert.num_nodes();  // the first edge arc
  for (const Edge e : cert.edges()) {
    if (net.flow_on(arc++) > 0) out_flow[as_index(e.u)].push_back(e.v);
    if (net.flow_on(arc++) > 0) out_flow[as_index(e.v)].push_back(e.u);
  }
  std::vector<std::vector<NodeId>> paths;
  for (std::int32_t p = 0; p < count; ++p) {
    std::vector<NodeId> path{s};
    std::vector<std::int32_t> position(static_cast<std::size_t>(g.num_nodes()), -1);
    position[static_cast<std::size_t>(s)] = 0;
    while (path.back() != t) {
      auto& successors = out_flow[static_cast<std::size_t>(path.back())];
      LHG_CHECK(!successors.empty(),
                "flow decomposition: dead end at node {}", path.back());
      const NodeId next = successors.back();
      successors.pop_back();
      const auto pos = position[static_cast<std::size_t>(next)];
      if (pos >= 0) {
        // Flow cycle: discard the loop portion.
        for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < path.size(); ++i) {
          position[static_cast<std::size_t>(path[i])] = -1;
        }
        path.resize(static_cast<std::size_t>(pos) + 1);
        continue;
      }
      position[static_cast<std::size_t>(next)] =
          static_cast<std::int32_t>(path.size());
      path.push_back(next);
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

std::optional<std::vector<NodeId>> minimum_vertex_cut(const Graph& g) {
  LHG_CHECK(g.num_nodes() > 0, "minimum vertex cut of the empty graph");
  if (is_complete(g)) return std::nullopt;

  // Find the pair realizing κ: Esfahanian–Hakimi, a minimum-degree v
  // against its non-neighbors, then pairs of v's neighbors.  Probes run
  // on a certificate at δ(G)+1 — one above any possible κ, so every
  // probe value matches the full graph's.
  NodeId v = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) < g.degree(v)) v = u;
  }
  const Graph cert = sparse_certificate(g, g.degree(v) + 1);
  ConnectivityProber prober(cert);
  std::int32_t best = g.degree(v) + 1;
  std::pair<NodeId, NodeId> best_pair{-1, -1};
  auto probe = [&](NodeId a, NodeId b) {
    const auto c = prober.vertex_probe(a, b, best);
    if (c < best) {
      best = c;
      best_pair = {a, b};
    }
  };
  // v as the common sink.  The cut below is the sink-side one of the
  // pair found here, so this orientation is part of the result.
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w != v && !g.has_edge(v, w)) probe(w, v);
  }
  const auto nbrs = g.neighbors(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) probe(nbrs[i], nbrs[j]);
    }
  }
  // Not complete, so some non-adjacent pair must have been probed.
  LHG_CHECK(best_pair.first >= 0,
            "minimum_vertex_cut: no non-adjacent pair probed");

  // Recompute the flow with uncuttable edge arcs (the best pair is
  // non-adjacent by construction), so the min cut is split arcs only.
  // The cut is read off the FULL graph, not the certificate: a
  // certificate separator need not separate G.
  FlowNetwork net =
      split_network(g, static_cast<std::int64_t>(g.num_nodes()) + 1);
  net.max_flow(out_vertex(best_pair.first), in_vertex(best_pair.second));
  const auto source_side = net.min_cut_source_side();
  std::vector<NodeId> cut;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // A vertex is in the cut iff its split arc crosses the residual cut.
    if (source_side[static_cast<std::size_t>(in_vertex(u))] &&
        !source_side[static_cast<std::size_t>(out_vertex(u))]) {
      cut.push_back(u);
    }
  }
  return cut;
}

}  // namespace lhg::core
