#include "core/maxflow.h"

#include <algorithm>
#include <limits>

#include "core/check.h"

namespace lhg::core {

constexpr std::int32_t kNoArc = -1;  // parent of a tree root; no meeting

void MaxflowScratch::reserve(std::int32_t num_vertices) {
  const auto n = static_cast<std::size_t>(num_vertices);
  if (mark.size() >= n) return;
  mark.resize(n, 0);
  parent.resize(n);
  forward.resize(n);
  backward.resize(n);
}

FlowNetwork::FlowNetwork(std::int32_t num_vertices) {
  LHG_CHECK(num_vertices >= 0, "negative vertex count {}", num_vertices);
  num_vertices_ = num_vertices;
}

std::int32_t FlowNetwork::add_arc(std::int32_t u, std::int32_t v,
                                  std::int64_t capacity) {
  LHG_CHECK(u >= 0 && v >= 0 && u < num_vertices_ && v < num_vertices_,
            "arc ({}, {}) out of range for {} vertices", u, v, num_vertices_);
  LHG_CHECK(capacity >= 0, "negative capacity {} on arc ({}, {})", capacity, u,
            v);
  LHG_CHECK(capacity <= std::numeric_limits<std::int32_t>::max(),
            "capacity {} exceeds the int32 per-arc cap", capacity);
  LHG_CHECK(!finalized_, "add_arc after the first max_flow call");
  arc_to_.push_back(v);
  arc_cap_.push_back(static_cast<std::int32_t>(capacity));
  arc_to_.push_back(u);
  arc_cap_.push_back(0);
  return static_cast<std::int32_t>(arc_to_.size() / 2) - 1;
}

void FlowNetwork::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const auto num_arcs = static_cast<std::int32_t>(arc_to_.size());
  arc_res_.assign(arc_cap_.begin(), arc_cap_.end());
  dirty_.reserve(static_cast<std::size_t>(num_arcs / 2));
  // Counting sort of internal arcs by tail vertex; within a vertex,
  // insertion order is preserved, so adjacency walks are deterministic.
  const auto tail = [this](std::int32_t a) {
    return static_cast<std::size_t>(arc_to_[static_cast<std::size_t>(a ^ 1)]);
  };
  first_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (std::int32_t a = 0; a < num_arcs; ++a) ++first_[tail(a) + 1];
  for (std::int32_t v = 0; v < num_vertices_; ++v) {
    first_[static_cast<std::size_t>(v) + 1] += first_[static_cast<std::size_t>(v)];
  }
  adj_arc_.resize(static_cast<std::size_t>(num_arcs));
  std::vector<std::int32_t> cursor(first_.begin(), first_.end() - 1);
  for (std::int32_t a = 0; a < num_arcs; ++a) {
    adj_arc_[static_cast<std::size_t>(cursor[tail(a)]++)] = a;
  }
}

std::int64_t FlowNetwork::max_flow(std::int32_t source, std::int32_t sink,
                                   std::int64_t limit) {
  return max_flow(source, sink, limit, scratch_);
}

std::int64_t FlowNetwork::max_flow(std::int32_t source, std::int32_t sink,
                                   std::int64_t limit,
                                   MaxflowScratch& scratch) {
  LHG_CHECK_RANGE(source, num_vertices_);
  LHG_CHECK_RANGE(sink, num_vertices_);
  LHG_CHECK(source != sink, "max_flow: source == sink == {}", source);
  finalize();
  scratch.reserve(num_vertices_);
  // Back to zero flow: only the arcs the previous query pushed along
  // differ from their capacities.
  for (const std::int32_t a : dirty_) {
    arc_res_[static_cast<std::size_t>(2 * a)] =
        arc_cap_[static_cast<std::size_t>(2 * a)];
    arc_res_[static_cast<std::size_t>(2 * a + 1)] = 0;
  }
  dirty_.clear();
  last_source_ = source;
  last_sink_ = sink;
  std::int64_t flow = 0;
  while (flow < limit) {
    const std::int64_t pushed = augment(source, sink, limit - flow, scratch);
    if (pushed == 0) break;
    flow += pushed;
  }
  return flow;
}

void FlowNetwork::push(std::int32_t arc, std::int64_t delta) {
  auto* const res = arc_res_.data();
  // A pair with no flow is untouched so far; log it for the next reset.
  if (res[arc | 1] == 0) dirty_.push_back(arc >> 1);
  res[arc] -= static_cast<std::int32_t>(delta);
  res[arc ^ 1] += static_cast<std::int32_t>(delta);
}

std::int64_t FlowNetwork::augment(std::int32_t source, std::int32_t sink,
                                  std::int64_t room, MaxflowScratch& s) {
  // One bidirectional BFS over residual arcs.  A node's mark says which
  // tree holds it in this search (stamps from earlier searches match
  // neither), and parent[] is the arc that reached it: for the forward
  // tree the arc into it, for the backward tree the arc out of it
  // toward the sink.  The trees are disjoint until the first arc that
  // joins them, where the search stops.
  if (s.stamp > std::numeric_limits<std::uint32_t>::max() - 2) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.stamp = 0;
  }
  const std::uint32_t fwd = ++s.stamp;
  const std::uint32_t bwd = ++s.stamp;
  const std::int32_t* const first = first_.data();
  const std::int32_t* const adj = adj_arc_.data();
  const std::int32_t* const to = arc_to_.data();
  const std::int32_t* const res = arc_res_.data();
  std::uint32_t* const mark = s.mark.data();
  std::int32_t* const parent = s.parent.data();
  std::int32_t* const fq = s.forward.data();
  std::int32_t* const bq = s.backward.data();

  mark[source] = fwd;
  parent[source] = kNoArc;
  mark[sink] = bwd;
  parent[sink] = kNoArc;
  std::int32_t fh = 0;
  std::int32_t ft = 0;
  std::int32_t bh = 0;
  std::int32_t bt = 0;
  fq[ft++] = source;
  bq[bt++] = sink;
  std::int32_t meet = kNoArc;  // residual arc forward tree -> backward tree
  while (meet == kNoArc && fh < ft && bh < bt) {
    if (ft - fh <= bt - bh) {
      // One forward level: residual arcs v -> w out of the frontier.
      for (const std::int32_t end = ft; fh < end && meet == kNoArc; ++fh) {
        const std::int32_t v = fq[fh];
        for (std::int32_t i = first[v]; i < first[v + 1]; ++i) {
          const std::int32_t a = adj[i];
          if (res[a] <= 0) continue;
          const std::int32_t w = to[a];
          if (mark[w] == fwd) continue;
          if (mark[w] == bwd) {
            meet = a;
            break;
          }
          mark[w] = fwd;
          parent[w] = a;
          fq[ft++] = w;
        }
      }
    } else {
      // One backward level: residual arcs u -> v into the frontier,
      // each the twin of an arc in v's slice.
      for (const std::int32_t end = bt; bh < end && meet == kNoArc; ++bh) {
        const std::int32_t v = bq[bh];
        for (std::int32_t i = first[v]; i < first[v + 1]; ++i) {
          const std::int32_t a = adj[i] ^ 1;
          if (res[a] <= 0) continue;
          const std::int32_t u = to[adj[i]];
          if (mark[u] == bwd) continue;
          if (mark[u] == fwd) {
            meet = a;
            break;
          }
          mark[u] = bwd;
          parent[u] = a;
          bq[bt++] = u;
        }
      }
    }
  }
  if (meet == kNoArc) return 0;  // one side exhausted: the flow is maximum

  // The path: source ~> tail(meet) -> to[meet] ~> sink.  Push its
  // bottleneck.
  const auto for_each_path_arc = [&](const auto& visit) {
    visit(meet);
    for (std::int32_t v = to[meet ^ 1]; parent[v] != kNoArc;
         v = to[parent[v] ^ 1]) {
      visit(parent[v]);
    }
    for (std::int32_t v = to[meet]; parent[v] != kNoArc; v = to[parent[v]]) {
      visit(parent[v]);
    }
  };
  std::int64_t delta = room;
  for_each_path_arc([&](std::int32_t a) {
    delta = std::min<std::int64_t>(delta, res[a]);
  });
  for_each_path_arc([&](std::int32_t a) { push(a, delta); });
  return delta;
}

std::int64_t FlowNetwork::flow_on(std::int32_t arc_index) const {
  LHG_CHECK_RANGE(arc_index, num_arcs());
  LHG_CHECK(last_source_ >= 0, "flow_on before max_flow");
  return arc_res_[static_cast<std::size_t>(arc_index) * 2 + 1];
}

std::vector<bool> FlowNetwork::min_cut_source_side() const {
  LHG_CHECK(last_source_ >= 0, "min_cut_source_side before max_flow");
  // Sink side = nodes that reach the sink in the residual graph; the
  // source side is its complement (see header for why the cut does not
  // depend on the flow chosen).
  std::vector<bool> source_side(static_cast<std::size_t>(num_vertices_), true);
  std::vector<std::int32_t> stack{last_sink_};
  source_side[static_cast<std::size_t>(last_sink_)] = false;
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    for (std::int32_t i = first_[static_cast<std::size_t>(v)];
         i < first_[static_cast<std::size_t>(v) + 1]; ++i) {
      const std::int32_t a = adj_arc_[static_cast<std::size_t>(i)];
      const auto u = static_cast<std::size_t>(arc_to_[static_cast<std::size_t>(a)]);
      // u reaches the sink via v iff the residual arc u -> v (the twin
      // of a) has capacity left.
      if (arc_res_[static_cast<std::size_t>(a ^ 1)] > 0 && source_side[u]) {
        source_side[u] = false;
        stack.push_back(arc_to_[static_cast<std::size_t>(a)]);
      }
    }
  }
  return source_side;
}

constexpr std::int32_t kNoFeed = -1;    // feed_: v carries no flow
constexpr std::int32_t kViaSplit = -1;  // via_: v_in entered from v_out

namespace {

/// The contract of `FanSearch::fan` and `EdgeFanSearch::fan`.
void check_fan_query(const Graph& g, NodeId source,
                     std::span<const std::int32_t> rank, std::int32_t bound) {
  LHG_CHECK_RANGE(source, g.num_nodes());
  LHG_CHECK(rank.size() == static_cast<std::size_t>(g.num_nodes()),
            "fan: {} ranks for {} vertices", rank.size(), g.num_nodes());
  LHG_CHECK(rank[static_cast<std::size_t>(source)] >= bound,
            "fan: source {} lies in its own sink set", source);
}

/// A fresh per-vertex visit stamp; `mark` is cleared when stamps wrap.
std::uint32_t next_stamp(std::uint32_t& stamp,
                         std::vector<std::uint32_t>& mark) {
  if (stamp == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(mark.begin(), mark.end(), 0);
    stamp = 0;
  }
  return ++stamp;
}

}  // namespace

FanSearch::FanSearch(const Graph& g)
    : g_(&g),
      feed_(static_cast<std::size_t>(g.num_nodes()), kNoFeed),
      mark_(static_cast<std::size_t>(g.num_nodes()), 0),
      via_(static_cast<std::size_t>(g.num_nodes())),
      pred_(static_cast<std::size_t>(g.num_nodes())) {}

std::int32_t FanSearch::fan(NodeId source, std::int32_t limit,
                            std::span<const std::int32_t> rank,
                            std::int32_t bound) {
  check_fan_query(*g_, source, rank, bound);
  std::int32_t found = 0;
  while (found < limit && augment(source, rank, bound)) ++found;
  for (const NodeId v : touched_) feed_[static_cast<std::size_t>(v)] = kNoFeed;
  touched_.clear();
  return found;
}

void FanSearch::set_feed(NodeId v, std::int32_t arc) {
  auto& slot = feed_[static_cast<std::size_t>(v)];
  if (slot == kNoFeed) touched_.push_back(v);
  slot = arc;
}

bool FanSearch::augment(NodeId source, std::span<const std::int32_t> rank,
                        std::int32_t bound) {
  const std::uint32_t stamp = next_stamp(stamp_, mark_);
  const Graph& g = *g_;
  const std::int32_t* const feed = feed_.data();
  std::uint32_t* const mark = mark_.data();
  const auto tail = [&g](std::int32_t arc) {
    return g.arc_target(g.twin_arc(arc));
  };

  // v_in, entered by `via`, moves on to y_out: visit y_out unless seen.
  // A y in the sink set completes the path at `end`.
  NodeId end = -1;
  const auto enter = [&](NodeId v, std::int32_t via, NodeId y) {
    if (mark[y] == stamp) return;
    mark[y] = stamp;
    via_[static_cast<std::size_t>(v)] = via;
    pred_[static_cast<std::size_t>(y)] = v;
    if (rank[static_cast<std::size_t>(y)] < bound) {
      end = y;
    } else {
      queue_.push_back(y);
    }
  };

  mark[source] = stamp;
  queue_.clear();
  queue_.push_back(source);
  for (std::size_t head = 0; head < queue_.size() && end < 0; ++head) {
    const NodeId x = queue_[head];
    const std::int32_t first = g.arc_begin(x);
    const std::int32_t last = first + g.degree(x);
    for (std::int32_t a = first; a < last && end < 0; ++a) {
      // Edge arc x_out -> w_in, residual unless it feeds w.  From w_in
      // the one move is on to w_out (w unused) or back along w's feed.
      const NodeId w = g.arc_target(a);
      const std::int32_t in = feed[w];
      if (in != a) enter(w, a, in == kNoFeed ? w : tail(in));
    }
    // x_out -> x_in undoes x's split arc; from x_in, back along x's feed.
    // The source is never fed.
    const std::int32_t in = feed[x];
    if (end < 0 && in != kNoFeed) enter(x, kViaSplit, tail(in));
  }
  if (end < 0) return false;

  // Walk the path back from the sink arc, rewriting each in-node's feed.
  for (NodeId y = end; y != source;) {
    const NodeId v = pred_[static_cast<std::size_t>(y)];
    const std::int32_t via = via_[static_cast<std::size_t>(v)];
    if (via == kViaSplit) {
      set_feed(v, kNoFeed);  // v leaves the flow; its out-node came first
      y = v;
    } else {
      set_feed(v, via);  // replaces the feed the path cancelled, if any
      y = tail(via);
    }
  }
  return true;
}

EdgeFanSearch::EdgeFanSearch(const Graph& g)
    : g_(&g),
      flow_(static_cast<std::size_t>(g.num_arcs()), 0),
      mark_(static_cast<std::size_t>(g.num_nodes()), 0),
      parent_(static_cast<std::size_t>(g.num_nodes())) {}

std::int32_t EdgeFanSearch::fan(NodeId source, std::int32_t limit,
                                std::span<const std::int32_t> rank,
                                std::int32_t bound) {
  check_fan_query(*g_, source, rank, bound);
  std::int32_t found = 0;
  while (found < limit && augment(source, rank, bound)) ++found;
  for (const std::int32_t a : touched_) flow_[static_cast<std::size_t>(a)] = 0;
  touched_.clear();
  return found;
}

bool EdgeFanSearch::augment(NodeId source, std::span<const std::int32_t> rank,
                            std::int32_t bound) {
  const std::uint32_t stamp = next_stamp(stamp_, mark_);
  const Graph& g = *g_;
  std::uint8_t* const flow = flow_.data();
  std::uint32_t* const mark = mark_.data();
  std::int32_t* const parent = parent_.data();

  // An arc is residual unless it carries a unit: its capacity is 1, plus
  // 1 more when its twin carries one.
  NodeId end = -1;
  mark[source] = stamp;
  queue_.assign(1, source);
  for (std::size_t head = 0; head < queue_.size() && end < 0; ++head) {
    const NodeId x = queue_[head];
    const std::int32_t last = g.arc_begin(x) + g.degree(x);
    for (std::int32_t a = g.arc_begin(x); a < last && end < 0; ++a) {
      const NodeId w = g.arc_target(a);
      if (flow[a] != 0 || mark[w] == stamp) continue;
      mark[w] = stamp;
      parent[w] = a;
      if (rank[static_cast<std::size_t>(w)] < bound) {
        end = w;
      } else {
        queue_.push_back(w);
      }
    }
  }
  if (end < 0) return false;

  // Walk the path back from its set vertex: each arc cancels its twin's
  // unit or takes one.
  for (NodeId y = end; y != source;) {
    const std::int32_t a = parent[y];
    const std::int32_t twin = g.twin_arc(a);
    if (flow[twin] != 0) {
      flow[twin] = 0;
    } else {
      flow[a] = 1;
      touched_.push_back(a);
    }
    y = g.arc_target(twin);
  }
  return true;
}

}  // namespace lhg::core
