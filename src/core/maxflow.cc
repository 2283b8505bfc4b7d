#include "core/maxflow.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/check.h"

namespace lhg::core {

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
  for (const NodeId v : touched_) feed_[static_cast<std::size_t>(v)] = kNoFeed;
  touched_.clear();
  ends_.clear();
  source_ = source;
  rank_ = rank;
  bound_ = bound;
  std::int32_t found = 0;
  while (found < limit && augment(source, rank, bound)) ++found;
  return found;
}

NodeId FanSearch::tail(std::int32_t arc) const {
  return g_->arc_target(g_->twin_arc(arc));
}

std::vector<std::vector<NodeId>> FanSearch::paths() const {
  LHG_CHECK(source_ >= 0, "paths before fan");
  // Every vertex on a path has one feeding arc, and a path's vertex in
  // S ends it, so each path is its end's chain of feeds back to source.
  std::vector<std::vector<NodeId>> out;
  for (const NodeId end : ends_) {
    std::vector<NodeId> path;
    for (NodeId v = end; v != source_;
         v = tail(feed_[static_cast<std::size_t>(v)])) {
      path.push_back(v);
    }
    path.push_back(source_);
    std::reverse(path.begin(), path.end());
    out.push_back(std::move(path));
  }
  return out;
}

std::vector<NodeId> FanSearch::vertex_cut() const {
  LHG_CHECK(source_ >= 0, "vertex_cut before fan");
  const Graph& g = *g_;
  // Walk the residual split network backwards from T, marking which of
  // each vertex's nodes still reach it.  Into v_out: v_in while v is
  // unused, and u_in when v_out -> u_in carries a unit.  Into v_in:
  // every u_out (edge arcs are never cut), and v_out while v is used.
  constexpr std::uint8_t kIn = 1;
  constexpr std::uint8_t kOut = 2;
  std::vector<std::uint8_t> reaches(static_cast<std::size_t>(g.num_nodes()),
                                    0);
  std::vector<std::pair<NodeId, std::uint8_t>> stack;
  const auto reach = [&](NodeId v, std::uint8_t node) {
    auto& r = reaches[static_cast<std::size_t>(v)];
    if ((r & node) != 0) return;
    r |= node;
    stack.emplace_back(v, node);
  };
  for (NodeId y = 0; y < g.num_nodes(); ++y) {
    if (rank_[static_cast<std::size_t>(y)] < bound_) reach(y, kOut);
  }
  while (!stack.empty()) {
    const auto [v, node] = stack.back();
    stack.pop_back();
    const bool used = feed_[static_cast<std::size_t>(v)] != kNoFeed;
    const std::int32_t first = g.arc_begin(v);
    const std::int32_t last = first + g.degree(v);
    if (node == kOut) {
      LHG_CHECK(v != source_, "vertex_cut: the fan from {} is not maximum",
                source_);
      if (!used) reach(v, kIn);
      for (std::int32_t a = first; a < last; ++a) {
        const NodeId u = g.arc_target(a);
        if (feed_[static_cast<std::size_t>(u)] == a) reach(u, kIn);
      }
    } else {
      if (used) reach(v, kOut);
      for (std::int32_t a = first; a < last; ++a) reach(g.arc_target(a), kOut);
    }
  }
  std::vector<NodeId> cut;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (reaches[static_cast<std::size_t>(v)] == kOut) cut.push_back(v);
  }
  return cut;
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
  ends_.push_back(end);

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
