// Tests for the one fault rule that apply_failure_plan (failure.h)
// installs on both networks.  Every plan entry opens or closes a
// window: a node or link is faulty while at least one of its windows is
// open, and a transmission is cut while any open partition window
// separates its endpoints.  Each test runs on the serial Network and on
// ShardedNetwork at S=1 and S=4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine_fixtures.h"
#include "flooding/failure.h"
#include "lhg/lhg.h"

namespace lhg::flooding {
namespace {

using core::Edge;
using core::Graph;
using core::NodeId;
using testing_engines::on_every_engine;
using testing_engines::path3;

// --- Nested, later and coinciding windows ----------------------------
// A window's end releases only its own hold: an outer flap, a link
// failure, an outer cut or a second crash window keeps the fault.

TEST(FaultRule, NestedFlapKeepsLinkDown) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.flaps = {{{0, 1}, 1.0, 5.0}, {{0, 1}, 2.0, 3.0}};
    apply_failure_plan(net, plan);
    bool up_at_4 = true;
    bool up_at_6 = false;
    e.at(4.0, 0, [&](std::int32_t) { up_at_4 = net.link_ok(0, 1); });
    e.at(6.0, 0, [&](std::int32_t) { up_at_6 = net.link_ok(0, 1); });
    e.run();
    EXPECT_FALSE(up_at_4);  // [1, 5) still holds it
    EXPECT_TRUE(up_at_6);
  });
}

TEST(FaultRule, FlapAfterLinkFailureKeepsLinkDown) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.link_failures = {{{0, 1}, 1.0}};
    plan.flaps = {{{1, 0}, 3.0, 5.0}};
    apply_failure_plan(net, plan);
    e.run();
    EXPECT_FALSE(net.link_ok(0, 1));  // the failure never closes
  });
}

TEST(FaultRule, NestedPartitionKeepsOuterCut) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    plan.partitions = {{{0, 0, 1}, 2.0, 10.0}, {{1, 0, 0}, 4.0, 6.0}};
    apply_failure_plan(net, plan);
    bool sent_5_01 = true;  // inside both windows: (0,1) crosses the inner
    bool sent_5_12 = true;  // ...and (1,2) the outer cut
    bool active_8 = false;
    bool sent_8_12 = true;
    bool sent_8_01 = false;
    e.at(5.0, 0, [&](std::int32_t s) { sent_5_01 = e.send(s, 0, 1, 1); });
    e.at(5.0, 1, [&](std::int32_t s) { sent_5_12 = e.send(s, 1, 2, 2); });
    e.at(8.0, 1, [&](std::int32_t s) {
      active_8 = net.partition_active();
      sent_8_12 = e.send(s, 1, 2, 3);
      sent_8_01 = e.send(s, 1, 0, 4);
    });
    e.run();
    EXPECT_FALSE(sent_5_01);
    EXPECT_FALSE(sent_5_12);
    EXPECT_TRUE(active_8);  // [2, 10) still cuts after [4, 6) closed
    EXPECT_FALSE(sent_8_12);
    EXPECT_TRUE(sent_8_01);
    EXPECT_FALSE(net.partition_active());
    EXPECT_EQ(net.stats().blocked_partition, 3);
  });
}

TEST(FaultRule, SameInstantRecoveryClosesOneWindow) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    auto& net = e.net();
    FailurePlan plan;
    // Two windows open on node 2 at t=3; the recovery at the same
    // instant closes one, the one at t=6 the other.
    plan.crashes = {{2, 3.0}, {2, 3.0}};
    plan.recoveries = {{2, 3.0}, {2, 6.0}};
    apply_failure_plan(net, plan);
    bool alive_at_4 = true;
    bool alive_at_7 = false;
    e.at(4.0, 2, [&](std::int32_t) { alive_at_4 = net.is_alive(2); });
    e.at(7.0, 2, [&](std::int32_t) { alive_at_7 = net.is_alive(2); });
    e.run();
    EXPECT_FALSE(alive_at_4);
    EXPECT_TRUE(alive_at_7);
    EXPECT_EQ(net.alive_count(), 3);
  });
}

// --- Validation: a malformed plan throws before any event runs --------

TEST(FaultRule, MalformedPlanThrowsAtApply) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    auto rejects = [&](const FailurePlan& bad) {
      Engine e(g);
      EXPECT_THROW(apply_failure_plan(e.net(), bad), std::invalid_argument);
      EXPECT_TRUE(e.net().is_alive(0));  // nothing applied
      EXPECT_EQ(e.net().alive_count(), 3);
    };
    FailurePlan plan;
    plan.crashes = {{0, 0.0}, {99, 5.0}};  // valid entry first
    rejects(plan);
    plan = {};
    plan.recoveries = {{-1, 1.0}};
    rejects(plan);
    plan = {};
    plan.link_failures = {{{0, 2}, 1.0}};  // not a link of the path
    rejects(plan);
    plan = {};
    plan.flaps = {{{0, 1}, 3.0, 3.0}};  // empty window
    rejects(plan);
    plan = {};
    plan.partitions = {{{0, 1, 0, 1, 0}, 2.0, 4.0}};  // 5 entries, n = 3
    rejects(plan);
    plan = {};
    plan.partitions = {{{0, 1, 2}, 2.0, 4.0}};  // side 2
    rejects(plan);
    plan = {};
    plan.partitions = {{{0, 1, 1}, 4.0, 2.0}};  // end before start
    rejects(plan);
  });
}

TEST(FaultRule, ApplyAfterTheEngineRanThrows) {
  on_every_engine([]<typename Engine>() {
    const Graph g = path3();
    Engine e(g);
    e.at(1.0, 0, [](std::int32_t) {});
    e.run();
    FailurePlan plan;
    plan.crashes = {{0, 2.0}};
    EXPECT_THROW(apply_failure_plan(e.net(), plan), std::invalid_argument);
  });
}

// --- The brute-force oracle -----------------------------------------
// State after every entry with time <= t (times <= 0 count as 0), read
// straight off the plan: a replay of crashes and recoveries, crashes
// first at equal times, and interval membership for links and cuts.

double clamp0(double t) { return std::max(t, 0.0); }

bool oracle_down(const FailurePlan& plan, NodeId u, double t) {
  std::vector<std::pair<double, int>> events;  // (time, 0 crash / 1 recover)
  for (const NodeCrash& c : plan.crashes) {
    if (c.node == u && clamp0(c.time) <= t) events.emplace_back(c.time, 0);
  }
  for (const NodeRecovery& r : plan.recoveries) {
    if (r.node == u && clamp0(r.time) <= t) events.emplace_back(r.time, 1);
  }
  for (auto& event : events) event.first = clamp0(event.first);
  std::sort(events.begin(), events.end());
  int open = 0;
  for (const auto& [time, kind] : events) {
    open = kind == 0 ? open + 1 : std::max(open - 1, 0);
  }
  return open > 0;
}

bool same_link(const Edge& a, NodeId u, NodeId v) {
  return (a.u == u && a.v == v) || (a.u == v && a.v == u);
}

bool oracle_link_down(const FailurePlan& plan, NodeId u, NodeId v, double t) {
  for (const LinkFailure& f : plan.link_failures) {
    if (same_link(f.link, u, v) && clamp0(f.time) <= t) return true;
  }
  for (const LinkFlap& f : plan.flaps) {
    if (same_link(f.link, u, v) && clamp0(f.down) <= t && t < f.up) return true;
  }
  return false;
}

bool oracle_cut(const FailurePlan& plan, NodeId u, NodeId v, double t) {
  for (const PartitionWindow& w : plan.partitions) {
    if (clamp0(w.start) <= t && t < w.end &&
        w.side[static_cast<std::size_t>(u)] !=
            w.side[static_cast<std::size_t>(v)]) {
      return true;
    }
  }
  return false;
}

// Plans on a coarse integer grid [0, kGrid], aimed at a few hot nodes
// and links so that windows nest, overlap and coincide.  `composed`
// adds link failures, flaps and partitions and allows a crash and a
// recovery of one node at the same instant; without it the plan holds
// crashes and recoveries only, never at one instant for one node.
constexpr std::int64_t kGrid = 6;

FailurePlan random_plan(const Graph& g, core::Rng& rng, bool composed) {
  auto time = [&] { return static_cast<double>(rng.next_in(0, kGrid)); };
  auto window = [&] {
    double a = time();
    double b = time();
    if (a == b) b = a + 1.0;
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  auto hot_node = [&] { return static_cast<NodeId>(rng.next_in(0, 2)); };
  auto hot_link = [&] {
    Edge e = g.edges()[static_cast<std::size_t>(rng.next_in(0, 2))];
    if (rng.next_bool(0.5)) std::swap(e.u, e.v);
    return e;
  };
  FailurePlan plan;
  for (std::int64_t i = rng.next_in(0, 4); i > 0; --i) {
    plan.crashes.push_back({hot_node(), time()});
  }
  for (std::int64_t i = rng.next_in(0, 4); i > 0; --i) {
    plan.recoveries.push_back({hot_node(), time()});
  }
  if (!composed) {
    std::erase_if(plan.recoveries, [&](const NodeRecovery& r) {
      return std::any_of(plan.crashes.begin(), plan.crashes.end(),
                         [&](const NodeCrash& c) {
                           return c.node == r.node && c.time == r.time;
                         });
    });
    return plan;
  }
  for (std::int64_t i = rng.next_in(0, 1); i > 0; --i) {
    plan.link_failures.push_back({hot_link(), time()});
  }
  for (std::int64_t i = rng.next_in(0, 3); i > 0; --i) {
    const auto [down, up] = window();
    plan.flaps.push_back({hot_link(), down, up});
  }
  for (std::int64_t i = rng.next_in(0, 3); i > 0; --i) {
    const auto [start, end] = window();
    PartitionWindow w;
    w.side.resize(static_cast<std::size_t>(g.num_nodes()));
    for (std::uint8_t& s : w.side) s = rng.next_bool(0.5) ? 1 : 0;
    w.start = start;
    w.end = end;
    plan.partitions.push_back(std::move(w));
  }
  return plan;
}

// Runs `plan` on `Engine` and compares, at every probe time between
// grid points, each node's liveness, each link's state and the outcome
// of a send over every arc against the oracle; then the final state and
// the blocked-send counters.
template <typename Engine>
void check_against_oracle(const Graph& g, const FailurePlan& plan) {
  const std::int32_t arcs = g.num_arcs();
  constexpr std::int64_t kProbes = kGrid + 1;  // at 0.5, 1.5, ..., kGrid + 0.5
  // Per (probe, arc): bit 0 = sender alive, 1 = link up, 2 = send accepted.
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(kProbes * arcs), 0);
  Engine e(g, /*latency=*/0.25);  // every copy lands before the next grid point
  auto& net = e.net();
  apply_failure_plan(net, plan);
  for (std::int64_t p = 0; p < kProbes; ++p) {
    const double t = static_cast<double>(p) + 0.5;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      e.at(t, u, [&, p, u](std::int32_t shard) {
        std::int32_t arc = g.arc_begin(u);
        for (const NodeId v : g.neighbors(u)) {
          std::uint8_t bits = 0;
          if (net.is_alive(u)) bits |= 1;
          if (net.link_ok(u, v)) bits |= 2;
          if (e.send(shard, u, v, p)) bits |= 4;
          seen[static_cast<std::size_t>(p * arcs + arc)] = bits;
          ++arc;
        }
      });
    }
  }
  e.run();

  NetworkStats expected;
  for (std::int64_t p = 0; p < kProbes; ++p) {
    const double t = static_cast<double>(p) + 0.5;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::int32_t arc = g.arc_begin(u);
      for (const NodeId v : g.neighbors(u)) {
        const bool alive = !oracle_down(plan, u, t);
        const bool up = !oracle_link_down(plan, u, v, t);
        const bool cut = oracle_cut(plan, u, v, t);
        const std::uint8_t want = (alive ? 1 : 0) | (up ? 2 : 0) |
                                  (alive && up && !cut ? 4 : 0);
        ASSERT_EQ(seen[static_cast<std::size_t>(p * arcs + arc)], want)
            << "t=" << t << " arc " << u << "->" << v;
        if (!alive) {
          ++expected.blocked_sender_crashed;
        } else if (!up) {
          ++expected.blocked_link_down;
        } else if (cut) {
          ++expected.blocked_partition;
        }
        ++arc;
      }
    }
  }
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.blocked_sender_crashed, expected.blocked_sender_crashed);
  EXPECT_EQ(stats.blocked_link_down, expected.blocked_link_down);
  EXPECT_EQ(stats.blocked_partition, expected.blocked_partition);

  constexpr double kEnd = std::numeric_limits<double>::infinity();
  std::int32_t alive = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(net.is_alive(u), !oracle_down(plan, u, kEnd)) << "node " << u;
    if (net.is_alive(u)) ++alive;
  }
  EXPECT_EQ(net.alive_count(), alive);
  for (const Edge& edge : g.edges()) {
    ASSERT_EQ(net.link_ok(edge.u, edge.v),
              !oracle_link_down(plan, edge.u, edge.v, kEnd));
  }
  const std::vector<std::uint8_t> down = crashed_at_end(plan, g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(down[static_cast<std::size_t>(u)] != 0, !net.is_alive(u))
        << "crashed_at_end, node " << u;
  }
}

void sweep(bool composed, std::uint64_t seed, int plans) {
  const Graph g = lhg::build(12, 3);
  core::Rng rng(seed);
  for (int i = 0; i < plans; ++i) {
    const FailurePlan plan = random_plan(g, rng, composed);
    SCOPED_TRACE(testing::Message() << "plan " << i);
    on_every_engine([&]<typename Engine>() {
      check_against_oracle<Engine>(g, plan);
    });
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultRule, CrashRecoveryPlansMatchOracle) {
  sweep(/*composed=*/false, /*seed=*/41, /*plans=*/150);
}

TEST(FaultRule, ComposedPlansMatchOracle) {
  sweep(/*composed=*/true, /*seed=*/42, /*plans=*/150);
}

}  // namespace
}  // namespace lhg::flooding
