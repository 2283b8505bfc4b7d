// Pins lhg::ImplicitLhg (lhg/implicit.h) against the edge-by-edge
// reference assembler (core/testing/reference_assemble.h): the view must
// answer every adjacency, arc, and edge-id query exactly as the
// assembled graph — same node ids, same ascending neighbor order, same
// dense edge numbering.  lhg::build materializes the view, so these
// checks are also what keeps every built graph correct.  Any divergence
// would silently corrupt per-edge state (reliable-link windows,
// heartbeat tables) for code running against the view.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bfs_generic.h"
#include "core/graph.h"
#include "core/parallel.h"
#include "core/testing/reference_assemble.h"
#include "flooding/flood_generic.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

using core::NodeId;
using core::testing::reference_assemble;

/// Exhaustive implicit-vs-materialized agreement: every node's degree,
/// full neighbor list, incident edge ids, and arc slice.
void expect_equivalent(const ImplicitLhg& view, const core::Graph& g,
                       const std::string& label) {
  ASSERT_EQ(view.num_nodes(), g.num_nodes()) << label;
  ASSERT_EQ(view.num_edges(), g.num_edges()) << label;
  ASSERT_EQ(view.num_arcs(), g.num_arcs()) << label;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(view.degree(v), g.degree(v)) << label << " v=" << v;
    ASSERT_EQ(view.arc_begin(v), g.arc_begin(v)) << label << " v=" << v;
    const auto neighbors = g.neighbors(v);
    for (std::int32_t i = 0; i < g.degree(v); ++i) {
      const NodeId expect = neighbors[static_cast<std::size_t>(i)];
      ASSERT_EQ(view.neighbor(v, i), expect)
          << label << " neighbor(" << v << ", " << i << ")";
      ASSERT_EQ(view.incident_edge(v, i), g.incident_edge(v, i))
          << label << " incident_edge(" << v << ", " << i << ")";
      const std::int32_t arc = g.arc_begin(v) + i;
      ASSERT_EQ(view.arc_target(arc), g.arc_target(arc))
          << label << " arc " << arc;
      ASSERT_EQ(view.edge_of_arc(arc), g.edge_of_arc(arc))
          << label << " arc " << arc;
    }
  }
}

TEST(ImplicitEquivalence, MatchesBuildAcrossGridAndConstraints) {
  // Includes non-power-of-two and odd n: partial shared-leaf rows and
  // trailing group remainders exercise every leaf-slot branch.
  const std::vector<std::int64_t> sizes = {16, 25, 40,  63,  64,  100,
                                           129, 200, 257, 400, 777, 1000};
  for (const Constraint c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    for (const std::int32_t k : {3, 4, 5}) {
      for (const std::int64_t n : sizes) {
        if (!exists(n, k, c)) continue;
        const std::string label = to_string(c) + " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k);
        const ImplicitLhg view(n, k, c);
        expect_equivalent(view, reference_assemble(plan(n, k, c)), label);
      }
    }
  }
}

TEST(ImplicitEquivalence, EdgeIndexAgreesIncludingNonEdges) {
  const ImplicitLhg view(200, 4);
  const core::Graph g = reference_assemble(plan(200, 4));
  // All pairs: present edges get the graph's dense id, absent pairs -1.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(view.edge_index(u, v), g.edge_index(u, v))
          << "(" << u << ", " << v << ")";
    }
  }
  EXPECT_EQ(view.edge_index(0, 0), -1);  // self loops are never edges
}

TEST(ImplicitEquivalence, BuildEqualsReferenceOnEveryRealizableSmallTriple) {
  // Every realizable (n <= 400, k = 2..8, constraint): k = 2 cycles and
  // wide k >= 6 trees included, whole graphs compared with operator==.
  std::int32_t checked = 0;
  for (const Constraint c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    for (std::int32_t k = 2; k <= 8; ++k) {
      for (NodeId n = 2 * k; n <= 400; ++n) {
        if (!exists(n, k, c)) continue;
        ASSERT_EQ(build(n, k, c), reference_assemble(plan(n, k, c)))
            << to_string(c) << " n=" << n << " k=" << k;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 8120);
}

TEST(ImplicitEquivalence, PlanConstructorMatchesSizeConstructor) {
  const auto tree_plan = plan(400, 4, Constraint::kKDiamond);
  const ImplicitLhg from_plan(tree_plan);
  const ImplicitLhg from_size(400, 4, Constraint::kKDiamond);
  expect_equivalent(from_plan, from_size.materialize(), "plan-vs-size");
}

TEST(ImplicitEquivalence, UnrealizablePairThrowsLikeBuild) {
  EXPECT_THROW(ImplicitLhg(5, 4), std::invalid_argument);
  EXPECT_THROW(ImplicitLhg(100, 1), std::invalid_argument);
}

TEST(ImplicitEquivalence, BfsDistancesMatchCsr) {
  const ImplicitLhg view(1000, 4);
  const core::Graph g = view.materialize();
  for (const NodeId source : {NodeId{0}, g.num_nodes() - 1}) {
    EXPECT_EQ(core::generic_bfs_distances(view, source),
              core::generic_bfs_distances(g, source))
        << "source=" << source;
  }
}

TEST(ImplicitEquivalence, FloodOverViewMatchesFloodOverGraph) {
  const ImplicitLhg view(500, 4);
  const core::Graph g = view.materialize();
  flooding::FloodConfig cfg;
  cfg.seed = 23;
  const auto via_view = flooding::flood(view, cfg);
  const auto via_graph = flooding::flood(g, cfg);
  // Identical edge ids + identical seed => bit-identical runs.
  EXPECT_EQ(via_view.delivery_time, via_graph.delivery_time);
  EXPECT_EQ(via_view.delivery_hops, via_graph.delivery_hops);
  EXPECT_EQ(via_view.messages_sent, via_graph.messages_sent);
  EXPECT_TRUE(via_view.all_alive_delivered());
}

// Restores the ambient thread count on scope exit (mirrors
// tests/test_parallel.cc; duplicated to keep the binary's test files
// self-contained).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { core::set_global_thread_count(threads); }
  ~ScopedThreads() { core::set_global_thread_count(previous_); }

 private:
  int previous_ = core::global_thread_count();
};

TEST(ImplicitCsrDeterminism, BfsAndFloodIdenticalAtOneAndManyThreads) {
  // The from_csr graph must behave like any other core::Graph under the
  // determinism contract: BFS distances and flood traces are invariant
  // in the global thread count.
  const core::Graph g = ImplicitLhg(600, 4).materialize();
  ScopedThreads restore(1);
  const auto serial_dist = core::generic_bfs_distances(g, 0);
  flooding::FloodConfig cfg;
  cfg.seed = 7;
  const auto serial_flood = flooding::flood(g, cfg);
  for (const int threads : {2, 4, 8}) {
    core::set_global_thread_count(threads);
    EXPECT_EQ(core::generic_bfs_distances(g, 0), serial_dist) << threads;
    const auto parallel_flood = flooding::flood(g, cfg);
    EXPECT_EQ(parallel_flood.delivery_time, serial_flood.delivery_time)
        << threads;
    EXPECT_EQ(parallel_flood.delivery_hops, serial_flood.delivery_hops)
        << threads;
    EXPECT_EQ(parallel_flood.messages_sent, serial_flood.messages_sent)
        << threads;
  }
}

// --- Shard partition ----------------------------------------------------

constexpr Constraint kConstraints[] = {Constraint::kKTree,
                                       Constraint::kKDiamond};
constexpr std::int32_t kShardCounts[] = {1, 2, 3, 4, 8};

std::string partition_label(Constraint c, std::int64_t n, std::int32_t k,
                            std::int32_t shards) {
  return std::string(c == Constraint::kKTree ? "ktree" : "kdiamond") +
         " n=" + std::to_string(n) + " k=" + std::to_string(k) +
         " S=" + std::to_string(shards);
}

/// Every owner lies in [0, shards), and all k copies of each abstract
/// interior, its shared leaves and every member of its unshared groups
/// sit on that interior's shard.
void expect_families_share_a_shard(const ImplicitLhg& view,
                                   const std::vector<std::int32_t>& owner,
                                   std::int32_t shards,
                                   const std::string& label) {
  ASSERT_EQ(owner.size(), static_cast<std::size_t>(view.num_nodes())) << label;
  for (const std::int32_t s : owner) {
    ASSERT_GE(s, 0) << label;
    ASSERT_LT(s, shards) << label;
  }
  const Layout& layout = view.layout();
  const auto owner_of = [&](NodeId v) {
    return owner[static_cast<std::size_t>(v)];
  };
  for (std::int32_t i = 0; i < layout.num_interiors; ++i) {
    const std::int32_t home = owner_of(layout.interior(0, i));
    for (std::int32_t c = 1; c < layout.k; ++c) {
      ASSERT_EQ(owner_of(layout.interior(c, i)), home)
          << label << " interior " << i << " copy " << c;
    }
  }
  const TreePlan& plan = view.plan();
  for (std::int32_t l = 0; l < plan.num_leaves(); ++l) {
    const auto idx = static_cast<std::size_t>(l);
    const std::int32_t home =
        owner_of(layout.interior(0, plan.leaf_parent[idx]));
    const std::int32_t slot = layout.leaf_slot[idx];
    if (plan.leaf_kind[idx] == LeafKind::kShared) {
      ASSERT_EQ(owner_of(layout.shared_leaf(slot)), home)
          << label << " shared leaf " << slot;
    } else {
      for (std::int32_t c = 0; c < layout.k; ++c) {
        ASSERT_EQ(owner_of(layout.group_member(slot, c)), home)
            << label << " group " << slot << " member " << c;
      }
    }
  }
}

TEST(ImplicitShardOwners, OwnersInRangeAndFamiliesShareAShard) {
  for (const Constraint c : kConstraints) {
    for (const std::int32_t k : {3, 4}) {
      for (const std::int64_t n : {12, 40, 200, 4096}) {
        const ImplicitLhg view(n, k, c);
        for (const std::int32_t shards : kShardCounts) {
          expect_families_share_a_shard(view, view.shard_owners(shards),
                                        shards,
                                        partition_label(c, n, k, shards));
        }
      }
    }
  }
}

TEST(ImplicitShardOwners, UnsharedGroupsFollowTheirInterior) {
  // K-DIAMOND at (200, 3) carries an unshared k-clique group, so the
  // group rule is exercised, not vacuous.
  const ImplicitLhg view(200, 3, Constraint::kKDiamond);
  ASSERT_GT(view.layout().num_unshared_groups, 0);
  for (const std::int32_t shards : kShardCounts) {
    expect_families_share_a_shard(
        view, view.shard_owners(shards), shards,
        partition_label(Constraint::kKDiamond, 200, 3, shards));
  }
}

TEST(ImplicitShardOwners, SameTableOnEveryCallAndThreadCount) {
  const ImplicitLhg view(20'000, 4);
  ScopedThreads restore(1);
  const std::vector<std::int32_t> first = view.shard_owners(4);
  EXPECT_EQ(view.shard_owners(4), first);
  core::set_global_thread_count(4);
  EXPECT_EQ(view.shard_owners(4), first);
  EXPECT_EQ(view.shard_owners(4), first);
  // Reused storage of any size and content gives the same table.
  EXPECT_EQ(view.shard_owners(4, std::vector<std::int32_t>(7, 3)), first);
  EXPECT_EQ(view.shard_owners(4, std::vector<std::int32_t>(50'000, -1)),
            first);
}

TEST(ImplicitShardOwners, NearCutFreeAndBalancedAt65536) {
  constexpr std::int64_t n = 65'536;
  for (const Constraint c : kConstraints) {
    for (const std::int32_t k : {3, 4}) {
      const ImplicitLhg view(n, k, c);
      for (const std::int32_t shards : kShardCounts) {
        const std::string label = partition_label(c, n, k, shards);
        const std::vector<std::int32_t> owner = view.shard_owners(shards);
        std::vector<std::int64_t> load(static_cast<std::size_t>(shards), 0);
        std::int64_t cross = 0;
        for (NodeId u = 0; u < view.num_nodes(); ++u) {
          const std::int32_t su = owner[static_cast<std::size_t>(u)];
          ++load[static_cast<std::size_t>(su)];
          for (std::int32_t i = 0; i < view.degree(u); ++i) {
            cross += su != owner[static_cast<std::size_t>(view.neighbor(u, i))]
                         ? 1
                         : 0;
          }
        }
        EXPECT_LT(static_cast<double>(cross),
                  0.01 * static_cast<double>(view.num_arcs()))
            << label << ": " << cross << " cross-shard arcs";
        const double mean =
            static_cast<double>(view.num_nodes()) / static_cast<double>(shards);
        const std::int64_t largest = *std::max_element(load.begin(), load.end());
        EXPECT_LE(static_cast<double>(largest), 1.1 * mean)
            << label << ": largest shard " << largest;
      }
    }
  }
}

TEST(ImplicitShardOwners, TinyGraphsWithEmptyShardsStillFlood) {
  // At n = 12 and 40 there are fewer dealable subtrees than shards, so
  // some shards own nothing; the table stays valid and the sharded
  // flood still equals the single queue.
  for (const std::int64_t n : {12, 40}) {
    const ImplicitLhg view(n, 4);
    const std::vector<std::int32_t> owner = view.shard_owners(8);
    std::vector<std::int32_t> load(8, 0);
    for (const std::int32_t s : owner) ++load[static_cast<std::size_t>(s)];
    EXPECT_GT(std::count(load.begin(), load.end(), 0), 0) << n;
    flooding::FloodConfig cfg;
    cfg.seed = 5;
    const auto serial = flooding::flood(view, cfg);
    for (const std::int32_t shards : {8, 1000}) {  // 1000: clamped to n
      cfg.shards = shards;
      const auto sharded = flooding::sharded_flood(view, cfg);
      EXPECT_EQ(sharded.delivery_time, serial.delivery_time) << n;
      EXPECT_EQ(sharded.delivery_hops, serial.delivery_hops) << n;
      EXPECT_EQ(sharded.events_processed, serial.events_processed) << n;
    }
  }
}

TEST(ImplicitShardOwners, RejectsANonPositiveShardCount) {
  const ImplicitLhg view(40, 3);
  EXPECT_THROW(view.shard_owners(0), std::invalid_argument);
  EXPECT_THROW(view.shard_owners(-2), std::invalid_argument);
}

}  // namespace
}  // namespace lhg
