// End-to-end integration: the full deployment pipeline on one overlay —
// plan, serialize/deserialize (planner and nodes in separate
// processes), assemble, verify from first principles, route unicast,
// flood under adversarial failures, detect a crash via heartbeats, and
// survive churn.  Every module of the library participates.

#include <gtest/gtest.h>

#include "core/connectivity.h"
#include "core/diameter.h"
#include "flooding/failure.h"
#include "flooding/heartbeat.h"
#include "flooding/protocols.h"
#include "flooding/reliable_broadcast.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"
#include "lhg/plan_io.h"
#include "lhg/routing.h"
#include "lhg/verifier.h"
#include "membership/membership.h"

namespace lhg {
namespace {

TEST(Integration, FullPipeline) {
  const core::NodeId n = 62;
  const std::int32_t k = 4;

  // 1. Plan and ship the plan to "nodes" as text.
  const TreePlan planned = plan(n, k, Constraint::kKDiamond);
  const TreePlan received = from_plan_string(to_plan_string(planned));

  // 2. Assemble the overlay and its coordinates.
  const ImplicitLhg view(received);
  const Layout& layout = view.layout();
  const core::Graph g = view.materialize();
  ASSERT_EQ(g.num_nodes(), n);

  // 3. Verify the LHG definition from first principles.
  const auto report = verify(g, k);
  ASSERT_TRUE(report.is_lhg()) << to_string(report);

  // 4. Structured routing between arbitrary nodes.
  const Router router(received, layout);
  const auto path = router.route(0, n - 1);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), n - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    ASSERT_TRUE(g.has_edge(path[i], path[i + 1]));
  }

  // 5. Flood under a cut-targeted adversary with k-1 crashes.
  core::Rng rng(11);
  const auto plan_failures = flooding::cut_targeted_crashes(g, k - 1, 0, rng, /*time=*/0.0);
  const auto flood_result = flooding::flood(g, {.source = 0}, plan_failures);
  EXPECT_TRUE(flood_result.all_alive_delivered());

  // 6. Reliable broadcast on lossy links.
  const auto reliable = flooding::reliable_broadcast(
      g, {.source = 0,
          .seed = 3,
          .chaos = flooding::ChaosSpec::iid(0.3),
          .backoff = flooding::BackoffPolicy::fixed(3.0, 8)});
  EXPECT_TRUE(reliable.all_alive_delivered());

  // 7. A crash is detected by the heartbeat layer.
  flooding::FailurePlan crash;
  crash.crashes.push_back({static_cast<core::NodeId>(n / 2), 5.0});
  const auto heartbeat =
      flooding::run_heartbeat(g, {.horizon = 20.0}, crash);
  EXPECT_TRUE(heartbeat.all_crashes_detected());

  // 8. Churn: the membership layer rewires and the result is still an
  // LHG of the new size.
  membership::Overlay overlay(n, k, Constraint::kKDiamond);
  overlay.add_node();
  overlay.add_node();
  const auto after = verify(overlay.graph(), k, {.minimality_sample = 24});
  EXPECT_TRUE(after.is_lhg());
  EXPECT_EQ(overlay.size(), n + 2);
}

TEST(Integration, DeterministicEndToEnd) {
  // The whole pipeline is a pure function of its seeds: run it twice.
  auto run_once = [] {
    const auto g = build(46, 3);
    core::Rng rng(5);
    const auto failures = flooding::random_crashes(g, 2, 0, rng, /*time=*/0.0);
    const auto result = flooding::flood(g, {.source = 0, .seed = 9}, failures);
    return std::make_tuple(result.messages_sent, result.completion_time,
                           result.delivered_alive);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lhg
