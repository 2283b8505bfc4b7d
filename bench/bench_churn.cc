// E11 — membership churn cost: rebuild-and-diff vs incremental.
//
// How much of the overlay must be rewired when one node joins or
// leaves?  Two protocols answer differently:
//
//   * rebuild  — membership::Overlay recomputes the canonical topology
//     for the new n and rewires the labeled edge-set difference; label
//     shifts at tree reshapes rewire whole subtrees (p95 spikes around
//     a thousand edges by n = 300 at k = 4);
//   * incremental — membership::IncrementalOverlay diffs the abstract
//     tree plans and relocates only dissolved-slot occupants, so a
//     non-reshaping join costs exactly k edges and a reshape boundary
//     O(k²), independent of n.
//
// The bench grows both protocols over the same trajectory, runs a
// steady-state join/leave mix at the final size, and re-runs the
// steady mix with the k-connectivity verifier invoked after every
// batch (the continuous-verification deployment posture).  Hard
// checks, enforced here rather than eyeballed: both protocols land on
// the identical canonical graph; incremental per-change cost is
// bounded by 3k² always and by 2·k·log₂ n once n ≥ 32; incremental
// p95 beats the rebuild p95 by ≥ 10×; the verifier stays green after
// every steady-state batch.
//
// Each constraint's trajectory is sequential by nature, but the
// trajectories are independent of each other, so they run as parallel
// trials under flooding::TrialRunner.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "flooding/trial_runner.h"
#include "membership/incremental.h"
#include "membership/membership.h"
#include "report.h"
#include "table.h"

namespace {

struct Stats {
  std::int64_t count = 0;
  double mean = 0;
  std::int64_t median = 0;
  std::int64_t p95 = 0;
  std::int64_t max = 0;
};

Stats stats_of(std::vector<std::int64_t> costs) {
  Stats s;
  if (costs.empty()) return s;
  std::sort(costs.begin(), costs.end());
  s.count = static_cast<std::int64_t>(costs.size());
  for (const std::int64_t c : costs) s.mean += static_cast<double>(c);
  s.mean /= static_cast<double>(costs.size());
  s.median = costs[costs.size() / 2];
  s.p95 = costs[costs.size() * 95 / 100];
  s.max = costs.back();
  return s;
}

struct Row {
  lhg::Constraint constraint;
  std::string kind;  // "churn" (rebuild), "incremental", "steady", "verified"
  Stats stats;
  std::int64_t final_edges = 0;
  std::int64_t wall_ns = 0;
};

struct TrialOut {
  std::vector<Row> rows;
  std::vector<std::string> failures;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;
  using membership::IncrementalOverlay;
  using membership::Overlay;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_churn");

  const std::int32_t k = 4;
  const std::int32_t target = opts.small ? 300 : 600;
  const std::int64_t kSquaredBound = 3LL * k * k;
  const std::int32_t steady_batches = opts.small ? 200 : 400;
  const std::int32_t verified_batches = opts.small ? 40 : 80;

  std::cout << "E11: edge rewires per membership change, k = " << k
            << ", growth to n = " << target << "  [threads="
            << core::global_thread_count() << "]\n";
  bench::Table table({"constraint", "protocol", "changes", "mean_churn",
                      "median", "p95", "max", "edges_final"},
                     12);
  table.print_header();

  const std::vector<Constraint> constraints = {Constraint::kKTree,
                                               Constraint::kKDiamond};
  const flooding::TrialRunner runner{.seed = 1};
  const auto out = runner.run<TrialOut>(
      static_cast<std::int64_t>(constraints.size()), {},
      [&](std::int64_t t, core::Rng& rng) {
        const auto constraint = constraints[static_cast<std::size_t>(t)];
        TrialOut res;
        auto fail = [&res](const std::string& msg) {
          res.failures.push_back(msg);
        };
        const std::string tag =
            std::string(to_string(constraint)) + " k=" + std::to_string(k);

        // --- Rebuild baseline: grow by recompute-and-diff.
        const bench::WallTimer rebuild_timer;
        Overlay overlay(2 * k, k, constraint);
        std::vector<std::int64_t> rebuild_costs;
        while (overlay.size() < target) {
          if (!overlay.can_grow()) {  // strict-JD gaps (not hit here)
            overlay.resize(overlay.size() + 2);
            continue;
          }
          rebuild_costs.push_back(overlay.add_node().total());
        }
        Row rebuild{constraint, "churn", stats_of(rebuild_costs),
                    overlay.graph().num_edges(), rebuild_timer.elapsed_ns()};
        res.rows.push_back(rebuild);

        // --- Incremental: same trajectory through plan deltas.
        const bench::WallTimer inc_timer;
        IncrementalOverlay inc(2 * k, k, constraint);
        std::vector<std::int64_t> inc_costs;
        while (inc.size() < target) {
          const auto before = inc.size();
          const auto delta =
              inc.can_grow() ? inc.join() : inc.apply_batch({}, 2);
          inc_costs.push_back(delta.total());
          if (before + 1 == inc.size() && delta.total() > kSquaredBound) {
            fail(tag + ": join at n=" + std::to_string(inc.size()) +
                 " cost " + std::to_string(delta.total()) + " > 3k^2");
          }
          if (inc.size() >= 32 &&
              static_cast<double>(delta.total()) >
                  2.0 * k * std::log2(static_cast<double>(inc.size()))) {
            fail(tag + ": join at n=" + std::to_string(inc.size()) +
                 " cost " + std::to_string(delta.total()) +
                 " > 2k*log2(n)");
          }
        }
        const std::int64_t inc_ns = inc_timer.elapsed_ns();
        const core::Graph inc_graph = inc.canonical_graph();
        if (inc_graph != overlay.graph()) {
          fail(tag + ": incremental and rebuild graphs diverged");
        }
        Row incr{constraint, "incremental", stats_of(inc_costs),
                 inc_graph.num_edges(), inc_ns};
        res.rows.push_back(incr);

        // The headline claim: identity-stable deltas cut the p95
        // rewiring by at least an order of magnitude.
        if (rebuild.stats.p95 <
            10 * std::max<std::int64_t>(incr.stats.p95, 1)) {
          fail(tag + ": p95 reduction below 10x (rebuild " +
               std::to_string(rebuild.stats.p95) + ", incremental " +
               std::to_string(incr.stats.p95) + ")");
        }

        // --- Steady state: batched leave+join at constant n.
        const bench::WallTimer steady_timer;
        std::vector<std::int64_t> steady_costs;
        for (std::int32_t b = 0; b < steady_batches; ++b) {
          const auto members = inc.members();
          const membership::MemberId leavers[] = {
              members[rng.next_below(members.size())]};
          const auto delta = inc.apply_batch(leavers, 1);
          steady_costs.push_back(delta.total());
          if (delta.total() > 2 * kSquaredBound) {
            fail(tag + ": steady batch cost " +
                 std::to_string(delta.total()) + " > 6k^2");
          }
        }
        const std::int64_t steady_ns = steady_timer.elapsed_ns();
        Row steady{constraint, "steady", stats_of(steady_costs),
                   inc.canonical_graph().num_edges(), steady_ns};
        res.rows.push_back(steady);

        // --- Continuous verification: the steady mix with the
        // certificate + max-flow k-connectivity verifier after every batch.
        const bench::WallTimer verified_timer;
        std::vector<std::int64_t> verified_costs;
        for (std::int32_t b = 0; b < verified_batches; ++b) {
          const auto members = inc.members();
          const membership::MemberId leavers[] = {
              members[rng.next_below(members.size())]};
          const auto delta = inc.apply_batch(leavers, 1);
          verified_costs.push_back(delta.total());
          const auto g = inc.member_graph();
          if (core::vertex_connectivity(g, k + 1) != k) {
            fail(tag + ": overlay not exactly k-connected after batch " +
                 std::to_string(b));
          }
        }
        const std::int64_t verified_ns = verified_timer.elapsed_ns();
        Row verified{constraint, "verified", stats_of(verified_costs),
                     inc.canonical_graph().num_edges(), verified_ns};
        res.rows.push_back(verified);
        return res;
      },
      [](TrialOut a, const TrialOut& b) {
        a.rows.insert(a.rows.end(), b.rows.begin(), b.rows.end());
        a.failures.insert(a.failures.end(), b.failures.begin(),
                          b.failures.end());
        return a;
      });

  for (const Row& row : out.rows) {
    report.add(row.kind + "/constraint=" + to_string(row.constraint) +
                   "/n=" + std::to_string(target),
               {{"constraint", to_string(row.constraint)},
                {"protocol", row.kind},
                {"n", target},
                {"changes", row.stats.count}},
               row.wall_ns);
    table.print_row(to_string(row.constraint), row.kind, row.stats.count,
                    row.stats.mean, row.stats.median, row.stats.p95,
                    row.stats.max, row.final_edges);
  }

  std::cout << "\nshape check: incremental median stays exactly k and max "
               "O(k^2) at reshape boundaries; rebuild p95 is >= 10x "
               "larger; the verifier stays green under steady churn\n";
  if (!out.failures.empty()) {
    for (const std::string& f : out.failures) {
      std::cerr << "HARD CHECK FAILED: " << f << "\n";
    }
    return 1;
  }
  return opts.finish(report);
}
