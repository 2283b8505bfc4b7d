// E3 + E24 — "connectivity" tables.
//
// E3 claim: every constructed graph has exactly κ = λ = k (P1 + P2),
// independent of which residue class n falls in, for all three
// constraints and for the Harary baseline.
//
// E24 claim (verification-scaling sweep): the certificate-then-
// ordered-fan verification stack (DESIGN.md §15) makes k-connectivity
// verification fast enough for million-node overlays:
//   old_vs_new      retired per-pair Dinic reference vs the production
//                   path, same capped question, n up to 4096 — expect
//                   >= 10x at n >= 2048 (target 50x on κ at 4096)
//   cert_ablation   the same capped pair probes with and without the
//                   Nagamochi–Ibaraki sparsify step — isolates how much
//                   of the win is the certificate vs the flow engine
//   verify_implicit certificate construction straight off the O(n/k)
//                   implicit view plus sampled capped pair probes at
//                   n = 10^5 (--small) and 10^6 — every row carries
//                   peak_rss_bytes and the 10^5 rows are gated by
//                   bench/memory_budget.json in CI
//   verify_exact    exact κ >= k and λ capped at k+1 (Even's ordered
//                   tests on the certificate) on the LHG and the
//                   circulant H(4, n): n = 10^4 (--small), 10^5 and 10^6
//
// Expected shape: the kappa and lambda columns equal k on every row and
// the summary counts zero deviations; speedup columns grow with n; the
// implicit rows stay inside the CI memory budget (the certificate never
// materializes the full graph).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/certificate.h"
#include "core/connectivity.h"
#include "core/random_graphs.h"
#include "core/rng.h"
#include "core/testing/reference_flow.h"
#include "harary/harary.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"
#include "table.h"

namespace {

using lhg::core::Graph;
using lhg::core::NodeId;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double mb(std::int64_t bytes) {
  return bytes < 0 ? 0.0 : static_cast<double>(bytes) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_connectivity");

  // --- E3: exact kappa/lambda over the (n, k, constraint) grid --------
  std::cout << "E3: exact kappa / lambda over a dense (n, k) grid  [threads="
            << core::global_thread_count() << "]\n";
  bench::Table table({"k", "n", "construction", "kappa", "lambda", "ok"}, 13);
  table.print_header();

  std::int64_t rows = 0;
  std::int64_t deviations = 0;
  const auto ks = opts.small ? std::vector<std::int32_t>{2, 3, 4}
                             : std::vector<std::int32_t>{2, 3, 4, 5, 6};
  for (const std::int32_t k : ks) {
    // Dense near 2k (every residue), then sparse checkpoints.
    std::vector<core::NodeId> sizes;
    for (core::NodeId n = 2 * k; n < 2 * k + 2 * (k - 1) + 2; ++n) {
      sizes.push_back(n);
    }
    for (const core::NodeId n :
         {6 * k + 1, 12 * k, 25 * k + 3, 60 * k + 1}) {
      if (!opts.small || n <= 30 * k) sizes.push_back(n);
    }
    const bench::WallTimer k_timer;
    for (const auto n : sizes) {
      struct Row {
        std::string name;
        core::Graph graph;
      };
      std::vector<Row> entries;
      for (const auto constraint :
           {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
        if (!exists(n, k, constraint)) continue;
        entries.push_back({to_string(constraint), build(n, k, constraint)});
      }
      entries.push_back({"harary", harary::circulant(n, k)});
      for (const auto& [name, graph] : entries) {
        const auto kappa = core::vertex_connectivity(graph, k + 1);
        const auto lambda = core::edge_connectivity(graph, k + 1);
        const bool ok = (kappa == k && lambda == k);
        ++rows;
        deviations += ok ? 0 : 1;
        // Print only the dense band and any deviation to keep the
        // table readable; the summary covers everything.
        if (n <= 2 * k + 2 * (k - 1) + 1 || !ok) {
          table.print_row(k, n, name, kappa, lambda, ok ? "yes" : "NO");
        }
      }
    }
    report.add("kappa_lambda_grid/k=" + std::to_string(k),
               {{"k", k}, {"sizes", static_cast<std::int64_t>(sizes.size())}},
               k_timer.elapsed_ns());
  }
  std::cout << "grid summary: " << rows << " graphs checked, " << deviations
            << " deviations from kappa = lambda = k\n";
  std::cout << "shape check: deviations == 0\n";
  if (deviations != 0) return 1;

  // --- E24a: old-vs-new on the same capped question -------------------
  // The old column probes vertex pairs with Dinic; the new one runs
  // Even's ordered tests for κ and λ, one local fan search per vertex
  // into the vertices before it in a random order.  Two topologies on
  // purpose.  LHG is the paper's subject.  The circulant is the worst
  // case for pair probes: between ANY pair some of the k disjoint paths
  // must wrap half the ring, so each old probe explores Θ(n) nodes.  A
  // fan only has to reach the nearest earlier vertices, so the new
  // column is not path-length-bound on either topology.
  constexpr std::int32_t k = 4;
  std::cout << "\nE24a: verification old (per-pair Dinic) vs new "
               "(certificate + ordered fans), k=4, capped at k+1\n";
  bench::Table ovn(
      {"topo", "n", "quantity", "old_ms", "new_ms", "speedup", "agree"}, 11);
  ovn.print_header();
  const auto ovn_sizes = opts.small ? std::vector<std::int64_t>{512}
                                    : std::vector<std::int64_t>{512, 2048, 4096};
  for (const std::string& topo : {std::string("lhg"), std::string("harary")}) {
    for (const std::int64_t n : ovn_sizes) {
      const Graph g = topo == "lhg"
                          ? lhg::build(static_cast<NodeId>(n), k)
                          : harary::circulant(static_cast<NodeId>(n), k);

      const bench::WallTimer old_kappa_timer;
      const auto old_kappa =
          core::testing::reference_vertex_connectivity(g, k + 1);
      const std::int64_t old_kappa_ns = old_kappa_timer.elapsed_ns();
      const bench::WallTimer new_kappa_timer;
      const auto new_kappa = core::vertex_connectivity(g, k + 1);
      const std::int64_t new_kappa_ns = new_kappa_timer.elapsed_ns();
      LHG_CHECK(old_kappa == new_kappa && new_kappa == k,
                "old/new kappa disagree on {} at n={}: {} vs {}", topo, n,
                old_kappa, new_kappa);
      ovn.print_row(topo, n, "kappa", ms(old_kappa_ns), ms(new_kappa_ns),
                    static_cast<double>(old_kappa_ns) /
                        static_cast<double>(std::max<std::int64_t>(
                            new_kappa_ns, 1)),
                    "yes");
      report.add("verify_old/kappa/topo=" + topo + "/n=" + std::to_string(n),
                 {{"k", k}, {"n", n}}, old_kappa_ns);
      report.add("verify_new/kappa/topo=" + topo + "/n=" + std::to_string(n),
                 {{"k", k}, {"n", n}}, new_kappa_ns);

      const bench::WallTimer old_lambda_timer;
      const auto old_lambda =
          core::testing::reference_edge_connectivity(g, k + 1);
      const std::int64_t old_lambda_ns = old_lambda_timer.elapsed_ns();
      const bench::WallTimer new_lambda_timer;
      const auto new_lambda = core::edge_connectivity(g, k + 1);
      const std::int64_t new_lambda_ns = new_lambda_timer.elapsed_ns();
      LHG_CHECK(old_lambda == new_lambda && new_lambda == k,
                "old/new lambda disagree on {} at n={}: {} vs {}", topo, n,
                old_lambda, new_lambda);
      ovn.print_row(topo, n, "lambda", ms(old_lambda_ns), ms(new_lambda_ns),
                    static_cast<double>(old_lambda_ns) /
                        static_cast<double>(std::max<std::int64_t>(
                            new_lambda_ns, 1)),
                    "yes");
      report.add("verify_old/lambda/topo=" + topo + "/n=" + std::to_string(n),
                 {{"k", k}, {"n", n}}, old_lambda_ns);
      report.add("verify_new/lambda/topo=" + topo + "/n=" + std::to_string(n),
                 {{"k", k}, {"n", n}}, new_lambda_ns);
    }
  }

  // --- E24b: certificate ablation -------------------------------------
  // Same capped pair probes (same flow engine both times); the only
  // difference is whether they run on the NI certificate or on the full
  // graph.  Uses a denser G(n, m) so the certificate has fat to trim.
  std::cout << "\nE24b: certificate ablation, capped pair probes on "
               "G(n, 16n) vs its NI certificate\n";
  bench::Table abl({"n", "m_full", "m_cert", "full_ms", "cert_ms", "speedup"},
                   12);
  abl.print_header();
  {
    const std::int64_t n = opts.small ? 512 : 4096;
    core::Rng rng(20260809);
    const Graph dense = core::random_gnm(
        static_cast<NodeId>(n), static_cast<std::int64_t>(16) * n, rng);
    const std::int32_t probes = opts.small ? 64 : 256;
    const auto run_probes = [&](const Graph& host) {
      core::ConnectivityProber prober(host);
      core::Rng pair_rng(7);
      std::int64_t acc = 0;
      for (std::int32_t i = 0; i < probes; ++i) {
        const auto s = static_cast<NodeId>(
            pair_rng.next_below(static_cast<std::uint64_t>(n)));
        const auto t = static_cast<NodeId>(
            pair_rng.next_below(static_cast<std::uint64_t>(n)));
        if (s == t) continue;
        acc += prober.vertex_probe(s, t, k + 1);
        acc += prober.edge_probe(s, t, k + 1);
      }
      return acc;
    };
    const bench::WallTimer cert_build_timer;
    const Graph cert = core::sparse_certificate(dense, k + 1);
    const std::int64_t cert_build_ns = cert_build_timer.elapsed_ns();
    report.add("cert_build/n=" + std::to_string(n),
               {{"k", k}, {"n", n}, {"m_cert", cert.num_edges()}},
               cert_build_ns);

    const bench::WallTimer full_timer;
    const std::int64_t full_acc = run_probes(dense);
    const std::int64_t full_ns = full_timer.elapsed_ns();
    const bench::WallTimer cert_timer;
    const std::int64_t cert_acc = run_probes(cert);
    const std::int64_t cert_ns = cert_timer.elapsed_ns();
    LHG_CHECK(full_acc == cert_acc,
              "certificate changed capped probe answers: {} vs {}", full_acc,
              cert_acc);
    abl.print_row(n, dense.num_edges(), cert.num_edges(), ms(full_ns),
                  ms(cert_ns + cert_build_ns),
                  static_cast<double>(full_ns) /
                      static_cast<double>(std::max<std::int64_t>(
                          cert_ns + cert_build_ns, 1)));
    report.add("probes_nocert/n=" + std::to_string(n),
               {{"k", k}, {"n", n}, {"probes", probes}}, full_ns);
    report.add("probes_cert/n=" + std::to_string(n),
               {{"k", k}, {"n", n}, {"probes", probes}}, cert_ns);
  }

  // --- E24c: implicit-view verification at scale ----------------------
  // The certificate scan runs storage-free over lhg::ImplicitLhg — the
  // full graph is never materialized — then sampled pairs are probed on
  // the ≤ (k+1)·n-edge certificate.  Peak RSS rides on every row; CI
  // gates the n=10^5 rows via bench/memory_budget.json.
  std::cout << "\nE24c: implicit-view verification at scale (k=" << k
            << ", peak RSS per row)\n";
  bench::Table imp({"n", "phase", "ms", "peak_rss_mb", "detail"}, 16);
  imp.print_header();
  const auto imp_sizes = opts.small
                             ? std::vector<std::int64_t>{100'000}
                             : std::vector<std::int64_t>{100'000, 1'000'000};
  for (const std::int64_t n : imp_sizes) {
    const ImplicitLhg view(n, k);

    const bench::WallTimer cert_timer;
    const Graph cert = core::sparse_certificate(view, k + 1);
    const std::int64_t cert_ns = cert_timer.elapsed_ns();
    imp.print_row(n, "cert_implicit", ms(cert_ns),
                  mb(bench::BenchReport::peak_rss_bytes()),
                  "m=" + std::to_string(cert.num_edges()));
    report.add("verify_implicit_cert/k=" + std::to_string(k) +
                   "/n=" + std::to_string(n),
               {{"k", k}, {"n", n}, {"m_cert", cert.num_edges()}}, cert_ns);

    // Sampled capped pair probes: every κ(s,t) and λ(s,t) must be >= k
    // in a k-connected overlay; the certificate preserves that up to
    // the k+1 cap.
    const std::int32_t samples = opts.small ? 16 : 32;
    core::Rng rng(23);
    core::ConnectivityProber prober(cert);
    const bench::WallTimer probe_timer;
    std::int32_t min_kappa = INT32_MAX;
    std::int32_t min_lambda = INT32_MAX;
    for (std::int32_t i = 0; i < samples; ++i) {
      const auto s = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (s == t) continue;
      min_kappa = std::min(min_kappa, prober.vertex_probe(s, t, k + 1));
      min_lambda = std::min(min_lambda, prober.edge_probe(s, t, k + 1));
    }
    const std::int64_t probe_ns = probe_timer.elapsed_ns();
    LHG_CHECK(min_kappa >= k && min_lambda >= k,
              "sampled connectivity below k at n={}: kappa {} lambda {}", n,
              min_kappa, min_lambda);
    imp.print_row(n, "probes_sampled", ms(probe_ns),
                  mb(bench::BenchReport::peak_rss_bytes()),
                  "pairs=" + std::to_string(samples) +
                      " min_kappa=" + std::to_string(min_kappa));
    report.add("verify_implicit_probes/k=" + std::to_string(k) +
                   "/n=" + std::to_string(n),
               {{"k", k}, {"n", n}, {"samples", samples}}, probe_ns);
  }

  // --- E24d: exact κ and λ at scale -----------------------------------
  // The whole question, not sampled pairs: is_k_vertex_connected and
  // edge_connectivity(g, k+1) run Even's ordered tests on the
  // certificate (one local fan search per vertex), on the LHG and on the
  // circulant H(4, n), whose every pair probe in E24a's old column has
  // to wrap half the ring.
  std::cout << "\nE24d: exact kappa >= k and lambda capped at k+1 by "
               "ordered fans (k=" << k << ", peak RSS per row)\n";
  bench::Table exact(
      {"topo", "n", "quantity", "result", "ms", "peak_rss_mb"}, 12);
  exact.print_header();
  const auto exact_sizes =
      opts.small ? std::vector<std::int64_t>{10'000}
                 : std::vector<std::int64_t>{10'000, 100'000, 1'000'000};
  for (const std::string& topo : {std::string("lhg"), std::string("harary")}) {
    for (const std::int64_t n : exact_sizes) {
      const Graph g = topo == "lhg"
                          ? lhg::build(static_cast<NodeId>(n), k)
                          : harary::circulant(static_cast<NodeId>(n), k);
      const std::string row = "/topo=" + topo + "/n=" + std::to_string(n);
      const bench::WallTimer kappa_timer;
      const bool connected = core::is_k_vertex_connected(g, k);
      const std::int64_t kappa_ns = kappa_timer.elapsed_ns();
      LHG_CHECK(connected, "{} at n={} is not {}-connected", topo, n, k);
      exact.print_row(topo, n, "kappa>=k", "yes", ms(kappa_ns),
                      mb(bench::BenchReport::peak_rss_bytes()));
      report.add("verify_exact/kappa" + row, {{"k", k}, {"n", n}}, kappa_ns);

      const bench::WallTimer lambda_timer;
      const std::int32_t lambda = core::edge_connectivity(g, k + 1);
      const std::int64_t lambda_ns = lambda_timer.elapsed_ns();
      LHG_CHECK(lambda == k, "{} at n={} has lambda {}, not {}", topo, n,
                lambda, k);
      exact.print_row(topo, n, "lambda", lambda, ms(lambda_ns),
                      mb(bench::BenchReport::peak_rss_bytes()));
      report.add("verify_exact/lambda" + row, {{"k", k}, {"n", n}},
                 lambda_ns);
    }
  }

  std::cout << "\nshape check: the speedup grows with n on both topologies "
               "(>= 10x at n >= 2048): the old column's pair probes are "
               "path-length-bound on the circulant, while a fan only has "
               "to reach the nearest earlier vertices; implicit rows never "
               "materialize the full graph, so their peak RSS stays within "
               "bench/memory_budget.json.\n";
  return opts.finish(report);
}
