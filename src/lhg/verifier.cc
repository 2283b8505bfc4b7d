#include "lhg/verifier.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/check.h"
#include "core/connectivity.h"
#include "core/diameter.h"
#include "core/format.h"

namespace lhg {

namespace {

/// Does removing `e` lower node or link connectivity below the graph's
/// current values?  Cheap form: it suffices to check connectivity
/// *through the endpoints of e*, because any cut created by deleting e
/// must separate e's endpoints.
bool removal_reduces_connectivity(const core::Graph& g, core::Edge e,
                                  std::int32_t kappa, std::int32_t lambda) {
  const core::Graph without = g.without_edge(e.u, e.v);
  // λ(G−e) < λ(G) iff λ_{G−e}(u,v) < λ(G); likewise for κ with the
  // vertex version (Menger, local form).
  if (core::local_edge_connectivity(without, e.u, e.v, lambda) < lambda) {
    return true;
  }
  return core::local_vertex_connectivity(without, e.u, e.v, kappa) < kappa;
}

}  // namespace

VerificationReport verify(const core::Graph& g, std::int32_t k,
                          const VerifyOptions& options) {
  LHG_CHECK(k >= 1, "verify: k must be >= 1, got {}", k);
  LHG_CHECK(g.num_nodes() > 0, "verify: empty graph");

  VerificationReport report;
  report.k = k;
  report.n = g.num_nodes();
  report.edges = g.num_edges();
  report.min_degree = g.min_degree();
  report.max_degree = g.max_degree();
  report.k_regular = g.is_regular(k);

  // P1 / P2: exact connectivities (capped at k+1 — the exact value above
  // k+1 never matters for any property here, and the cap keeps the
  // verifier O(k·m) per flow instead of O(δ·m)).
  report.node_connectivity = core::vertex_connectivity(g, k + 1);
  report.edge_connectivity = core::edge_connectivity(g, k + 1);
  report.p1_node_connected = report.node_connectivity >= k;
  report.p2_link_connected = report.edge_connectivity >= k;

  // P3: link minimality, relative to the graph's own (capped)
  // connectivity values.
  const auto kappa = report.node_connectivity;
  const auto lambda = report.edge_connectivity;
  if (kappa > 0 && lambda > 0) {
    const auto all = g.edges();
    std::vector<core::Edge> chosen;
    if (options.minimality_sample > 0 &&
        options.minimality_sample < static_cast<std::int64_t>(all.size())) {
      core::Rng rng(options.seed);
      const auto picks = rng.sample_without_replacement(
          static_cast<std::int32_t>(all.size()),
          static_cast<std::int32_t>(options.minimality_sample));
      for (auto idx : picks) chosen.push_back(all[static_cast<std::size_t>(idx)]);
    } else {
      chosen.assign(all.begin(), all.end());
    }
    for (core::Edge e : chosen) {
      ++report.minimality_checked_edges;
      // An endpoint of degree λ (λ <= δ, so it cannot be lower) falls
      // to degree λ-1 without e, and so does λ: e is critical without
      // a flow.  Only edges whose endpoints both exceed λ run flows.
      if (std::min(g.degree(e.u), g.degree(e.v)) <= lambda) continue;
      if (!removal_reduces_connectivity(g, e, kappa, lambda)) {
        ++report.minimality_violations;
        if (!report.p3_witness.has_value()) report.p3_witness = e;
      }
    }
    report.p3_link_minimal = report.minimality_violations == 0;
  }

  // P4: diameter vs. c·log2(n) + 2.
  report.diameter = core::diameter(g);
  report.log2_n = std::log2(static_cast<double>(g.num_nodes()));
  report.p4_log_diameter =
      report.diameter <=
      options.log_diameter_constant * report.log2_n + 2.0;

  return report;
}

std::string to_string(const VerificationReport& r) {
  std::ostringstream out;
  out << core::format("LHG verification (n={}, m={}, k={})\n", r.n, r.edges,
                      r.k);
  out << core::format("  P1 node connectivity : kappa={} (need >= {})  [{}]\n",
                      r.node_connectivity, r.k,
                      r.p1_node_connected ? "ok" : "FAIL");
  out << core::format("  P2 link connectivity : lambda={} (need >= {})  [{}]\n",
                      r.edge_connectivity, r.k,
                      r.p2_link_connected ? "ok" : "FAIL");
  out << core::format("  P3 link minimality   : {}/{} edges reduce connectivity  [{}]\n",
                      r.minimality_checked_edges - r.minimality_violations,
                      r.minimality_checked_edges,
                      r.p3_link_minimal ? "ok" : "FAIL");
  if (r.p3_witness.has_value()) {
    out << core::format("     witness non-critical edge: ({}, {})\n",
                        r.p3_witness->u, r.p3_witness->v);
  }
  out << core::format(
      "  P4 log diameter      : diameter={} vs log2(n)={:.2f}  [{}]\n",
      r.diameter, r.log2_n, r.p4_log_diameter ? "ok" : "FAIL");
  out << core::format("  P5 regularity        : degrees {}..{}  [{}]\n",
                      r.min_degree, r.max_degree,
                      r.k_regular ? "k-regular" : "not k-regular");
  out << core::format("  verdict              : {}\n",
                      r.is_lhg() ? "LHG" : "NOT an LHG");
  return out.str();
}

}  // namespace lhg
