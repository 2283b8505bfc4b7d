#include "flooding/failure.h"

#include <algorithm>

#include "core/bfs.h"
#include "core/check.h"
#include "core/connectivity.h"
#include "flooding/event_sim.h"
#include "flooding/network.h"

namespace lhg::flooding {

using core::NodeId;

void compose(FailurePlan& plan, const FailurePlan& extra) {
  plan.crashes.insert(plan.crashes.end(), extra.crashes.begin(),
                      extra.crashes.end());
  plan.link_failures.insert(plan.link_failures.end(),
                            extra.link_failures.begin(),
                            extra.link_failures.end());
  plan.recoveries.insert(plan.recoveries.end(), extra.recoveries.begin(),
                         extra.recoveries.end());
  plan.flaps.insert(plan.flaps.end(), extra.flaps.begin(), extra.flaps.end());
  plan.partitions.insert(plan.partitions.end(), extra.partitions.begin(),
                         extra.partitions.end());
}

std::vector<std::uint8_t> crashed_at_end(const FailurePlan& plan,
                                         NodeId num_nodes) {
  // Runs the node entries on an edgeless network, so the rule has one
  // implementation: apply_failure_plan's.
  const core::Graph nodes =
      core::Graph::from_edges(num_nodes, std::vector<core::Edge>{});
  Simulator sim;
  core::Rng rng(0);  // fixed latency: never drawn from
  Network net(nodes, sim, LatencySpec::fixed(1.0), rng);
  FailurePlan node_entries;
  node_entries.crashes = plan.crashes;
  node_entries.recoveries = plan.recoveries;
  apply_failure_plan(net, node_entries);
  sim.run();
  std::vector<std::uint8_t> down(static_cast<std::size_t>(num_nodes), 0);
  for (NodeId u = 0; u < num_nodes; ++u) {
    down[static_cast<std::size_t>(u)] = net.is_alive(u) ? 0 : 1;
  }
  return down;
}

FailurePlan random_crashes(const core::Graph& g, std::int32_t count,
                           NodeId protect, core::Rng& rng, double time) {
  LHG_CHECK(count >= 0 && count <= g.num_nodes() - 1,
            "random_crashes: count {} out of range for n={}", count,
            g.num_nodes());
  FailurePlan plan;
  // Sample from n-1 slots (all ids except `protect`), then shift.
  const auto picks = rng.sample_without_replacement(g.num_nodes() - 1, count);
  for (NodeId p : picks) {
    plan.crashes.push_back({p >= protect ? p + 1 : p, time});
  }
  return plan;
}

FailurePlan targeted_crashes(const core::Graph& g, std::int32_t count,
                             NodeId protect, double time) {
  LHG_CHECK(count >= 0 && count <= g.num_nodes() - 1,
            "targeted_crashes: count {} out of range for n={}", count,
            g.num_nodes());
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) order[static_cast<std::size_t>(u)] = u;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  FailurePlan plan;
  for (NodeId u : order) {
    if (static_cast<std::int32_t>(plan.crashes.size()) == count) break;
    if (u != protect) plan.crashes.push_back({u, time});
  }
  return plan;
}

FailurePlan cut_targeted_crashes(const core::Graph& g, std::int32_t count,
                                 NodeId protect, core::Rng& rng, double time) {
  LHG_CHECK(count >= 0 && count <= g.num_nodes() - 1,
            "cut_targeted_crashes: count {} out of range for n={}", count,
            g.num_nodes());
  FailurePlan plan;
  std::vector<bool> chosen(static_cast<std::size_t>(g.num_nodes()), false);
  chosen[static_cast<std::size_t>(protect)] = true;  // never crash source
  const auto cut = core::minimum_vertex_cut(g);
  if (cut.has_value()) {
    for (NodeId u : *cut) {
      if (static_cast<std::int32_t>(plan.crashes.size()) == count) break;
      if (!chosen[static_cast<std::size_t>(u)]) {
        chosen[static_cast<std::size_t>(u)] = true;
        plan.crashes.push_back({u, time});
      }
    }
  }
  while (static_cast<std::int32_t>(plan.crashes.size()) < count) {
    const auto u = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    if (!chosen[static_cast<std::size_t>(u)]) {
      chosen[static_cast<std::size_t>(u)] = true;
      plan.crashes.push_back({u, time});
    }
  }
  return plan;
}

FailurePlan random_link_failures(const core::Graph& g, std::int32_t count,
                                 core::Rng& rng, double time) {
  const auto edges = g.edges();
  LHG_CHECK(count >= 0 && count <= static_cast<std::int32_t>(edges.size()),
            "random_link_failures: count {} out of range for m={}", count,
            edges.size());
  FailurePlan plan;
  const auto picks = rng.sample_without_replacement(
      static_cast<std::int32_t>(edges.size()), count);
  for (auto idx : picks) {
    plan.link_failures.push_back({edges[static_cast<std::size_t>(idx)], time});
  }
  return plan;
}

FailurePlan random_crash_recoveries(const core::Graph& g, std::int32_t count,
                                    NodeId protect, core::Rng& rng,
                                    double crash_time, double downtime) {
  LHG_CHECK(downtime > 0.0, "random_crash_recoveries: downtime {} must be > 0",
            downtime);
  FailurePlan plan = random_crashes(g, count, protect, rng, crash_time);
  for (const NodeCrash& crash : plan.crashes) {
    plan.recoveries.push_back({crash.node, crash.time + downtime});
  }
  return plan;
}

FailurePlan random_link_flaps(const core::Graph& g, std::int32_t count,
                              core::Rng& rng, double down, double up) {
  LHG_CHECK(down < up, "random_link_flaps: empty window [{}, {})", down, up);
  const auto edges = g.edges();
  LHG_CHECK(count >= 0 && count <= static_cast<std::int32_t>(edges.size()),
            "random_link_flaps: count {} out of range for m={}", count,
            edges.size());
  FailurePlan plan;
  const auto picks = rng.sample_without_replacement(
      static_cast<std::int32_t>(edges.size()), count);
  for (auto idx : picks) {
    plan.flaps.push_back({edges[static_cast<std::size_t>(idx)], down, up});
  }
  return plan;
}

FailurePlan random_partition(const core::Graph& g, core::Rng& rng,
                             double start, double end, double fraction) {
  LHG_CHECK(start < end, "random_partition: empty window [{}, {})", start,
            end);
  LHG_CHECK(fraction > 0.0 && fraction < 1.0,
            "random_partition: fraction {} must be in (0, 1)", fraction);
  PartitionWindow window;
  window.start = start;
  window.end = end;
  window.side.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  // Pin node 0 to side 0 so neither side can be empty by construction
  // alone; side 1 may still come out empty on tiny graphs (harmless —
  // the cut then severs nothing).
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    window.side[static_cast<std::size_t>(u)] =
        rng.next_bool(fraction) ? 1 : 0;
  }
  FailurePlan plan;
  plan.partitions.push_back(std::move(window));
  return plan;
}

FailurePlan cut_partition(const core::Graph& g, core::Rng& rng, double start,
                          double end) {
  LHG_CHECK(start < end, "cut_partition: empty window [{}, {})", start, end);
  const auto cut = core::minimum_vertex_cut(g);
  if (!cut.has_value()) return random_partition(g, rng, start, end);

  // Remove the cut; the remainder splits into >= 2 components.  Side 1
  // is the component of the lowest-id survivor plus the cut itself, so
  // the partition severs exactly the trunk the cut witnesses.
  std::vector<NodeId> removed(cut->begin(), cut->end());
  std::vector<NodeId> mapping;
  const core::Graph rest = g.induced_without(removed, &mapping);
  PartitionWindow window;
  window.start = start;
  window.end = end;
  window.side.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId u : *cut) window.side[static_cast<std::size_t>(u)] = 1;
  if (rest.num_nodes() > 0) {
    const auto dist = core::bfs_distances(rest, 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeId m = mapping[static_cast<std::size_t>(u)];
      if (m >= 0 && dist[static_cast<std::size_t>(m)] != core::kUnreachable) {
        window.side[static_cast<std::size_t>(u)] = 1;
      }
    }
  }
  FailurePlan plan;
  plan.partitions.push_back(std::move(window));
  return plan;
}

FailurePlan adversarial_chaos(const core::Graph& g, std::int32_t count,
                              NodeId protect, core::Rng& rng,
                              double crash_time, double partition_start,
                              double partition_end) {
  FailurePlan plan = cut_targeted_crashes(g, count, protect, rng, crash_time);
  compose(plan, cut_partition(g, rng, partition_start, partition_end));
  return plan;
}

}  // namespace lhg::flooding
