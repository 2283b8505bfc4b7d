// E25 — sharded deterministic flood: parity and scaling.
//
// Claim: flooding::ShardedSimulator (shard_sim.h) runs one large flood
// partitioned over S time queues on core::parallel lanes,
// bit-identical to the single-queue engine, and >= 3x faster at S=8 on
// an 8-way host for the n=65536 LHG(k=4) flood.
//
// Per n (65536; the full run adds 10^6), against the storage-free
// ImplicitLhg view:
//   flood_single   the single-queue engine (`flood`, cfg.shards = 1)
//   flood_sharded  the sharded engine (`sharded_flood`) at S in {1, 4, 8}
//
// Every row is the median of 5 timed floods, after one untimed warm-up
// flood of the same engine in this process, so first-touch set-up
// (page faults, segment pool growth) is not what a row measures.
//
// The S=1 row runs the sharded engine on one shard, so its ratio to
// flood_single is the engine's own overhead, printed after each n.
// Each sharded row also reports the partition it timed — the view's
// own `shard_owners(S)`, which sharded_flood uses: the share of arcs
// whose endpoints sit on different shards, and the largest shard's
// node count over the mean.
//
// Every sharded run, warm-up included, is compared field-for-field
// against the
// single-queue result — delivery vectors, message/event counts and
// NetworkStats must be bit-equal (fixed latency, no chaos; DESIGN.md
// §17).  The comparison is a hard LHG_CHECK: a wrong sharded engine
// must fail the CI job here, not publish wrong timings.  The >= 3x
// speedup check arms only on hosts with >= 8 hardware threads AND
// LHG_THREADS >= 8 — below that, S=8 lanes measure oversubscription,
// not the engine.
//
// Every row carries peak_rss_bytes; CI gates the --small rows against
// bench/memory_budget.json, so a sharded engine that quietly clones
// per-shard copies of shared network state blows the cap even when
// wall time stays green.

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "flooding/flood_generic.h"
#include "lhg/implicit.h"
#include "report.h"
#include "table.h"

namespace {

using lhg::flooding::DisseminationResult;

double mb(std::int64_t bytes) {
  return bytes < 0 ? 0.0 : static_cast<double>(bytes) / 1e6;
}

double mev_per_s(std::int64_t events, std::int64_t wall_ns) {
  return wall_ns <= 0 ? 0.0
                      : static_cast<double>(events) * 1e3 /
                            static_cast<double>(wall_ns);
}

/// Field-for-field equality of a sharded run against the single-queue
/// reference.  Chaos-free fixed-latency floods are specified bit-equal
/// (shard_net.h), so any divergence is an engine bug.
void check_parity(const DisseminationResult& single,
                  const DisseminationResult& sharded, std::int64_t n,
                  std::int32_t shards) {
  LHG_CHECK(single.delivery_time == sharded.delivery_time &&
                single.delivery_hops == sharded.delivery_hops,
            "sharded flood delivery vectors diverge at n={} S={}", n, shards);
  LHG_CHECK(single.messages_sent == sharded.messages_sent &&
                single.events_processed == sharded.events_processed,
            "sharded flood event counts diverge at n={} S={}: "
            "msgs {} vs {}, events {} vs {}",
            n, shards, single.messages_sent, sharded.messages_sent,
            single.events_processed, sharded.events_processed);
  LHG_CHECK(single.completion_time == sharded.completion_time &&
                single.completion_hops == sharded.completion_hops &&
                single.alive_nodes == sharded.alive_nodes &&
                single.delivered_alive == sharded.delivered_alive,
            "sharded flood completion diverges at n={} S={}", n, shards);
  LHG_CHECK(
      single.net.sent == sharded.net.sent &&
          single.net.delivered == sharded.net.delivered &&
          single.net.lost == sharded.net.lost &&
          single.net.duplicated == sharded.net.duplicated &&
          single.net.blocked_sender_crashed ==
              sharded.net.blocked_sender_crashed &&
          single.net.blocked_link_down == sharded.net.blocked_link_down &&
          single.net.blocked_partition == sharded.net.blocked_partition &&
          single.net.dropped_receiver_crashed ==
              sharded.net.dropped_receiver_crashed &&
          single.net.dropped_link_down == sharded.net.dropped_link_down &&
          single.net.dropped_partition == sharded.net.dropped_partition,
      "sharded flood NetworkStats diverge at n={} S={}", n, shards);
}

/// What a partition costs the engine: the share of arcs that cross
/// shards (each a message through the barrier exchange) and the
/// largest shard over the mean (the slowest lane's extra share).
struct PartitionShape {
  double cross_arc_share;
  double largest_over_mean;
};

PartitionShape partition_shape(const lhg::ImplicitLhg& view,
                               std::int32_t shards) {
  const std::vector<std::int32_t> owner = view.shard_owners(shards);
  std::vector<std::int64_t> load(static_cast<std::size_t>(shards), 0);
  std::int64_t cross = 0;
  for (lhg::core::NodeId u = 0; u < view.num_nodes(); ++u) {
    const std::int32_t su = owner[static_cast<std::size_t>(u)];
    ++load[static_cast<std::size_t>(su)];
    for (std::int32_t i = 0; i < view.degree(u); ++i) {
      if (owner[static_cast<std::size_t>(view.neighbor(u, i))] != su) ++cross;
    }
  }
  const double mean =
      static_cast<double>(view.num_nodes()) / static_cast<double>(shards);
  return {static_cast<double>(cross) / static_cast<double>(view.num_arcs()),
          static_cast<double>(*std::max_element(load.begin(), load.end())) /
              mean};
}

constexpr int kTimedFloods = 5;

/// Median wall time of kTimedFloods calls of `run`; `check` sees every
/// result.  Callers run one untimed warm-up flood first.
template <typename Run, typename Check>
std::int64_t median_flood_ns(const Run& run, const Check& check) {
  std::vector<std::int64_t> ns;
  for (int i = 0; i < kTimedFloods; ++i) {
    const lhg::bench::WallTimer timer;
    const DisseminationResult result = run();
    ns.push_back(timer.elapsed_ns());
    check(result);
  }
  std::sort(ns.begin(), ns.end());
  return ns[kTimedFloods / 2];
}

std::string fixed2(double value) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_shard");

  constexpr std::int32_t k = 4;
  const std::int32_t shard_counts[] = {1, 4, 8};
  const bool speedup_armed =
      std::thread::hardware_concurrency() >= 8 &&
      core::global_thread_count() >= 8;

  std::cout << "E25: sharded vs single-queue flood over ImplicitLhg (k=" << k
            << ", fixed latency, hard parity check per row)  [threads="
            << core::global_thread_count()
            << ", speedup gate " << (speedup_armed ? "armed" : "off") << "]\n";
  bench::Table table({"n", "engine", "shards", "ms", "Mev/s", "peak_rss_mb",
                      "speedup", "cross_arc_%", "max/mean"},
                     13);
  table.print_header();

  std::vector<std::int64_t> sizes = {65'536};
  if (!opts.small) sizes.push_back(1'000'000);

  for (const std::int64_t n : sizes) {
    const ImplicitLhg view(n, k);
    flooding::FloodConfig cfg;
    cfg.source = 0;
    cfg.seed = 25;

    // The reference result doubles as the single engine's warm-up.
    const auto single = flooding::flood(view, cfg);
    LHG_CHECK(single.all_alive_delivered(),
              "single-queue flood missed nodes at n={}", n);
    const std::int64_t single_ns = median_flood_ns(
        [&] { return flooding::flood(view, cfg); },
        [&](const DisseminationResult& result) {
          LHG_CHECK(result.all_alive_delivered(),
                    "single-queue flood missed nodes at n={}", n);
        });
    table.print_row(n, "single", 1, static_cast<double>(single_ns) / 1e6,
                    mev_per_s(single.events_processed, single_ns),
                    mb(bench::BenchReport::peak_rss_bytes()), "1.00", "-",
                    "-");
    report.add("flood_single/k=" + std::to_string(k) +
                   "/n=" + std::to_string(n),
               {{"k", k},
                {"n", n},
                {"messages", single.messages_sent},
                {"events", single.events_processed}},
               single_ns);

    std::int64_t s1_ns = -1;
    std::int64_t s8_ns = -1;
    for (const std::int32_t shards : shard_counts) {
      cfg.shards = shards;
      const auto run = [&] { return flooding::sharded_flood(view, cfg); };
      const auto check = [&](const DisseminationResult& result) {
        check_parity(single, result, n, shards);
      };
      check(run());  // untimed warm-up
      const std::int64_t wall_ns = median_flood_ns(run, check);
      if (shards == 1) s1_ns = wall_ns;
      if (shards == 8) s8_ns = wall_ns;
      const double speedup =
          static_cast<double>(single_ns) / static_cast<double>(wall_ns);
      const PartitionShape shape = partition_shape(view, shards);
      table.print_row(n, "sharded", shards,
                      static_cast<double>(wall_ns) / 1e6,
                      mev_per_s(single.events_processed, wall_ns),
                      mb(bench::BenchReport::peak_rss_bytes()), fixed2(speedup),
                      fixed2(100.0 * shape.cross_arc_share),
                      fixed2(shape.largest_over_mean));
      report.add("flood_sharded/k=" + std::to_string(k) +
                     "/n=" + std::to_string(n) + "/s=" + std::to_string(shards),
                 {{"k", k},
                  {"n", n},
                  {"shards", shards},
                  {"messages", single.messages_sent},
                  {"events", single.events_processed},
                  {"cross_arc_share", shape.cross_arc_share},
                  {"largest_shard_over_mean", shape.largest_over_mean}},
                 wall_ns);
    }

    std::cout << "  n=" << n << ": sharded S=1 / single = "
              << fixed2(static_cast<double>(s1_ns) /
                        static_cast<double>(single_ns))
              << "x (one-engine target: <= 1.20x)\n";

    // The acceptance gate: >= 3x at S=8 on the n=65536 flood, armed
    // only where 8 lanes have 8 hardware threads to land on.
    if (speedup_armed && n == 65'536) {
      LHG_CHECK(s8_ns > 0 && single_ns >= 3 * s8_ns,
                "sharded flood at S=8 is not >=3x the single queue at "
                "n={}: {} ns vs {} ns",
                n, s8_ns, single_ns);
    }
  }

  std::cout << "\nshape check: sharded rows match the single-queue row "
               "bit-for-bit (enforced above); Mev/s scales with lanes "
               "until cross-shard exchange dominates.\n";
  return opts.finish(report);
}
