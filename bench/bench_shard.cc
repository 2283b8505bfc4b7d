// E25 — sharded deterministic flood: parity and scaling.
//
// Claim: flooding::ShardedSimulator (shard_sim.h) runs one large flood
// partitioned over S time queues on core::parallel lanes,
// bit-identical to the single-queue engine, and >= 3x faster at S=8 on
// an 8-way host for the n=65536 LHG(k=4) flood.
//
// Per n (65536; the full run adds 10^6), against the storage-free
// ImplicitLhg view:
//   flood_single   the PR-3 single-queue engine (cfg.shards = 1)
//   flood_sharded  the sharded engine at S in {1, 4, 8}
//
// Every sharded run is compared field-for-field against the
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
#include <iostream>
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
  bench::Table table(
      {"n", "engine", "shards", "ms", "Mev/s", "peak_rss_mb", "speedup"}, 13);
  table.print_header();

  std::vector<std::int64_t> sizes = {65'536};
  if (!opts.small) sizes.push_back(1'000'000);

  for (const std::int64_t n : sizes) {
    const ImplicitLhg view(n, k);
    flooding::FloodConfig cfg;
    cfg.source = 0;
    cfg.seed = 25;

    const bench::WallTimer single_timer;
    const auto single = flooding::flood(view, cfg);
    const std::int64_t single_ns = single_timer.elapsed_ns();
    LHG_CHECK(single.all_alive_delivered(),
              "single-queue flood missed nodes at n={}", n);
    table.print_row(n, "single", 1, static_cast<double>(single_ns) / 1e6,
                    mev_per_s(single.events_processed, single_ns),
                    mb(bench::BenchReport::peak_rss_bytes()), "1.00");
    report.add("flood_single/k=" + std::to_string(k) +
                   "/n=" + std::to_string(n),
               {{"k", k},
                {"n", n},
                {"messages", single.messages_sent},
                {"events", single.events_processed}},
               single_ns);

    std::int64_t s8_ns = -1;
    for (const std::int32_t shards : shard_counts) {
      cfg.shards = shards;
      const bench::WallTimer timer;
      const auto sharded = flooding::flood(view, cfg);
      const std::int64_t wall_ns = timer.elapsed_ns();
      check_parity(single, sharded, n, shards);
      if (shards == 8) s8_ns = wall_ns;
      const double speedup =
          static_cast<double>(single_ns) / static_cast<double>(wall_ns);
      std::ostringstream sp;
      sp << std::fixed << std::setprecision(2) << speedup;
      table.print_row(n, "sharded", shards,
                      static_cast<double>(wall_ns) / 1e6,
                      mev_per_s(sharded.events_processed, wall_ns),
                      mb(bench::BenchReport::peak_rss_bytes()), sp.str());
      report.add("flood_sharded/k=" + std::to_string(k) +
                     "/n=" + std::to_string(n) + "/s=" + std::to_string(shards),
                 {{"k", k},
                  {"n", n},
                  {"shards", shards},
                  {"messages", sharded.messages_sent},
                  {"events", sharded.events_processed}},
                 wall_ns);
    }

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
