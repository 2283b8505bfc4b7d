// E22 — long-horizon reliable-traffic soak over an LHG under bursty
// loss, fully instrumented.
//
// The workload that motivated the sliding dedup window: a handful of
// sources stream one DATA frame per tick to a fixed overlay neighbor
// for the whole horizon, so each streaming arc carries `ticks`
// sequence numbers — far past the seed's 1024-seq/arc abort and (at
// the full horizon of 10^5 ticks) past the entire 16-bit sequence
// space, exercising wraparound under load.  Loss is a Gilbert–Elliott
// bursty channel, the regime where retransmit storms cluster and the
// in-flight span actually stretches.
//
// Reported per row: exactly-once delivery accounting, retransmit and
// duplicate totals, frame-latency quantiles (send tick -> deliver, via
// an obs histogram), and event-engine throughput.  The JSON entry
// embeds the full metrics snapshot; `--trace` exports the tail of the
// run as Chrome trace_event JSON (ring capacity 2^16, oldest events
// overwritten by design — scripts/trace_check.py validates the file).

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "flooding/network.h"
#include "flooding/reliable_link.h"
#include "lhg/lhg.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "report.h"
#include "table.h"

int main(int argc, char** argv) {
  using namespace lhg;
  using core::NodeId;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_soak");

  const NodeId n = opts.small ? 128 : 512;
  const std::int32_t k = 4;
  const std::int64_t ticks = opts.small ? 6000 : 100000;
  const std::int32_t sources = opts.small ? 4 : 8;

  std::cout << "E22: reliable-stream soak on LHG(" << n << "," << k << "), "
            << sources << " sources x " << ticks
            << " ticks, Gilbert-Elliott bursty loss\n";
  bench::Table table({"frames", "delivered", "retx", "dups", "overflow",
                      "p50_lat", "p99_lat", "Mev/s"},
                     11);
  table.print_header();

  const auto g = build(n, k);
  flooding::Simulator sim;
  core::Rng rng(20250807);
  // Bad states strike ~1/6 of the time and last ~4 ticks; frames sent
  // into one lose 60% of copies — clustered losses, ~10% overall.
  flooding::Network net(g, sim, flooding::LatencySpec::fixed(1.0), rng,
                        flooding::ChaosSpec::bursty(0.05, 0.25, 0.6));
  // Retry period 3.0 > the 2-tick RTT, so a retry never races the ACK
  // of a successful first copy; retransmits then measure loss, not the
  // timer granularity.
  flooding::ReliableLink link(net, flooding::BackoffPolicy::fixed(3.0, 30));

  obs::Runtime obs_rt(obs::ObsConfig{true, true, 1 << 16});
  sim.set_obs(obs_rt.obs());
  net.set_obs(obs_rt.obs());
  link.set_obs(obs_rt.obs());

  // Frame ids encode (source index, tick): payload = s * ticks + t.
  // The deliver handler recovers the send tick from the id, so frame
  // latency needs no per-frame side table.
  obs::Registry driver_reg;
  const obs::HistogramId frame_latency =
      driver_reg.histogram("soak.frame_latency_milliticks");
  const std::int64_t total_frames =
      static_cast<std::int64_t>(sources) * ticks;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(total_frames), 0);
  std::int64_t delivered = 0;
  std::int64_t duplicate_frames = 0;
  link.set_deliver_handler([&](NodeId, NodeId, std::int64_t payload) {
    auto& mark = seen[static_cast<std::size_t>(payload)];
    if (mark != 0) {
      ++duplicate_frames;  // must stay 0: the dedup window's contract
      return;
    }
    mark = 1;
    ++delivered;
    const auto sent_at = static_cast<double>(payload % ticks);
    driver_reg.observe(frame_latency,
                       obs::SimObs::milli_ticks(sim.now() - sent_at));
  });

  const bench::WallTimer timer;
  // Each stream re-arms its own next send (the constant-footprint
  // discipline from heartbeat/repair) instead of pre-scheduling
  // sources x ticks events up front.
  std::function<void(std::int32_t, NodeId, NodeId, std::int64_t)> stream =
      [&](std::int32_t s, NodeId u, NodeId v, std::int64_t t) {
        link.send(u, v, static_cast<std::int64_t>(s) * ticks + t);
        if (t + 1 < ticks) {
          sim.schedule_at(static_cast<double>(t + 1),
                          [&stream, s, u, v, t] { stream(s, u, v, t + 1); });
        }
      };
  for (std::int32_t s = 0; s < sources; ++s) {
    // Source s streams to its first overlay neighbor; sources are
    // spread across the id space so streams don't share arcs.
    const NodeId u = static_cast<NodeId>(s) * (n / sources);
    const NodeId v = g.neighbors(u)[0];
    sim.schedule_at(0.0, [&stream, s, u, v] { stream(s, u, v, 0); });
  }
  sim.run();
  const std::int64_t wall_ns = timer.elapsed_ns();

  const obs::Snapshot sim_metrics = obs_rt.metrics_snapshot();
  const obs::Snapshot driver_metrics = driver_reg.snapshot();
  const obs::MetricSample* lat = driver_metrics.find(
      "soak.frame_latency_milliticks");
  const double mev_per_s = 1e3 * static_cast<double>(sim.events_processed()) /
                           static_cast<double>(wall_ns);
  table.print_row(total_frames, delivered, link.retransmissions(),
                  duplicate_frames, link.window_overflows(),
                  lat->quantile_floor(0.5), lat->quantile_floor(0.99),
                  mev_per_s);

  report.add("soak/n=" + std::to_string(n) + "/k=" + std::to_string(k) +
                 "/sources=" + std::to_string(sources) +
                 "/ticks=" + std::to_string(ticks),
             {{"n", n},
              {"k", k},
              {"sources", sources},
              {"ticks", ticks},
              {"frames", total_frames},
              {"delivered", delivered},
              {"duplicate_frames", duplicate_frames},
              {"retransmits", link.retransmissions()},
              {"window_overflows", link.window_overflows()},
              {"p50_latency_milliticks", lat->quantile_floor(0.5)},
              {"p99_latency_milliticks", lat->quantile_floor(0.99)},
              {"events", sim.events_processed()}},
             wall_ns, sim_metrics.to_json());

  std::cout << "invariants: delivered == frames, dups == 0, overflow == 0 "
               "(in-flight span never approaches the 1024 window)\n";
  if (delivered != total_frames || duplicate_frames != 0 ||
      link.window_overflows() != 0) {
    std::cerr << "bench_soak: delivery invariant violated\n";
    return 1;
  }

  if (!opts.trace_path.empty()) {
    const obs::TraceLog trace = obs_rt.trace_log();
    if (!obs::write_chrome_trace(opts.trace_path, trace)) return 1;
    std::cout << "wrote " << trace.events.size() << " trace events (dropped "
              << trace.dropped << ") to " << opts.trace_path << '\n';
  }

  return opts.finish(report);
}
