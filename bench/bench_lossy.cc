// E13 (extension) — dissemination on lossy links.
//
// Real deployments drop packets; the paper's fail-stop model is the
// clean abstraction.  This bench quantifies the gap: plain flooding vs
// ACK/retransmit reliable broadcast on the same LHG as per-transmission
// loss grows, measuring delivery, messages (incl. ACKs and retries) and
// completion time.
//
// Expected shape: plain flooding's delivery decays as loss grows (the
// redundancy of k disjoint paths shields it at low loss); reliable
// broadcast holds 1.00 delivery at ~2-4x message cost and latency that
// grows with the retransmit interval.
//
// Per-seed trials are independent and fan across core::parallel via
// flooding::TrialRunner; LHG_THREADS controls the lane count.

#include <algorithm>
#include <iostream>
#include <string>

#include "flooding/protocols.h"
#include "flooding/reliable_broadcast.h"
#include "flooding/trial_runner.h"
#include "lhg/lhg.h"
#include "report.h"
#include "table.h"

namespace {

struct Agg {
  double deliv = 0;
  double min_deliv = 1.0;
  int complete = 0;
  double msgs = 0;
  double time = 0;
  double net_lost = 0;
  double net_duplicated = 0;

  static Agg merge(Agg a, const Agg& b) {
    a.deliv += b.deliv;
    a.min_deliv = std::min(a.min_deliv, b.min_deliv);
    a.complete += b.complete;
    a.msgs += b.msgs;
    a.time += b.time;
    a.net_lost += b.net_lost;
    a.net_duplicated += b.net_duplicated;
    return a;
  }
};

Agg account(const lhg::flooding::ReliableBroadcastResult& result) {
  Agg one;
  one.deliv = result.delivery_ratio();
  one.min_deliv = result.delivery_ratio();
  one.complete = result.all_alive_delivered() ? 1 : 0;
  one.msgs = static_cast<double>(result.messages_sent);
  one.time = result.completion_time;
  one.net_lost = static_cast<double>(result.net.lost);
  one.net_duplicated = static_cast<double>(result.net.duplicated);
  return one;
}

/// Bursty adversary with the same stationary loss rate as the i.i.d.
/// rows (P(bad) = 0.25 here), plus duplication and reordering.
lhg::flooding::ChaosSpec burst_chaos(double loss) {
  auto chaos = lhg::flooding::ChaosSpec::bursty(
      /*good_to_bad=*/0.1, /*bad_to_good=*/0.3,
      /*loss_bad=*/std::min(4.0 * loss, 0.9));
  chaos.duplicate = 0.02;
  chaos.reorder = 0.1;
  chaos.reorder_jitter = 0.5;
  return chaos;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;
  using namespace lhg::flooding;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_lossy");

  const int trials = opts.small ? 12 : 30;
  const std::int32_t k = 3;
  const core::NodeId n = 244;
  const auto g = build(n, k);
  std::cout << "E13: loss sweep on a (" << n << ", " << k << ") LHG, "
            << trials << " seeds per row  [threads="
            << core::global_thread_count() << "]\n";
  bench::Table table({"loss", "protocol", "mean_deliv", "min_deliv",
                      "complete%", "msgs/node", "mean_time"},
                     12);
  table.print_header();

  for (const double loss : {0.0, 0.05, 0.1, 0.2, 0.3, 0.4}) {
    const TrialRunner runner{
        .seed = 5 + static_cast<std::uint64_t>(loss * 1000)};
    const auto sweep = [&](const char* proto, std::int32_t max_retries,
                           const ChaosSpec& chaos) {
      const bench::WallTimer timer;
      const Agg agg = runner.run<Agg>(
          trials, Agg{},
          [&](std::int64_t, core::Rng& rng) {
            // max_retries = 0 is plain flooding on the lossy wire;
            // the reliable machinery adds ACKs + retransmissions.
            return account(reliable_broadcast(
                g, {.source = 0,
                    .seed = rng(),
                    .chaos = chaos,
                    .backoff = BackoffPolicy::fixed(3.0, max_retries)}));
          },
          Agg::merge);
      const std::int64_t wall_ns = timer.elapsed_ns();
      report.add(std::string("lossy/proto=") + proto +
                     "/loss=" + std::to_string(static_cast<int>(loss * 100)),
                 {{"proto", proto},
                  {"loss", loss},
                  {"trials", trials},
                  {"complete", agg.complete},
                  {"net_lost", agg.net_lost / trials},
                  {"net_duplicated", agg.net_duplicated / trials}},
                 wall_ns);
      table.print_row(loss, proto, agg.deliv / trials, agg.min_deliv,
                      100.0 * agg.complete / trials, agg.msgs / trials / n,
                      agg.time / trials);
    };
    sweep("flood", 0, ChaosSpec::iid(loss));
    sweep("reliable", 8, ChaosSpec::iid(loss));
    // E20 row: same mean loss delivered in bursts, plus duplication and
    // reordering — the reliable layer must still close every trial.
    if (loss > 0.0) sweep("reliable_burst", 8, burst_chaos(loss));
    std::cout << '\n';
  }
  std::cout << "shape check: flood complete% decays with loss; reliable "
               "(i.i.d. and bursty) stays 100 at bounded extra msgs\n";
  return opts.finish(report);
}
