// E21 — self-healing repair: time-to-reconnect and message cost.
//
// After f = k-1 crashes the paper's flooding guarantee is spent: the
// residual overlay may be exactly 1-connected and the next crash can
// split it.  The repair pipeline (flooding/repair.h) detects the
// crashes by heartbeat, floods view changes on the reliable layer, and
// rewires the survivors toward the LHG over the new membership.  This
// bench measures what that costs: detection and reconnect latency, the
// per-phase message bill, and whether the verifier certifies the healed
// overlay k-connected — on clean channels and under adversarial loss.
//
// Expected shape: detection ~ crash time + heartbeat timeout + one
// confirmation round (a suspicion floods only once the subject's other
// neighbors fail to vouch for it); reconnect a few underlay round-trips
// later; repaired% and kconn% pinned at 100 even with 10% loss on both
// overlay and underlay (retries absorb it); view-change messages per
// node about flat in n, up to the n = 10^5 scale row (4096 in --small).
//
// Trials fan across core::parallel via flooding::TrialRunner;
// LHG_THREADS controls the lane count.  `--trace <path>` adds one
// instrumented run (the n=120, k=3, 10%-loss setting) exported as
// Chrome trace_event JSON; its ring holds the whole run, so the file
// carries the detector's suspicions and the view changes and rewires
// they cause (scripts/trace_check.py validates it).

#include <iostream>
#include <string>

#include "flooding/failure.h"
#include "flooding/repair.h"
#include "flooding/trial_runner.h"
#include "lhg/lhg.h"
#include "obs/trace.h"
#include "report.h"
#include "table.h"

namespace {

struct Agg {
  int repaired = 0;
  int kconn = 0;
  double detect = 0;
  double reconnect = 0;
  double heartbeats = 0;
  double view_msgs = 0;
  double handshake_msgs = 0;
  double confirm_msgs = 0;
  double vouched = 0;
  double edges_needed = 0;
  double net_sent = 0;
  double net_lost = 0;

  static Agg merge(Agg a, const Agg& b) {
    a.repaired += b.repaired;
    a.kconn += b.kconn;
    a.detect += b.detect;
    a.reconnect += b.reconnect;
    a.heartbeats += b.heartbeats;
    a.view_msgs += b.view_msgs;
    a.handshake_msgs += b.handshake_msgs;
    a.confirm_msgs += b.confirm_msgs;
    a.vouched += b.vouched;
    a.edges_needed += b.edges_needed;
    a.net_sent += b.net_sent;
    a.net_lost += b.net_lost;
    return a;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lhg;
  using namespace lhg::flooding;

  const auto opts = bench::BenchOptions::parse(argc, argv);
  bench::BenchReport report("bench_repair");

  const int base_trials = opts.small ? 8 : 24;
  std::cout << "E21: repair after f=k-1 crashes at t=2, " << base_trials
            << " random crash patterns per row (scale rows: fewer, see "
               "trials)  [threads="
            << core::global_thread_count() << "]\n";
  bench::Table table({"n", "k", "loss", "trials", "repaired%", "kconn%",
                      "detect", "reconnect", "hb/node", "vc_msgs", "vc/node",
                      "vouched", "cf_msgs", "hs_msgs"},
                     10);
  table.print_header();

  const auto measure = [&](core::NodeId n, std::int32_t k, double loss,
                           std::uint64_t seed, int trials) {
    const auto g = build(n, k);
    const bench::WallTimer timer;
    const TrialRunner runner{.seed = seed};
    const Agg agg = runner.run<Agg>(
        trials, Agg{},
        [&](std::int64_t, core::Rng& rng) {
          const auto plan =
              random_crashes(g, k - 1, /*protect=*/0, rng, /*time=*/2.0);
          RepairConfig cfg;
          cfg.k = k;
          cfg.seed = rng();
          cfg.chaos = loss > 0 ? ChaosSpec::iid(loss) : ChaosSpec::none();
          cfg.underlay_loss = loss;
          const auto r = run_repair(g, cfg, plan);
          Agg one;
          one.repaired = r.repaired ? 1 : 0;
          one.kconn = r.k_connected ? 1 : 0;
          one.detect = r.detection_time;
          one.reconnect = r.reconnect_time > 0 ? r.reconnect_time : 0.0;
          one.heartbeats = static_cast<double>(r.heartbeats_sent);
          one.view_msgs = static_cast<double>(r.view_change_messages);
          one.handshake_msgs = static_cast<double>(r.handshake_messages);
          one.confirm_msgs = static_cast<double>(r.confirm_messages);
          one.vouched = static_cast<double>(r.suspicions_vouched);
          one.edges_needed = r.edges_needed;
          one.net_sent = static_cast<double>(r.net.sent);
          one.net_lost = static_cast<double>(r.net.lost);
          return one;
        },
        Agg::merge);
    table.print_row(n, k, loss, trials, 100.0 * agg.repaired / trials,
                    100.0 * agg.kconn / trials, agg.detect / trials,
                    agg.reconnect / trials, agg.heartbeats / trials / n,
                    agg.view_msgs / trials, agg.view_msgs / trials / n,
                    agg.vouched / trials, agg.confirm_msgs / trials,
                    agg.handshake_msgs / trials);
    report.add("repair/n=" + std::to_string(n) + "/k=" + std::to_string(k) +
                   "/loss=" + std::to_string(static_cast<int>(loss * 100)),
               {{"n", n},
                {"k", k},
                {"loss", loss},
                {"trials", trials},
                {"repaired", agg.repaired},
                {"kconn", agg.kconn},
                {"mean_detect", agg.detect / trials},
                {"mean_reconnect", agg.reconnect / trials},
                {"view_msgs", agg.view_msgs / trials},
                {"view_msgs_per_node", agg.view_msgs / trials / n},
                {"suspicions_vouched", agg.vouched / trials},
                {"confirm_msgs", agg.confirm_msgs / trials},
                {"handshake_msgs", agg.handshake_msgs / trials},
                {"net_sent", agg.net_sent / trials},
                {"net_lost", agg.net_lost / trials}},
               timer.elapsed_ns());
  };

  for (const std::int32_t k : {3, 4}) {
    const core::NodeId n = opts.small ? 40 * k : 80 * k;
    measure(n, k, /*loss=*/0.0, static_cast<std::uint64_t>(3000 + k),
            base_trials);
    measure(n, k, /*loss=*/0.1, static_cast<std::uint64_t>(3100 + k),
            base_trials);
    std::cout << '\n';
  }
  // Scale rows: k=4 at 10% loss, with fewer trials (a trial's cost
  // grows with n).  View-change messages per node stay about flat, since
  // false alarms are vouched away instead of flooded.
  if (opts.small) {
    measure(4096, 4, /*loss=*/0.1, 3204, 2);
  } else {
    measure(10000, 4, /*loss=*/0.1, 3304, 4);
    measure(100000, 4, /*loss=*/0.1, 3305, 2);
  }
  std::cout << "shape check: repaired% == kconn% == 100 on every row; loss "
               "raises vc/hs message cost, not the failure rate; vc/node "
               "about flat in n\n";

  if (!opts.trace_path.empty()) {
    const std::int32_t k = 3;
    const auto g = build(40 * k, k);
    core::Rng rng(3103);
    const auto plan = random_crashes(g, k - 1, /*protect=*/0, rng, /*time=*/2.0);
    RepairConfig cfg;
    cfg.k = k;
    cfg.seed = rng();
    cfg.chaos = ChaosSpec::iid(0.1);
    cfg.underlay_loss = 0.1;
    cfg.obs = {.metrics = true, .trace = true, .trace_capacity = 1 << 17};
    const auto r = run_repair(g, cfg, plan);
    if (!obs::write_chrome_trace(opts.trace_path, r.trace)) return 1;
    std::int64_t suspicions = 0;
    std::int64_t view_changes = 0;
    std::int64_t rewires = 0;
    for (const obs::TraceEvent& e : r.trace.events) {
      suspicions += e.kind == obs::TraceKind::kSuspicion ? 1 : 0;
      view_changes += e.kind == obs::TraceKind::kViewChange ? 1 : 0;
      rewires += e.kind == obs::TraceKind::kRewire ? 1 : 0;
    }
    std::cout << "wrote " << r.trace.events.size() << " trace events (dropped "
              << r.trace.dropped << "; " << suspicions << " suspicions, "
              << view_changes << " view changes, " << rewires << " rewires) to "
              << opts.trace_path << '\n';
  }
  return opts.finish(report);
}
