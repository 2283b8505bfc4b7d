// The repository benchmark: four seeded workloads, each timed end to end
// through the library's public entry points, and a separate traced run
// that times the calls into each layer from this file.
//
//   lhg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--small]
//
// Workloads (k = 4 throughout; README.md gives the reasons):
//   flood_fixed   flooding::flood over ImplicitLhg(10^6, 4), fixed latency
//   flood_wan     the same with per-link latency and k-1 crashes at t=0
//   churn_verify  IncrementalOverlay(1024, 4): one leaver + one joiner,
//                 then exact kappa and lambda of the member graph
//   repair_lossy  run_repair on lhg::build(256, 4), 3 crashes, 10% loss
//
// Every random input comes from --seed through this file's own
// generator; the library receives only the generated inputs.  Every
// operation's result is checked, and a wrong result counts as a failed
// operation.  The last line of standard output is the result object; the
// line before it carries the run's metadata.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/connectivity.h"
#include "core/parallel.h"
#include "flooding/flood_generic.h"
#include "flooding/heartbeat.h"
#include "flooding/repair.h"
#include "lhg/implicit.h"
#include "lhg/lhg.h"
#include "membership/incremental.h"

namespace {

namespace core = lhg::core;
namespace fl = lhg::flooding;
using core::NodeId;

constexpr std::int32_t kK = 4;
/// Connectivity questions are asked with one unit of headroom, so a
/// graph that is more than k-connected would show up as k + 1.
constexpr std::int32_t kCap = kK + 1;
constexpr std::int32_t kShards = 4;

// ------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

/// End of the measured phase; loops run at least once.
class Budget {
 public:
  explicit Budget(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  bool left() const { return Clock::now() < end_; }

 private:
  Clock::time_point end_;
};

/// Cores this process may run on (its affinity mask, which a cpuset can
/// make smaller than the machine).
int usable_cores() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  }
  return std::max(1, CPU_COUNT(&mask));
}

/// Lane count for the "4 lanes" rows: 4, never above the usable cores.
int wide_lanes() { return std::clamp(usable_cores(), 1, 4); }

/// Pins the calling thread to one core per single-lane operation, in
/// rotation over the cores the process may use.  On the shared 4-core
/// host one core at a time ran memory-bound code up to 1.7x slower for
/// tens of seconds, and a thread the scheduler kept there made a whole
/// run slow; rotating makes every run sample every core.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cores_.push_back(cpu);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  ~CoreRotation() { release(); }

  void next() {
    if (cores_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Back to every core: call before multi-lane work and before the
  /// thread pool is rebuilt, whose workers inherit the caller's mask.
  void release() {
    if (!cores_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cores_;
  std::size_t next_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- inputs

/// SplitMix64.  The benchmark's own generator: crash sets, leavers and
/// the seeds handed to the library all come from it.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// `count` distinct nodes of [0, n), never `protect`.
  std::vector<NodeId> distinct_nodes(NodeId n, int count, NodeId protect) {
    std::vector<NodeId> out;
    while (static_cast<int>(out.size()) < count) {
      const auto v = static_cast<NodeId>(below(static_cast<std::uint64_t>(n)));
      if (v != protect && std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    }
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Distinct input streams per workload for one --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t workload_salt) {
  InputRng mix(seed * 0x2545f4914f6cdd1dULL + workload_salt);
  return mix.next();
}

// --------------------------------------------------------- statistics

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median over groups of each group's median, so every group weighs the
/// same however many samples it got; empty groups are skipped.
double pattern_median(const std::vector<std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const auto& g : groups) {
    if (!g.empty()) medians.push_back(median(g));
  }
  return median(medians);
}

// ------------------------------------------------------------ results

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// What one workload run produced.
struct Run {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // extra figures for the meta line
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons

  void put(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    metrics[name] = {value, unit, static_cast<std::int64_t>(samples)};
  }
  /// Records one operation; `problem` is empty when its result checked out.
  void op(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(problem);
  }
};

struct Scale {
  std::int64_t flood_n;
  NodeId churn_n;
  NodeId repair_n;
  int repair_patterns;
  // A run sets up at least setup_reps times, and more while setup_seconds
  // last, and reports the median: cheap set-ups get many samples.
  int setup_reps;
  double setup_seconds;
  const char* name;
};
constexpr Scale kFull{1'000'000, 1024, 256, 24, 5, 5.0, "full"};
constexpr Scale kSmall{65'536, 64, 64, 3, 2, 0.0, "small"};

constexpr std::string_view kWorkloads[] = {"flood_fixed", "flood_wan",
                                           "churn_verify", "repair_lossy"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"op_ms", "ms"},
    {"op_4lane_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"lhg.view_build_ms", "ms"},
    {"lhg.build_ms", "ms"},
    {"engine.ns_per_event", "ns"},
    {"engine.sharded_ns_per_event", "ns"},
    {"engine.events", "count"},
    {"engine.distinct_times", "count"},
    {"engine.callback_events", "count"},
    {"network.ns_per_send", "ns"},
    {"network.sharded_ns_per_send", "ns"},
    {"network.sent", "count"},
    {"network.delivered", "count"},
    {"network.blocked", "count"},
    {"network.dropped", "count"},
    {"flood.handler_ns_per_event", "ns"},
    {"flood.sharded_handler_ns_per_event", "ns"},
    {"shard.cross_arc_share", "ratio"},
    {"shard.lookahead", "vt"},
    {"shard.speedup", "ratio"},
    {"membership.apply_batch_us", "us"},
    {"membership.member_graph_us", "us"},
    {"membership.rewired_edges_p50", "count"},
    {"membership.rewired_edges_max", "count"},
    {"certificate.ms", "ms"},
    {"certificate.kept_edge_ratio", "ratio"},
    {"maxflow.prober_build_ms", "ms"},
    {"maxflow.vertex_probe_us", "us"},
    {"maxflow.edge_probe_us", "us"},
    {"connectivity.kappa_ms", "ms"},
    {"connectivity.lambda_ms", "ms"},
    {"heartbeat.ms", "ms"},
    {"heartbeat.beats", "count"},
    {"heartbeat.false_suspicions", "count"},
    {"reliable.data", "count"},
    {"reliable.retransmits", "count"},
    {"reliable.acks", "count"},
    {"reliable.retransmit_ratio", "ratio"},
    {"repair.view_change_msgs", "count"},
    {"repair.self_rebuttals", "count"},
    {"repair.handshake_msgs", "count"},
    {"repair.target_churn", "count"},
    {"obs.overhead_pct", "%"},
};

/// Peak RSS of the process so far, read when the measured loop ends, so
/// it covers set-up and both lane settings of the workload.
void put_peak_rss(Run& run) {
  run.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// The single-lane p90 goes to the metadata line, not to the gated
/// metrics: on a shared host its run-to-run spread was about 20%.
void put_p90(Run& run, const std::vector<double>& single_lane_ms) {
  run.info["op_p90_ms"] = quantile(single_lane_ms, 0.9);
  run.info["op_p90_samples"] = static_cast<double>(single_lane_ms.size());
}

std::int64_t counter(const lhg::obs::Snapshot& snap, const char* name) {
  const auto* sample = snap.find(name);
  return sample == nullptr ? 0 : sample->value;
}

// ============================================================= floods

struct FloodInputs {
  std::unique_ptr<lhg::ImplicitLhg> view;
  fl::FloodConfig cfg;
  fl::FailurePlan plan;
  std::vector<std::uint8_t> crashed;  // per node
  fl::DisseminationResult reference;  // the warm-up op, single queue
};

void make_flood_inputs(FloodInputs& in, bool wan, std::int64_t n,
                       std::uint64_t seed) {
  InputRng rng(stream_seed(seed, wan ? 2 : 1));
  in.view = std::make_unique<lhg::ImplicitLhg>(n, kK);
  in.cfg = fl::FloodConfig{};
  in.cfg.source = 0;
  in.cfg.seed = rng.next();
  in.cfg.latency = wan ? fl::LatencySpec::per_link(1.0, 1.0)
                       : fl::LatencySpec::fixed(1.0);
  in.plan = fl::FailurePlan{};
  in.crashed.assign(static_cast<std::size_t>(n), 0);
  if (wan) {
    const auto nodes = rng.distinct_nodes(static_cast<NodeId>(n), kK - 1,
                                          in.cfg.source);
    for (const NodeId v : nodes) {
      in.plan.crashes.push_back({v, 0.0});
      in.crashed[static_cast<std::size_t>(v)] = 1;
    }
  }
}

bool same_stats(const fl::NetworkStats& a, const fl::NetworkStats& b) {
  return a.sent == b.sent && a.delivered == b.delivered && a.lost == b.lost &&
         a.duplicated == b.duplicated &&
         a.blocked_sender_crashed == b.blocked_sender_crashed &&
         a.blocked_link_down == b.blocked_link_down &&
         a.blocked_partition == b.blocked_partition &&
         a.dropped_receiver_crashed == b.dropped_receiver_crashed &&
         a.dropped_link_down == b.dropped_link_down &&
         a.dropped_partition == b.dropped_partition;
}

/// Empty when `r` delivered to every alive node, conserved its messages
/// and equals the single-queue reference field for field.
std::string check_flood(const fl::DisseminationResult& r,
                        const FloodInputs& in, const char* what) {
  const std::string tag = std::string(what) + ": ";
  const auto n = in.view->num_nodes();
  const auto crashes = static_cast<std::int32_t>(in.plan.crashes.size());
  if (r.alive_nodes != n - crashes || !r.all_alive_delivered()) {
    return tag + "an alive node was not delivered";
  }
  if (r.net.delivered + r.net.undelivered() != r.net.sent + r.net.duplicated) {
    return tag + "NetworkStats conservation broken";
  }
  const auto& ref = in.reference;
  if (&r == &ref) return {};
  if (r.delivery_time != ref.delivery_time ||
      r.delivery_hops != ref.delivery_hops ||
      r.messages_sent != ref.messages_sent ||
      r.events_processed != ref.events_processed ||
      r.completion_time != ref.completion_time ||
      r.completion_hops != ref.completion_hops ||
      r.delivered_alive != ref.delivered_alive ||
      !same_stats(r.net, ref.net)) {
    return tag + "result differs from the single-queue reference";
  }
  return {};
}

fl::DisseminationResult run_flood(const FloodInputs& in, std::int32_t shards,
                                  bool obs_metrics = false) {
  fl::FloodConfig cfg = in.cfg;
  cfg.shards = shards;
  cfg.obs.metrics = obs_metrics;
  return fl::flood(*in.view, cfg, in.plan);
}

/// The per-link latency table BasicNetwork draws (same generator, same
/// canonical edge order); empty for fixed latency.
std::vector<double> latency_table(const FloodInputs& in) {
  std::vector<double> table;
  if (in.cfg.latency.kind != fl::LatencySpec::Kind::kUniformPerLink) {
    return table;
  }
  core::Rng rng(in.cfg.seed);
  table.resize(static_cast<std::size_t>(in.view->num_edges()));
  for (double& l : table) {
    l = in.cfg.latency.base + in.cfg.latency.jitter * rng.next_double();
  }
  return table;
}

/// Ladder rung 1 on the single queue: the engine driven by a sink that
/// forwards first copies over the same view with the same latencies.
class BareFlood final : public fl::Simulator::DeliverSink {
 public:
  BareFlood(const FloodInputs& in, const std::vector<double>& latency,
            fl::Simulator& sim)
      : in_(in),
        latency_(latency),
        sim_(sim),
        seen_(in.crashed.size(), 0) {
    seen_[static_cast<std::size_t>(in.cfg.source)] = 1;
  }

  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t /*link*/,
                  std::int64_t hops) override {
    if (sim_.now() != last_time_) {
      last_time_ = sim_.now();
      ++distinct_times_;
    }
    const auto t = static_cast<std::size_t>(to);
    if (in_.crashed[t] != 0 || seen_[t] != 0) return;
    seen_[t] = 1;
    completion_ = sim_.now();
    forward(to, from, hops + 1);
  }

  void forward(NodeId self, NodeId except, std::int64_t hops) {
    const auto& view = *in_.view;
    const std::int32_t deg = view.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = view.neighbor(self, i);
      if (v == except) continue;
      const std::int32_t link = view.incident_edge(self, i);
      const double delay = latency_.empty()
                               ? in_.cfg.latency.base
                               : latency_[static_cast<std::size_t>(link)];
      sim_.schedule_deliver_in(delay, this, self, v, link, hops);
    }
  }

  std::int64_t distinct_times() const { return distinct_times_; }
  double completion() const { return completion_; }

 private:
  const FloodInputs& in_;
  const std::vector<double>& latency_;
  fl::Simulator& sim_;
  std::vector<std::uint8_t> seen_;
  double last_time_ = -1.0;
  std::int64_t distinct_times_ = 0;
  double completion_ = 0.0;
};

/// Ladder rung 1 on the sharded engine.  Each node's flag is written only
/// by the shard that owns it.
class BareShardedFlood final : public fl::ShardedSimulator::DeliverSink {
 public:
  BareShardedFlood(const FloodInputs& in, const std::vector<double>& latency,
                   fl::ShardedSimulator& sim)
      : in_(in), latency_(latency), sim_(sim), seen_(in.crashed.size(), 0) {
    seen_[static_cast<std::size_t>(in.cfg.source)] = 1;
  }

  void on_sharded_deliver(std::int32_t shard, std::int32_t from,
                          std::int32_t to, std::int32_t /*link*/,
                          std::int64_t hops) override {
    const auto t = static_cast<std::size_t>(to);
    if (in_.crashed[t] != 0 || seen_[t] != 0) return;
    seen_[t] = 1;
    forward(shard, to, from, hops + 1);
  }

  void forward(std::int32_t shard, NodeId self, NodeId except,
               std::int64_t hops) {
    const auto& view = *in_.view;
    const double now = sim_.now(shard);
    const std::int32_t deg = view.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = view.neighbor(self, i);
      if (v == except) continue;
      const std::int32_t link = view.incident_edge(self, i);
      const double delay = latency_.empty()
                               ? in_.cfg.latency.base
                               : latency_[static_cast<std::size_t>(link)];
      sim_.schedule_deliver_at(shard, now + delay, self, v, link, hops);
    }
  }

 private:
  const FloodInputs& in_;
  const std::vector<double>& latency_;
  fl::ShardedSimulator& sim_;
  std::vector<std::uint8_t> seen_;
};

struct RungOut {
  std::int64_t events = 0;
  std::int64_t sent = 0;
  std::int64_t distinct_times = 0;
  double completion = 0.0;
  double lookahead = 0.0;
};

RungOut rung1_single(const FloodInputs& in, const std::vector<double>& lat) {
  fl::Simulator sim;
  BareFlood sink(in, lat, sim);
  const NodeId source = in.cfg.source;
  sim.schedule_at(0.0, [&sink, source] { sink.forward(source, -1, 0); });
  sim.run();
  return {sim.events_processed(), 0, sink.distinct_times(), sink.completion(),
          0.0};
}

RungOut rung1_sharded(const FloodInputs& in, const std::vector<double>& lat,
                      double lookahead) {
  fl::ShardedSimulator sim(in.view->num_nodes(), kShards);
  BareShardedFlood sink(in, lat, sim);
  sim.set_deliver_sink(&sink);
  sim.set_lookahead(lookahead);
  const NodeId source = in.cfg.source;
  sim.schedule_node_at(fl::ShardedSimulator::kEnvOrigin, 0.0, source,
                       [&sink, source](std::int32_t shard) {
                         sink.forward(shard, source, -1, 0);
                       });
  sim.run();
  return {sim.events_processed(), 0, 0, 0.0, lookahead};
}

/// Ladder rung 2: rung 1 plus the network's send_link and delivery
/// checks, with a handler that only forwards first copies.
RungOut rung2_single(const FloodInputs& in) {
  const auto& view = *in.view;
  fl::Simulator sim;
  core::Rng rng(in.cfg.seed);
  fl::BasicNetwork<lhg::ImplicitLhg> net(view, sim, in.cfg.latency, rng,
                                         fl::ChaosSpec{});
  fl::apply_failure_plan(net, in.plan);
  std::vector<std::uint8_t> seen(in.crashed.size(), 0);
  seen[static_cast<std::size_t>(in.cfg.source)] = 1;
  auto forward = [&](NodeId self, NodeId except, std::int64_t hops) {
    const std::int32_t deg = view.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = view.neighbor(self, i);
      if (v != except) net.send_link(self, v, view.incident_edge(self, i), hops);
    }
  };
  net.set_receive_handler([&](NodeId self, NodeId from, std::int64_t hops) {
    auto& s = seen[static_cast<std::size_t>(self)];
    if (s != 0) return;
    s = 1;
    forward(self, from, hops + 1);
  });
  sim.schedule_at(0.0, [&] { forward(in.cfg.source, -1, 0); });
  sim.run();
  return {sim.events_processed(), net.stats().sent, 0, 0.0, 0.0};
}

RungOut rung2_sharded(const FloodInputs& in) {
  const auto& view = *in.view;
  fl::ShardedSimulator sim(view.num_nodes(), kShards);
  core::Rng rng(in.cfg.seed);
  fl::ShardedNetwork<lhg::ImplicitLhg> net(view, sim, in.cfg.latency, rng,
                                           fl::ChaosSpec{});
  fl::apply_failure_plan(net, in.plan);
  std::vector<std::uint8_t> seen(in.crashed.size(), 0);
  seen[static_cast<std::size_t>(in.cfg.source)] = 1;
  auto forward = [&](std::int32_t shard, NodeId self, NodeId except,
                     std::int64_t hops) {
    const std::int32_t deg = view.degree(self);
    for (std::int32_t i = 0; i < deg; ++i) {
      const NodeId v = view.neighbor(self, i);
      if (v != except) {
        net.send_link(shard, self, v, view.incident_edge(self, i), hops);
      }
    }
  };
  net.set_receive_handler(
      [&](std::int32_t shard, NodeId self, NodeId from, std::int64_t hops) {
        auto& s = seen[static_cast<std::size_t>(self)];
        if (s != 0) return;
        s = 1;
        forward(shard, self, from, hops + 1);
      });
  const NodeId source = in.cfg.source;
  sim.schedule_node_at(fl::ShardedSimulator::kEnvOrigin, 0.0, source,
                       [&](std::int32_t shard) { forward(shard, source, -1, 0); });
  sim.run();
  return {sim.events_processed(), net.stats().sent, 0, 0.0, sim.lookahead()};
}

/// Share of arcs whose endpoints land on different shards at S=4, and
/// the conservative lookahead those arcs allow.
std::pair<double, double> shard_cut(const FloodInputs& in,
                                    const std::vector<double>& lat) {
  const auto& view = *in.view;
  const fl::ShardedSimulator sim(view.num_nodes(), kShards);
  std::int64_t arcs = 0;
  std::int64_t cross = 0;
  double lookahead = std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    const std::int32_t deg = view.degree(u);
    for (std::int32_t i = 0; i < deg; ++i) {
      ++arcs;
      const NodeId v = view.neighbor(u, i);
      if (sim.shard_of(u) == sim.shard_of(v)) continue;
      ++cross;
      const double l =
          lat.empty() ? in.cfg.latency.base
                      : lat[static_cast<std::size_t>(view.incident_edge(u, i))];
      lookahead = std::min(lookahead, l);
    }
  }
  return {static_cast<double>(cross) / static_cast<double>(arcs), lookahead};
}

void flood_setup(Run& run, FloodInputs& in, bool wan, const Scale& scale,
                 std::uint64_t seed) {
  std::vector<double> setup_s;
  CoreRotation cores;
  const Budget setup_budget(scale.setup_seconds);
  for (int rep = 0; rep < scale.setup_reps || setup_budget.left(); ++rep) {
    cores.next();
    in.view.reset();
    in.reference = fl::DisseminationResult{};
    const auto t0 = Clock::now();
    make_flood_inputs(in, wan, scale.flood_n, seed);
    in.reference = run_flood(in, 1);
    setup_s.push_back(ms_since(t0) / 1e3);
    run.op(check_flood(in.reference, in, "warm-up flood"));
  }
  run.put("setup_s", median(setup_s), "s", setup_s.size());
}

void flood_measure(Run& run, bool wan, const Scale& scale, std::uint64_t seed,
                   double seconds) {
  FloodInputs in;
  flood_setup(run, in, wan, scale, seed);
  {
    const auto warm = run_flood(in, kShards);  // first sharded run: untimed
    run.op(check_flood(warm, in, "S=4 warm-up flood"));
  }
  std::vector<double> single_ms;
  std::vector<double> sharded_ms;
  CoreRotation cores;
  const Budget budget(seconds);
  do {
    for (const std::int32_t shards : {1, kShards}) {
      if (shards == 1) {
        cores.next();
      } else {
        cores.release();
      }
      fl::DisseminationResult r;
      const double ms = time_ms([&] { r = run_flood(in, shards); });
      (shards == 1 ? single_ms : sharded_ms).push_back(ms);
      run.op(check_flood(r, in, shards == 1 ? "S=1 flood" : "S=4 flood"));
    }
  } while (budget.left());
  put_peak_rss(run);
  run.put("op_ms", median(single_ms), "ms", single_ms.size());
  put_p90(run, single_ms);
  run.put("op_4lane_ms", median(sharded_ms), "ms", sharded_ms.size());
}

void flood_trace(Run& run, bool wan, const Scale& scale, std::uint64_t seed,
                 double seconds) {
  std::vector<double> view_ms;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    view_ms.push_back(time_ms([&] { lhg::ImplicitLhg v(scale.flood_n, kK); }));
  }
  FloodInputs in;
  make_flood_inputs(in, wan, scale.flood_n, seed);
  in.reference = run_flood(in, 1);
  run.op(check_flood(in.reference, in, "reference flood"));
  const auto& ref = in.reference;
  const std::vector<double> lat = latency_table(in);
  const auto [cross_share, lookahead] = shard_cut(in, lat);

  std::vector<double> t1, t2, t3, tobs, s1, s2, s3;
  RungOut bare;
  std::int64_t callback_events = 0;
  const Budget budget(seconds);
  do {
    RungOut r1, r2, q1, q2;
    t1.push_back(time_ms([&] { r1 = rung1_single(in, lat); }));
    t2.push_back(time_ms([&] { r2 = rung2_single(in); }));
    {
      fl::DisseminationResult r3;
      t3.push_back(time_ms([&] { r3 = run_flood(in, 1); }));
      run.op(check_flood(r3, in, "rung-3 flood"));
    }
    {
      fl::DisseminationResult ro;
      tobs.push_back(time_ms([&] { ro = run_flood(in, 1, true); }));
      run.op(check_flood(ro, in, "flood with obs metrics"));
      callback_events = counter(ro.metrics, "sim.callback_events");
    }
    s1.push_back(time_ms([&] { q1 = rung1_sharded(in, lat, lookahead); }));
    s2.push_back(time_ms([&] { q2 = rung2_sharded(in); }));
    {
      fl::DisseminationResult r3;
      s3.push_back(time_ms([&] { r3 = run_flood(in, kShards); }));
      run.op(check_flood(r3, in, "rung-3 sharded flood"));
    }
    // The lower rungs must do exactly the reference flood's work.
    const bool same_work =
        r1.events == ref.events_processed &&
        r1.completion == ref.completion_time &&
        r2.events == ref.events_processed && r2.sent == ref.net.sent &&
        q1.events == ref.events_processed &&
        q2.events == ref.events_processed && q2.sent == ref.net.sent &&
        q2.lookahead == lookahead;
    run.op(same_work ? "" : "ladder rung does other work than flood()");
    bare = r1;
  } while (budget.left());

  const auto events = static_cast<double>(ref.events_processed);
  const auto sent = static_cast<double>(ref.net.sent);
  const std::size_t k = t1.size();
  run.put("lhg.view_build_ms", median(view_ms), "ms", view_ms.size());
  run.put("engine.ns_per_event", median(t1) * 1e6 / events, "ns", k);
  run.put("engine.sharded_ns_per_event", median(s1) * 1e6 / events, "ns", k);
  run.put("engine.events", events, "count", 1);
  run.put("engine.distinct_times", static_cast<double>(bare.distinct_times),
          "count", 1);
  run.put("engine.callback_events", static_cast<double>(callback_events),
          "count", 1);
  run.put("network.ns_per_send", (median(t2) - median(t1)) * 1e6 / sent, "ns",
          k);
  run.put("network.sharded_ns_per_send", (median(s2) - median(s1)) * 1e6 / sent,
          "ns", k);
  run.put("network.sent", sent, "count", 1);
  run.put("network.delivered", static_cast<double>(ref.net.delivered), "count",
          1);
  run.put("network.blocked",
          static_cast<double>(ref.net.blocked_sender_crashed +
                              ref.net.blocked_link_down +
                              ref.net.blocked_partition),
          "count", 1);
  run.put("network.dropped", static_cast<double>(ref.net.undelivered()),
          "count", 1);
  run.put("flood.handler_ns_per_event", (median(t3) - median(t2)) * 1e6 / events,
          "ns", k);
  run.put("flood.sharded_handler_ns_per_event",
          (median(s3) - median(s2)) * 1e6 / events, "ns", k);
  run.put("shard.cross_arc_share", cross_share, "ratio", 1);
  run.put("shard.lookahead", lookahead, "vt", 1);
  run.put("shard.speedup", median(t3) / median(s3), "ratio", k);
  run.put("obs.overhead_pct", (median(tobs) - median(t3)) / median(t3) * 100.0,
          "%", k);
  run.info["traced_op_ms"] = median(t3);
  run.info["traced_op_4lane_ms"] = median(s3);
}

// ============================================================== churn

struct ChurnState {
  std::unique_ptr<lhg::membership::IncrementalOverlay> overlay;
  core::Graph canonical;  // lhg::build(n, k): the slot-space invariant
  InputRng rng{0};
};

/// The next leaver: a uniformly drawn current member.
lhg::membership::MemberId next_leaver(ChurnState& s) {
  const auto members = s.overlay->members();
  return members[s.rng.below(members.size())];
}

bool same_graph(const core::Graph& a, const core::Graph& b) {
  return a.num_nodes() == b.num_nodes() &&
         std::ranges::equal(a.edges(), b.edges());
}

std::string check_change(const ChurnState& s, std::int32_t kappa,
                         std::int32_t lambda, const core::Graph& canonical) {
  if (kappa != kK || lambda != kK) {
    return "churn: member graph has kappa=" + std::to_string(kappa) +
           " lambda=" + std::to_string(lambda);
  }
  if (!same_graph(s.overlay->canonical_graph(), canonical)) {
    return "churn: canonical graph differs from lhg::build";
  }
  return {};
}

/// One change, the timed operation: apply_batch with one leaver and one
/// joiner, member_graph, then exact kappa and lambda capped at k + 1.
double timed_change(Run& run, ChurnState& s) {
  const auto leaver = next_leaver(s);
  std::int32_t kappa = 0;
  std::int32_t lambda = 0;
  const double ms = time_ms([&] {
    s.overlay->apply_batch(std::span(&leaver, 1), 1);
    const core::Graph g = s.overlay->member_graph();
    kappa = core::vertex_connectivity(g, kCap);
    lambda = core::edge_connectivity(g, kCap);
  });
  run.op(check_change(s, kappa, lambda, s.canonical));
  return ms;
}

void churn_setup(Run& run, ChurnState& s, const Scale& scale,
                 std::uint64_t seed) {
  core::set_global_thread_count(1);
  std::vector<double> setup_s;
  CoreRotation cores;
  // The leaver stream runs on across set-ups, so each warms up on another
  // change and the median does not hang on the cost of one.
  s.rng = InputRng(stream_seed(seed, 3));
  const Budget setup_budget(scale.setup_seconds);
  for (int rep = 0; rep < scale.setup_reps || setup_budget.left(); ++rep) {
    cores.next();
    s.overlay.reset();
    const auto t0 = Clock::now();
    s.overlay = std::make_unique<lhg::membership::IncrementalOverlay>(
        scale.churn_n, kK);
    s.canonical = lhg::build(scale.churn_n, kK);
    timed_change(run, s);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  run.put("setup_s", median(setup_s), "s", setup_s.size());
}

void churn_measure(Run& run, const Scale& scale, std::uint64_t seed,
                   double seconds) {
  ChurnState s;
  churn_setup(run, s, scale, seed);
  // Blocks of changes per lane setting: switching rebuilds the pool.
  constexpr int kBlock = 8;
  std::vector<double> one_lane;
  std::vector<double> wide;
  CoreRotation cores;
  const Budget budget(seconds);
  do {
    core::set_global_thread_count(1);
    for (int i = 0; i < kBlock; ++i) {
      cores.next();
      one_lane.push_back(timed_change(run, s));
    }
    cores.release();
    core::set_global_thread_count(wide_lanes());
    for (int i = 0; i < kBlock; ++i) wide.push_back(timed_change(run, s));
  } while (budget.left());
  put_peak_rss(run);
  run.put("op_ms", median(one_lane), "ms", one_lane.size());
  put_p90(run, one_lane);
  run.put("op_4lane_ms", median(wide), "ms", wide.size());
}

void churn_trace(Run& run, const Scale& scale, std::uint64_t seed,
                 double seconds) {
  core::set_global_thread_count(1);
  ChurnState s;
  s.rng = InputRng(stream_seed(seed, 3));
  s.overlay =
      std::make_unique<lhg::membership::IncrementalOverlay>(scale.churn_n, kK);
  constexpr int kProbes = 16;  // probes per change after the first
  std::vector<double> apply_us, graph_us, rewired, cert_ms, kept, build_ms,
      vprobe_us, eprobe_us, kappa_ms, lambda_ms, lhg_ms, op_ms;
  const Budget budget(seconds);
  do {
    const auto leaver = next_leaver(s);
    lhg::membership::MemberDelta delta;
    apply_us.push_back(1e3 * time_ms([&] {
      delta = s.overlay->apply_batch(std::span(&leaver, 1), 1);
    }));
    rewired.push_back(static_cast<double>(delta.total()));
    core::Graph g;
    graph_us.push_back(1e3 * time_ms([&] { g = s.overlay->member_graph(); }));

    core::Graph cert;
    cert_ms.push_back(time_ms([&] { cert = core::sparse_certificate(g, kCap); }));
    kept.push_back(static_cast<double>(cert.num_edges()) /
                   static_cast<double>(g.num_edges()));

    // Probe pairs as the Esfahanian–Hakimi loop forms them: a minimum-
    // degree vertex against non-neighbors drawn from the seed.
    NodeId hub = 0;
    for (NodeId v = 1; v < g.num_nodes(); ++v) {
      if (g.degree(v) < g.degree(hub)) hub = v;
    }
    std::vector<NodeId> targets;
    while (static_cast<int>(targets.size()) < kProbes + 1) {
      const auto t = static_cast<NodeId>(
          s.rng.below(static_cast<std::uint64_t>(g.num_nodes())));
      if (t != hub && !g.has_edge(hub, t)) targets.push_back(t);
    }
    std::int32_t weakest = kCap;
    std::unique_ptr<core::ConnectivityProber> prober;
    build_ms.push_back(time_ms([&] {
      prober = std::make_unique<core::ConnectivityProber>(cert);
      weakest = std::min(weakest, prober->vertex_probe(hub, targets[0], kCap));
      weakest = std::min(weakest, prober->edge_probe(hub, targets[0], kCap));
    }));
    for (int i = 1; i <= kProbes; ++i) {
      vprobe_us.push_back(1e3 * time_ms([&] {
        weakest = std::min(weakest, prober->vertex_probe(hub, targets[i], kCap));
      }));
      eprobe_us.push_back(1e3 * time_ms([&] {
        weakest = std::min(weakest, prober->edge_probe(hub, targets[i], kCap));
      }));
    }

    std::int32_t kappa = 0;
    std::int32_t lambda = 0;
    kappa_ms.push_back(
        time_ms([&] { kappa = core::vertex_connectivity(g, kCap); }));
    lambda_ms.push_back(
        time_ms([&] { lambda = core::edge_connectivity(g, kCap); }));
    core::Graph canonical;
    lhg_ms.push_back(
        time_ms([&] { canonical = lhg::build(s.overlay->size(), kK); }));
    op_ms.push_back(apply_us.back() / 1e3 + graph_us.back() / 1e3 +
                    kappa_ms.back() + lambda_ms.back());
    std::string problem = check_change(s, kappa, lambda, canonical);
    if (problem.empty() && weakest < kK) {
      problem = "churn: a probe found fewer than k disjoint paths";
    }
    run.op(problem);
  } while (budget.left());

  run.put("lhg.build_ms", median(lhg_ms), "ms", lhg_ms.size());
  run.put("membership.apply_batch_us", median(apply_us), "us", apply_us.size());
  run.put("membership.member_graph_us", median(graph_us), "us",
          graph_us.size());
  run.put("membership.rewired_edges_p50", median(rewired), "count",
          rewired.size());
  run.put("membership.rewired_edges_max",
          *std::max_element(rewired.begin(), rewired.end()), "count",
          rewired.size());
  run.put("certificate.ms", median(cert_ms), "ms", cert_ms.size());
  run.put("certificate.kept_edge_ratio", median(kept), "ratio", kept.size());
  run.put("maxflow.prober_build_ms", median(build_ms), "ms", build_ms.size());
  run.put("maxflow.vertex_probe_us", median(vprobe_us), "us", vprobe_us.size());
  run.put("maxflow.edge_probe_us", median(eprobe_us), "us", eprobe_us.size());
  run.put("connectivity.kappa_ms", median(kappa_ms), "ms", kappa_ms.size());
  run.put("connectivity.lambda_ms", median(lambda_ms), "ms", lambda_ms.size());
  run.info["traced_op_ms"] = median(op_ms);
}

// ============================================================= repair

struct RepairInputs {
  core::Graph g;
  std::vector<fl::FailurePlan> plans;   // one crash pattern each
  std::vector<fl::RepairConfig> cfgs;   // per pattern: fixed library seed
};

void make_repair_inputs(RepairInputs& in, const Scale& scale,
                        std::uint64_t seed) {
  InputRng rng(stream_seed(seed, 4));
  in.g = lhg::build(scale.repair_n, kK);
  in.plans.clear();
  in.cfgs.clear();
  for (int p = 0; p < scale.repair_patterns; ++p) {
    fl::FailurePlan plan;
    for (const NodeId v : rng.distinct_nodes(scale.repair_n, kK - 1, -1)) {
      plan.crashes.push_back({v, 2.0});
    }
    in.plans.push_back(std::move(plan));
    fl::RepairConfig cfg;
    cfg.k = kK;
    cfg.seed = rng.next();
    cfg.chaos = fl::ChaosSpec::iid(0.1);
    cfg.underlay_loss = 0.1;
    in.cfgs.push_back(cfg);
  }
}

std::string check_repair(const fl::RepairResult& r) {
  if (!r.repaired) return "repair: a needed edge was never established";
  if (!r.k_connected) return "repair: healed overlay is not k-connected";
  if (r.lingering_false_obituaries != 0) {
    return "repair: false obituaries linger at quiescence";
  }
  if (r.window_overflows != 0) return "repair: reliable send window overflowed";
  return {};
}

double timed_trial(Run& run, const RepairInputs& in, std::size_t p,
                   fl::RepairResult* out = nullptr, bool obs_metrics = false) {
  fl::RepairConfig cfg = in.cfgs[p];
  cfg.obs.metrics = obs_metrics;
  fl::RepairResult r;
  const double ms = time_ms([&] { r = fl::run_repair(in.g, cfg, in.plans[p]); });
  run.op(check_repair(r));
  if (out != nullptr) *out = std::move(r);
  return ms;
}

void repair_measure(Run& run, const Scale& scale, std::uint64_t seed,
                    double seconds) {
  core::set_global_thread_count(1);
  RepairInputs in;
  std::vector<double> setup_s;
  CoreRotation cores;
  // Each set-up warms up on the next pattern, so the median does not hang
  // on the cost of one crash pattern.
  const Budget setup_budget(scale.setup_seconds);
  for (int rep = 0; rep < scale.setup_reps || setup_budget.left(); ++rep) {
    cores.next();
    const auto t0 = Clock::now();
    make_repair_inputs(in, scale, seed);
    timed_trial(run, in, static_cast<std::size_t>(rep) % in.plans.size());
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  run.put("setup_s", median(setup_s), "s", setup_s.size());
  cores.release();

  // Every pattern runs at least once, then the cycle repeats while the
  // budget lasts.  Each pattern runs as a pair, once per lane setting, in
  // alternating order, so both metrics see the same patterns, the same
  // sample count and the same host.  Only run_repair's final verifier
  // reaches core::parallel, so the 4-lane trial is nearly the same serial
  // simulation; its calling thread is pinned like the single-lane one.
  const std::size_t patterns = in.plans.size();
  std::vector<std::vector<double>> one_lane(patterns);
  std::vector<std::vector<double>> wide(patterns);
  std::vector<double> all_one_lane;
  const int wide_count = wide_lanes();  // read while no core is pinned
  const auto trial_at = [&](int lanes, std::size_t p) {
    cores.release();  // the rebuilt pool's workers get every core
    core::set_global_thread_count(lanes);
    cores.next();
    return timed_trial(run, in, p);
  };
  const Budget budget(seconds);
  for (std::size_t i = 0; i < patterns || budget.left(); ++i) {
    const std::size_t p = i % patterns;
    if (i % 2 == 1) wide[p].push_back(trial_at(wide_count, p));
    one_lane[p].push_back(trial_at(1, p));
    all_one_lane.push_back(one_lane[p].back());
    if (i % 2 == 0) wide[p].push_back(trial_at(wide_count, p));
  }
  cores.release();
  put_peak_rss(run);
  run.put("op_ms", pattern_median(one_lane), "ms", all_one_lane.size());
  put_p90(run, all_one_lane);
  run.put("op_4lane_ms", pattern_median(wide), "ms", all_one_lane.size());
}

void repair_trace(Run& run, const Scale& scale, std::uint64_t seed,
                  double seconds) {
  core::set_global_thread_count(1);
  RepairInputs in;
  make_repair_inputs(in, scale, seed);
  std::vector<double> off_ms, on_ms, hb_ms, kappa_ms, lambda_ms, lhg_ms;
  core::Graph healed_ref;  // lhg.build_ms target
  std::vector<double> events, callbacks, sent, delivered, blocked, dropped,
      beats, false_susp, data, retx, acks, vc, rebut, hs, churn;
  const Budget budget(seconds);
  do {
    for (std::size_t p = 0; p < in.plans.size(); ++p) {
      fl::RepairResult off;
      fl::RepairResult on;
      off_ms.push_back(timed_trial(run, in, p, &off));
      on_ms.push_back(timed_trial(run, in, p, &on, true));
      run.op(on.view_change_messages == off.view_change_messages &&
                     on.handshake_messages == off.handshake_messages
                 ? ""
                 : "repair: obs metrics changed the run");

      const fl::RepairConfig& cfg = in.cfgs[p];
      fl::HeartbeatConfig hb_cfg;
      hb_cfg.interval = cfg.heartbeat_interval;
      hb_cfg.timeout = cfg.heartbeat_timeout;
      hb_cfg.horizon = cfg.horizon;
      hb_cfg.latency = cfg.latency;
      hb_cfg.loss_probability = cfg.chaos.loss;
      hb_cfg.seed = cfg.seed;
      fl::HeartbeatResult hb;
      hb_ms.push_back(time_ms(
          [&] { hb = fl::run_heartbeat(in.g, hb_cfg, in.plans[p]); }));
      run.op(hb.all_crashes_detected() ? "" : "heartbeat: a crash went undetected");

      std::int32_t kappa = 0;
      std::int32_t lambda = 0;
      kappa_ms.push_back(
          time_ms([&] { kappa = core::vertex_connectivity(off.healed, kCap); }));
      lambda_ms.push_back(
          time_ms([&] { lambda = core::edge_connectivity(off.healed, kCap); }));
      run.op(kappa >= kK && lambda >= kK ? ""
                                         : "repair: healed overlay below k");
      lhg_ms.push_back(time_ms([&] { healed_ref = lhg::build(scale.repair_n, kK); }));

      const auto& m = on.metrics;
      events.push_back(static_cast<double>(counter(m, "sim.deliver_events") +
                                           counter(m, "sim.callback_events")));
      callbacks.push_back(static_cast<double>(counter(m, "sim.callback_events")));
      sent.push_back(static_cast<double>(off.net.sent));
      delivered.push_back(static_cast<double>(off.net.delivered));
      blocked.push_back(static_cast<double>(off.net.blocked_sender_crashed +
                                            off.net.blocked_link_down +
                                            off.net.blocked_partition));
      dropped.push_back(static_cast<double>(off.net.undelivered()));
      beats.push_back(static_cast<double>(hb.heartbeats_sent));
      false_susp.push_back(static_cast<double>(hb.false_suspicions));
      data.push_back(static_cast<double>(counter(m, "link.data")));
      retx.push_back(static_cast<double>(counter(m, "link.retransmits")));
      acks.push_back(static_cast<double>(counter(m, "link.acks")));
      vc.push_back(static_cast<double>(off.view_change_messages));
      rebut.push_back(static_cast<double>(off.self_rebuttals));
      hs.push_back(static_cast<double>(off.handshake_messages));
      churn.push_back(static_cast<double>(off.target_churn));
    }
  } while (budget.left());

  const std::size_t k = off_ms.size();
  run.put("lhg.build_ms", median(lhg_ms), "ms", k);
  run.put("engine.events", median(events), "count", k);
  run.put("engine.callback_events", median(callbacks), "count", k);
  run.put("network.sent", median(sent), "count", k);
  run.put("network.delivered", median(delivered), "count", k);
  run.put("network.blocked", median(blocked), "count", k);
  run.put("network.dropped", median(dropped), "count", k);
  run.put("connectivity.kappa_ms", median(kappa_ms), "ms", k);
  run.put("connectivity.lambda_ms", median(lambda_ms), "ms", k);
  run.put("heartbeat.ms", median(hb_ms), "ms", k);
  run.put("heartbeat.beats", median(beats), "count", k);
  run.put("heartbeat.false_suspicions", median(false_susp), "count", k);
  run.put("reliable.data", median(data), "count", k);
  run.put("reliable.retransmits", median(retx), "count", k);
  run.put("reliable.acks", median(acks), "count", k);
  double retx_sum = 0.0;
  double data_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    retx_sum += retx[i];
    data_sum += data[i];
  }
  run.put("reliable.retransmit_ratio", data_sum > 0 ? retx_sum / data_sum : 0.0,
          "ratio", k);
  run.put("repair.view_change_msgs", median(vc), "count", k);
  run.put("repair.self_rebuttals", median(rebut), "count", k);
  run.put("repair.handshake_msgs", median(hs), "count", k);
  run.put("repair.target_churn", median(churn), "count", k);
  run.put("obs.overhead_pct",
          (median(on_ms) - median(off_ms)) / median(off_ms) * 100.0, "%", k);
  run.info["traced_op_ms"] = median(off_ms);
}

// ============================================================== main

void measure(Run& run, std::string_view workload, const Scale& scale,
             std::uint64_t seed, double seconds) {
  if (workload == "flood_fixed" || workload == "flood_wan") {
    core::set_global_thread_count(wide_lanes());
    flood_measure(run, workload == "flood_wan", scale, seed, seconds);
  } else if (workload == "churn_verify") {
    churn_measure(run, scale, seed, seconds);
  } else {
    repair_measure(run, scale, seed, seconds);
  }
}

void trace(Run& run, std::string_view workload, const Scale& scale,
           std::uint64_t seed, double seconds) {
  if (workload == "flood_fixed" || workload == "flood_wan") {
    core::set_global_thread_count(wide_lanes());
    flood_trace(run, workload == "flood_wan", scale, seed, seconds);
  } else if (workload == "churn_verify") {
    churn_trace(run, scale, seed, seconds);
  } else {
    repair_trace(run, scale, seed, seconds);
  }
}

/// A traced run reports every layer.  Layers this workload never runs
/// read 0, and `source` marks them "idle".
void fill_layers(Run& run, std::string_view workload,
                 std::map<std::string, std::string>& source) {
  for (const auto& m : kPerLayer) {
    if (run.metrics.count(m.name) == 0) {
      run.put(m.name, 0.0, m.unit, 0);
      source[m.name] = "idle";
    } else {
      source[m.name] = workload;
    }
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
};

int usage() {
  std::cerr << "usage: lhg_perfbench --workload "
               "<flood_fixed|flood_wan|churn_verify|repair_lossy> --seed <n> "
               "--seconds <s> --trace <0|1> [--small]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      args.small = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string_view(argv[++i]) == "1";
    } else {
      return usage();
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.workload) == std::end(kWorkloads) ||
      !(args.seconds > 0.0)) {
    return usage();
  }
  const Scale& scale = args.small ? kSmall : kFull;

  Run run;
  std::map<std::string, std::string> source;
  try {
    if (args.trace) {
      trace(run, args.workload, scale, args.seed, args.seconds);
      fill_layers(run, args.workload, source);
    } else {
      measure(run, args.workload, scale, args.seed, args.seconds);
    }
  } catch (const std::exception& e) {
    std::cerr << "lhg_perfbench: " << e.what() << "\n";
    return 1;
  }

  // Exactly the advertised metric set, in declaration order.
  std::vector<MetricSpec> names;
  if (args.trace) {
    names.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string metrics;
  std::string samples;
  for (const auto& spec : names) {
    const auto it = run.metrics.find(spec.name);
    if (it == run.metrics.end() || !std::isfinite(it->second.value)) {
      std::cerr << "lhg_perfbench: metric " << spec.name << " not measured\n";
      return 1;
    }
    if (!metrics.empty()) {
      metrics += ", ";
      samples += ", ";
    }
    metrics += json_string(spec.name) + ": {\"value\": " +
               json_number(it->second.value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
    samples += json_string(spec.name) + ": " +
               std::to_string(it->second.samples);
  }

  std::string meta = "{\"meta\": {";
  meta += "\"workload\": " + json_string(args.workload);
  meta += ", \"seed\": " + std::to_string(args.seed);
  meta += ", \"seconds\": " + json_number(args.seconds);
  meta += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  meta += ", \"scale\": " + json_string(scale.name);
  meta += ", \"nproc\": " + std::to_string(usable_cores());
  meta += ", \"LHG_THREADS\": " + json_string(env_or("LHG_THREADS", "unset"));
  meta += ", \"wide_lanes\": " + std::to_string(wide_lanes());
  meta += ", \"shards\": " + std::to_string(kShards);
  meta += ", \"build_type\": " + json_string(LHG_PERFBENCH_BUILD_TYPE);
  meta += ", \"compiler\": " + json_string(__VERSION__);
  meta += ", \"git_sha\": " + json_string(env_or("LHG_GIT_SHA", "unknown"));
  meta += ", \"src_digest\": " + json_string(env_or("LHG_SRC_DIGEST", "unknown"));
  meta += ", \"attempted\": " + std::to_string(run.attempted);
  meta += ", \"failed\": " + std::to_string(run.failed);
  meta += ", \"error_rate\": " +
          json_number(run.attempted == 0
                          ? 1.0
                          : static_cast<double>(run.failed) /
                                static_cast<double>(run.attempted));
  meta += ", \"samples\": {" + samples + "}";
  std::string info;
  for (const auto& [name, value] : run.info) {
    info += (info.empty() ? "" : ", ") + json_string(name) + ": " +
            json_number(value);
  }
  meta += ", \"info\": {" + info + "}";
  if (args.trace) {
    std::string src;
    for (const auto& [name, from] : source) {
      src += (src.empty() ? "" : ", ") + json_string(name) + ": " +
             json_string(from);
    }
    meta += ", \"metric_source\": {" + src + "}";
  }
  std::string errors;
  for (const auto& e : run.errors) {
    errors += (errors.empty() ? "" : ", ") + json_string(e);
  }
  meta += ", \"errors\": [" + errors + "]}}";

  std::cout << meta << "\n";
  std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
