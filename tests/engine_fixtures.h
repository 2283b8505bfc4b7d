// Test fixture: one body, both event engines.  Fault-model tests run
// the same code on the serial Network and on ShardedNetwork at S=1 and
// S=4 (on three nodes, S=4 gives every node its own shard).

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "flooding/network.h"
#include "flooding/shard_net.h"

namespace lhg::flooding::testing_engines {

using core::Graph;
using core::NodeId;

/// The path 0 - 1 - 2.
inline Graph path3() {
  return Graph::from_edges(3, std::vector<core::Edge>{{0, 1}, {1, 2}});
}

// `at(t, node, fn)` runs `fn(shard)` as an event of `node`, where
// `send(shard, ...)` is legal; the serial engine passes shard 0.
class SerialEngine {
 public:
  explicit SerialEngine(const Graph& g, double latency = 1.0)
      : net_(g, sim_, LatencySpec::fixed(latency), rng_) {}
  Network& net() { return net_; }
  template <typename F>
  void at(double t, NodeId /*node*/, F fn) {
    sim_.schedule_at(t, [fn = std::move(fn)]() mutable { fn(0); });
  }
  bool send(std::int32_t /*shard*/, NodeId from, NodeId to,
            std::int64_t message) {
    return net_.send(from, to, message);
  }
  void count_receipts(int* received) {
    net_.set_receive_handler(
        [received](NodeId, NodeId, std::int64_t) { ++*received; });
  }
  void run() { sim_.run(); }

 private:
  Simulator sim_;
  core::Rng rng_{1};
  Network net_;
};

template <std::int32_t Shards>
class ShardedEngine {
 public:
  explicit ShardedEngine(const Graph& g, double latency = 1.0)
      : sim_(g.num_nodes(), Shards),
        net_(g, sim_, LatencySpec::fixed(latency), rng_, ChaosSpec::none()) {}
  ShardedNetwork<Graph>& net() { return net_; }
  template <typename F>
  void at(double t, NodeId node, F fn) {
    sim_.schedule_node_at(ShardedSimulator::kEnvOrigin, t, node, std::move(fn));
  }
  bool send(std::int32_t shard, NodeId from, NodeId to,
            std::int64_t message) {
    return net_.send(shard, from, to, message);
  }
  void count_receipts(int* received) {
    // Atomic-free: every test that counts receipts delivers to node 1
    // only, so one shard writes the counter.
    net_.set_receive_handler([received](std::int32_t, NodeId, NodeId,
                                        std::int64_t) { ++*received; });
  }
  void run() { sim_.run(); }

 private:
  ShardedSimulator sim_;
  core::Rng rng_{1};
  ShardedNetwork<Graph> net_;
};

/// Runs `body.template operator()<Engine>()` on every engine.
template <typename Body>
void on_every_engine(Body body) {
  {
    SCOPED_TRACE("serial Network");
    body.template operator()<SerialEngine>();
  }
  {
    SCOPED_TRACE("ShardedNetwork, S=1");
    body.template operator()<ShardedEngine<1>>();
  }
  {
    SCOPED_TRACE("ShardedNetwork, S=4");
    body.template operator()<ShardedEngine<4>>();
  }
}

}  // namespace lhg::flooding::testing_engines
