#include "sim/node.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/checkpoint.hpp"
#include "sim/hot_state.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;

TEST(Node, GenerationRateMatchesBernoulliProcess) {
  // Aggregate generation over all nodes must match load/packet_size per
  // node per cycle.
  const SimConfig cfg = quick("min", "uniform", 0.2);
  Network net(cfg);
  const int cycles = 4'000;
  for (int i = 0; i < cycles; ++i) net.step();
  const double expected = 0.2 / 8.0 * cycles * net.num_nodes();
  EXPECT_NEAR(static_cast<double>(net.generated_packets_total()), expected,
              expected * 0.05);
}

TEST(Node, InjectionLinkLimitsRate) {
  // A node's link carries 1 phit/cycle: even at absurd load, at most one
  // packet every packet_size cycles enters the router.
  SimConfig cfg = quick("min", "uniform", 7.9);
  cfg.warmup_cycles = 0;
  Network net(cfg);
  const int cycles = 800;
  for (int i = 0; i < cycles; ++i) net.step();
  // Injected (left the node) at most cycles/8 per node, with slack for
  // the first burst.
  for (RouterId r = 0; r < net.num_routers(); ++r) {
    // injected_packets_total counts grants out of injection ports, which
    // is below what entered the buffers; bound holds transitively.
    EXPECT_LE(net.router(r).injected_packets_total(),
              (cycles / 8 + 2) * cfg.topo.p);
  }
}

TEST(Node, SourceQueueIsBounded) {
  // Oversaturated MIN/ADV: node queues must stay at their cap, not grow
  // without bound (memory safety at full scale).
  SimConfig cfg = quick("min", "adv", 1.0);
  cfg.warmup_cycles = 0;
  Network net(cfg);
  for (int i = 0; i < 5'000; ++i) net.step();
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_LE(net.node(n).queue_length(),
              static_cast<std::size_t>(cfg.node_queue_capacity));
  }
  // Live packets bounded: node queues + in-network.
  EXPECT_LT(net.packets().live(),
            static_cast<std::size_t>(net.num_nodes() *
                                     (cfg.node_queue_capacity + 24)));
}

TEST(Node, SilentNodesGenerateNothing) {
  SimConfig cfg = quick("min", "placement", 0.5);
  cfg.placement_first_group = 0;
  cfg.placement_num_groups = 1;
  Network net(cfg);
  for (int i = 0; i < 1'000; ++i) net.step();
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    if (net.topology().group_of_node(n) != 0) {
      EXPECT_EQ(net.node(n).generated_total(), 0) << "node " << n;
      EXPECT_FALSE(net.node(n).generates());
    }
  }
  EXPECT_GT(net.generated_packets_total(), 0);
}

TEST(Node, MeasuredCounterFollowsWindow) {
  const SimConfig cfg = quick("min", "uniform", 0.3);
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  EXPECT_EQ(net.node(0).generated_measured(), 0);
  net.begin_measurement();
  for (int i = 0; i < 2'000; ++i) net.step();
  const auto measured = net.generated_packets_measured();
  EXPECT_GT(measured, 0);
  EXPECT_LT(measured, net.generated_packets_total());
}

TEST(Node, InjectionBacklogStaysWithinOneBufferWindow) {
  // The node keeps at most ~one buffer's worth of standing packets in the
  // router's injection port (DESIGN.md §8.4).
  SimConfig cfg = quick("min", "adv", 1.0);
  cfg.warmup_cycles = 0;
  Network net(cfg);
  for (int i = 0; i < 3'000; ++i) net.step();
  for (RouterId r = 0; r < net.num_routers(); ++r) {
    for (int i = 0; i < cfg.topo.p; ++i) {
      EXPECT_LE(net.router(r).input(i).total_occupancy(),
                cfg.local_input_buffer + cfg.packet_size);
    }
  }
}

TEST(Node, StandaloneNodeKeepsItsHotStateInTheBoundLanes) {
  // A node outside a Network binds a small NodeHot of its own, as the
  // router fixtures bind a HotState: RNG lane, Bernoulli threshold/mode
  // and the queue-full byte all live in lane `id`.
  SimConfig cfg = quick("min", "uniform", 0.2);
  cfg.node_queue_capacity = 2;
  Network net(cfg);  // supplies the router, routing and pattern
  constexpr NodeId kId = 1;
  NodeHot hot;
  hot.init(kId + 1, cfg.node_queue_capacity);
  PacketStore store;
  const Rng rng(42);
  Node node(kId, &net.router(net.topology().router_of_node(kId)),
            &net.traffic(), &net.routing(), &store, &cfg, rng, hot);

  EXPECT_EQ(hot.s0()[kId], rng.state()[0]);
  EXPECT_EQ(hot.s3()[kId], rng.state()[3]);
  EXPECT_EQ(hot.mode()[kId], 0);
  EXPECT_EQ(hot.threshold()[kId], Rng::bernoulli_threshold(0.2 / 8.0));
  node.set_offered_load(0.0, cfg.packet_size);
  EXPECT_EQ(hot.mode()[kId], 1);

  // Directed sends fill the two-packet source queue; the blocked byte
  // follows.
  EXPECT_EQ(hot.blocked()[kId], 0);
  EXPECT_TRUE(node.post_send(0, 0, false, -1));
  EXPECT_TRUE(node.post_send(0, 0, false, -1));
  EXPECT_FALSE(node.post_send(0, 0, false, -1));
  EXPECT_EQ(hot.blocked()[kId], 1);
  EXPECT_EQ(node.queue_length(), 2u);
  EXPECT_EQ(store.live(), 2u);
  // Untouched lanes keep NodeHot's defaults.
  EXPECT_EQ(hot.mode()[0], 1);
  EXPECT_EQ(hot.blocked()[0], 0);
}

TEST(Node, LoadAcceptsAFullSourceQueueAndRejectsOneMore) {
  // The source queue's storage is fixed at node_queue_capacity packets,
  // so a longer stored queue cannot come from this config.
  SimConfig cfg = quick("min", "uniform", 0.2);
  cfg.node_queue_capacity = 2;
  Network net(cfg);
  NodeHot hot;
  hot.init(1, cfg.node_queue_capacity);
  PacketStore store;
  Node node(0, &net.router(net.topology().router_of_node(0)), &net.traffic(),
            &net.routing(), &store, &cfg, Rng(42), hot);
  // Node::save's layout: RNG words, queue, injection bookkeeping,
  // counters, workload gate and job.
  auto stream = [](int queued) {
    CheckpointWriter ck;
    for (std::uint64_t word = 1; word <= 4; ++word) ck.u64(word);
    ck.u64(static_cast<std::uint64_t>(queued));
    for (PacketRef ref = 0; ref < queued; ++ref) ck.pkt(ref);
    ck.i32(0);
    ck.i64(0);
    ck.i64(queued);
    ck.i64(0);
    ck.boolean(true);
    ck.i32(-1);
    return ck.take();
  };
  const std::string full = stream(2);
  CheckpointReader ok(full);
  node.load(ok);
  EXPECT_EQ(node.queue_length(), 2u);
  EXPECT_EQ(hot.blocked()[0], 1);

  const std::string over = stream(3);
  CheckpointReader bad(over);
  EXPECT_THROW(node.load(bad), std::runtime_error);
}

}  // namespace
}  // namespace dragonfly
