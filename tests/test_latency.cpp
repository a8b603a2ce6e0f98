#include "metrics/latency.hpp"

#include "topology/dragonfly.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

class BaseLatencyFixture : public ::testing::Test {
 protected:
  DragonflyTopology topo_ = DragonflyTopology::balanced_palmtree(2);
  SimConfig cfg_ = SimConfig::small(2);
};

TEST_F(BaseLatencyFixture, SameRouterPath) {
  // 0 links: one pipeline + serialization.
  const NodeId a = topo_.node_id(0, 0);
  const NodeId b = topo_.node_id(0, 1);
  EXPECT_EQ(base_latency(topo_, cfg_, a, b),
            cfg_.pipeline_latency + cfg_.packet_size);
}

TEST_F(BaseLatencyFixture, IntraGroupPath) {
  // 1 local link: 2 pipelines + local latency + serialization.
  const NodeId a = topo_.node_id(topo_.router_id(0, 0), 0);
  const NodeId b = topo_.node_id(topo_.router_id(0, 1), 0);
  EXPECT_EQ(base_latency(topo_, cfg_, a, b),
            2 * cfg_.pipeline_latency + cfg_.local_latency + cfg_.packet_size);
}

TEST_F(BaseLatencyFixture, FullLglPath) {
  // Find a node pair whose minimal path is l+g+l.
  for (NodeId a = 0; a < topo_.num_nodes(); ++a) {
    for (NodeId b = 0; b < topo_.num_nodes(); ++b) {
      const PathLengths len = topo_.minimal_lengths(a, b);
      if (len.local == 2 && len.global == 1) {
        EXPECT_EQ(base_latency(topo_, cfg_, a, b),
                  4 * cfg_.pipeline_latency + 2 * cfg_.local_latency +
                      cfg_.global_latency + cfg_.packet_size);
        return;
      }
    }
  }
  FAIL() << "no lgl pair found";
}

TEST_F(BaseLatencyFixture, PaperScaleZeroLoadFloor) {
  // The paper's Fig. 2a latency floor is ~150 cycles; the analytic lgl
  // base with Table I parameters is 148.
  const DragonflyTopology paper = DragonflyTopology::balanced_palmtree(6);
  const SimConfig cfg = SimConfig::paper();
  for (NodeId b = 0; b < paper.num_nodes(); ++b) {
    const PathLengths len = paper.minimal_lengths(0, b);
    if (len.local == 2 && len.global == 1) {
      EXPECT_EQ(base_latency(paper, cfg, 0, b), 148);
      return;
    }
  }
  FAIL() << "no lgl pair found";
}

TEST(LatencyAccumulator, ComponentsAndMeans) {
  LatencyAccumulator acc;
  Packet pkt;
  pkt.t_gen = 0;
  pkt.size_phits = 8;
  pkt.structural = 100;
  pkt.wait_injection = 10;
  pkt.wait_local = 20;
  pkt.wait_global = 30;
  pkt.local_hops = 2;
  pkt.global_hops = 1;
  // delivered = structural + serialization + waits = 108 + 60 = 168.
  acc.add(pkt, /*delivered=*/168, /*base=*/90);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean_latency(), 168.0);
  const LatencyComponents c = acc.components();
  EXPECT_DOUBLE_EQ(c.base, 90.0);
  EXPECT_DOUBLE_EQ(c.misroute, 18.0);  // (100+8) - 90
  EXPECT_DOUBLE_EQ(c.local_queue, 20.0);
  EXPECT_DOUBLE_EQ(c.global_queue, 30.0);
  EXPECT_DOUBLE_EQ(c.injection_queue, 10.0);
  EXPECT_DOUBLE_EQ(c.total(), 168.0);  // decomposition is exact
  EXPECT_DOUBLE_EQ(acc.mean_local_hops(), 2.0);
  EXPECT_DOUBLE_EQ(acc.mean_global_hops(), 1.0);
}

TEST(LatencyAccumulator, MergeCombinesStreams) {
  LatencyAccumulator a;
  LatencyAccumulator b;
  Packet pkt;
  pkt.size_phits = 8;
  pkt.structural = 92;
  pkt.t_gen = 0;
  a.add(pkt, 100, 100);
  b.add(pkt, 100, 100);
  b.add(pkt, 100, 100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean_latency(), 100.0);
}

TEST(LatencyDecomposition, HoldsForEveryDeliveredPacket) {
  // The collector asserts the identity per packet and throws on drift —
  // run a mixed simulation to exercise it under congestion and
  // misrouting (an exception would fail the test).
  const SimConfig cfg = testutil::quick("par-mm", "advc", 0.35);
  const SimResult r = testutil::run_checked(cfg);
  ASSERT_GT(r.delivered_packets, 500);
  const LatencyComponents& c = r.components;
  EXPECT_NEAR(c.total(), r.avg_latency, 1e-6);
  EXPECT_GT(c.misroute, 0.0);  // ADVc forces non-minimal paths
}

}  // namespace
}  // namespace dragonfly
