#include "routing/minimal.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

TEST(MinimalRouting, ZeroLoadLatencyMatchesAnalyticBase) {
  // At near-zero load, the average latency must equal the average
  // analytic base latency (no queueing, no misrouting).
  const SimConfig cfg = quick("min", "uniform", /*load=*/0.005);
  const SimResult r = run_checked(cfg);
  ASSERT_GT(r.delivered_packets, 50);
  EXPECT_NEAR(r.avg_latency, r.components.base, 3.0);
  EXPECT_NEAR(r.components.misroute, 0.0, 1e-9);
  EXPECT_LT(r.components.injection_queue, 3.0);
  EXPECT_LT(r.components.local_queue + r.components.global_queue, 3.0);
}

TEST(MinimalRouting, HopCountsNeverExceedMinimal) {
  const SimConfig cfg = quick("min", "uniform", 0.1);
  const SimResult r = run_checked(cfg);
  // lgl worst case: <= 2 local, <= 1 global on average strictly less.
  EXPECT_LE(r.avg_local_hops, 2.0);
  EXPECT_LE(r.avg_global_hops, 1.0);
  EXPECT_NEAR(r.components.misroute, 0.0, 1e-9);
}

TEST(MinimalRouting, UniformLowLoadDeliversOfferedLoad) {
  const SimConfig cfg = quick("min", "uniform", 0.3);
  const SimResult r = run_checked(cfg);
  EXPECT_NEAR(r.accepted_load, 0.3, 0.02);
}

TEST(MinimalRouting, AdversarialThroughputCapIsOneOverAP) {
  // Paper Sec. III: MIN under ADV is limited to 1/(a*p) phits/node/cycle.
  const SimConfig cfg = quick("min", "adv", 0.5);
  const SimResult r = run_checked(cfg);
  const double cap =
      1.0 / (static_cast<double>(cfg.topo.a) * static_cast<double>(cfg.topo.p));
  EXPECT_LE(r.accepted_load, cap * 1.15);
  EXPECT_GT(r.accepted_load, cap * 0.5);
}

TEST(MinimalRouting, AdvcThroughputCapIsHOverAP) {
  // Paper Sec. III: MIN under ADVc is limited to h/(a*p) — less severe
  // than ADV by a factor of h.
  const SimConfig cfg = quick("min", "advc", 0.5);
  const SimResult r = run_checked(cfg);
  const double cap = static_cast<double>(cfg.topo.h) /
                     (static_cast<double>(cfg.topo.a) *
                      static_cast<double>(cfg.topo.p));
  EXPECT_LE(r.accepted_load, cap * 1.15);
  EXPECT_GT(r.accepted_load, cap * 0.6);
}

TEST(MinimalRouting, IntraGroupTrafficStaysLocal) {
  // A placement covering exactly one group generates no global hops.
  SimConfig cfg = quick("min", "placement", 0.2);
  cfg.placement_first_group = 1;
  cfg.placement_num_groups = 1;
  const SimResult r = run_checked(cfg);
  ASSERT_GT(r.delivered_packets, 100);
  EXPECT_DOUBLE_EQ(r.avg_global_hops, 0.0);
  EXPECT_LE(r.avg_local_hops, 1.0);
}

}  // namespace
}  // namespace dragonfly
