#include "routing/piggyback.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

TEST(PiggybackRouting, BehavesLikeMinimalUnderUniformLowLoad) {
  // With no saturated links, PB always picks MIN: same latency profile.
  const SimResult pb = run_checked(quick("pb-rrg", "uniform", 0.1));
  const SimResult min = run_checked(quick("min", "uniform", 0.1));
  EXPECT_NEAR(pb.avg_latency, min.avg_latency, 20.0);
  EXPECT_LT(pb.components.misroute, 15.0);
  EXPECT_NEAR(pb.avg_global_hops, min.avg_global_hops, 0.1);
}

TEST(PiggybackRouting, DivertsUnderAdversarialTraffic) {
  // ADV saturates the single minimal global link; the saturation bit
  // must fire and PB must route a large fraction through Valiant paths.
  const SimResult pb = run_checked(quick("pb-rrg", "adv", 0.35));
  EXPECT_GT(pb.avg_global_hops, 1.5);  // mostly 2-global-hop paths
  // And it must clearly beat MIN's 1/(a*p) cap.
  const SimConfig cfg = quick("min", "adv", 0.35);
  const double min_cap =
      1.0 / (static_cast<double>(cfg.topo.a) * static_cast<double>(cfg.topo.p));
  EXPECT_GT(pb.accepted_load, 2.0 * min_cap);
}

TEST(PiggybackRouting, CommitsAtInjectionNoMidRouteSwitch) {
  // Once injected, PB packets have exactly lgl (<=3 links) or lglgl
  // (<=5 links) shapes: global hops are 1 or 2, never more.
  const SimResult pb = run_checked(quick("pb-crg", "advc", 0.3));
  EXPECT_LE(pb.avg_global_hops, 2.0);
  EXPECT_GE(pb.avg_global_hops, 1.0);
}

TEST(PiggybackRouting, SaturationBitsComputedOnBoard) {
  // Build a network directly and inspect the board after refresh under
  // heavy adversarial load: the bottleneck router's minimal link should
  // be flagged; an idle network should have no flags.
  SimConfig cfg = quick("pb-rrg", "adv", /*load=*/0.4);
  Network net(cfg);
  auto& pb = dynamic_cast<PiggybackRouting&>(net.routing());

  // Idle network: no saturation anywhere.
  for (RouterId r = 0; r < net.num_routers(); ++r) {
    for (int k = 0; k < cfg.topo.h; ++k) {
      EXPECT_FALSE(pb.global_link_saturated(r, k));
    }
  }

  // ADV+1: the minimal exit link of group 0 towards group 1 must be
  // flagged a substantial share of the time. (The relative rule is
  // self-balancing — diversion raises the group mean back — so the bit
  // oscillates rather than latching.)
  const auto& topo = net.topology();
  const RouterId exit = topo.exit_router(0, 1);
  const int k = topo.global_index_of_port(topo.exit_port(0, 1));
  for (int i = 0; i < 1'000; ++i) net.step();
  int flagged = 0;
  for (int i = 0; i < 1'000; ++i) {
    net.step();
    flagged += pb.global_link_saturated(exit, k) ? 1 : 0;
  }
  EXPECT_GT(flagged, 20);
  EXPECT_LT(flagged, 1000);  // self-balancing: never latched permanently
}

TEST(PiggybackRouting, AdvcPartialFailureSendsTrafficMinimally) {
  // Paper Sec. V-A: under ADVc PB fails to flag the bottleneck links
  // reliably, so a sizable share still routes minimally: global hops
  // clearly below the all-Valiant value of oblivious routing.
  const SimResult pb = run_checked(quick("pb-rrg", "advc", 0.35));
  const SimResult obl = run_checked(quick("val-rrg", "advc", 0.35));
  EXPECT_LT(pb.avg_global_hops, obl.avg_global_hops - 0.1);
}

TEST(PiggybackRouting, NamesIdentifyPolicy) {
  const SimConfig cfg = quick("pb-rrg", "uniform", 0.1);
  const DragonflyTopology topo(cfg.topo, make_arrangement(cfg.arrangement));
  PiggybackRouting rrg(topo, cfg, MisroutePolicy::kRrg);
  PiggybackRouting crg(topo, cfg, MisroutePolicy::kCrg);
  EXPECT_EQ(rrg.name(), "Src-RRG");
  EXPECT_EQ(crg.name(), "Src-CRG");
}

TEST(PiggybackTwoGroups, RrgFallsBackToMinimalInsteadOfSpinning) {
  // G=2 (reachable through trimmed dragonflies and flatbfly:2,3): no
  // intermediate group exists, so a saturated minimal path must fall
  // back to MIN instead of looping over the group draw forever.
  SimConfig cfg;
  cfg.apply_kv("topology", "dfly:2,2,2,2");
  cfg.routing_name = "pb-rrg";
  cfg.traffic_name = "adv";
  cfg.load = 0.9;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1'200;
  cfg.apply_vc_defaults();
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.delivered_packets, 0);
}

}  // namespace
}  // namespace dragonfly
