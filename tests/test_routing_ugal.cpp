#include "routing/ugal.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

TEST(UgalRouting, BehavesLikeMinimalUnderUniformLowLoad) {
  const SimResult ugal = run_checked(quick("ugal-rrg", "uniform", 0.1));
  const SimResult min = run_checked(quick("min", "uniform", 0.1));
  EXPECT_NEAR(ugal.avg_latency, min.avg_latency, 15.0);
  EXPECT_LT(ugal.components.misroute, 10.0);
}

TEST(UgalRouting, DivertsUnderAdversarialTraffic) {
  const SimConfig cfg = quick("ugal-rrg", "adv", 0.35);
  const SimResult r = run_checked(cfg);
  const double min_cap =
      1.0 / (static_cast<double>(cfg.topo.a) * static_cast<double>(cfg.topo.p));
  EXPECT_GT(r.accepted_load, 2.0 * min_cap);
  EXPECT_GT(r.avg_global_hops, 1.4);
}

TEST(UgalRouting, SustainsUniformHighLoad) {
  // The length-weighted comparison must keep most traffic minimal at
  // high UN load (unlike oblivious Valiant).
  const SimResult r = run_checked(quick("ugal-rrg", "uniform", 0.6));
  EXPECT_GT(r.accepted_load, 0.55);
}

TEST(UgalRouting, PathShapesBounded) {
  for (const char* traffic : {"uniform", "advc"}) {
    const SimResult r = run_checked(quick("ugal-crg", traffic, 0.3));
    EXPECT_LE(r.avg_global_hops, 2.0);
    EXPECT_LE(r.avg_local_hops, 3.0);
    EXPECT_GT(r.delivered_packets, 100);
  }
}

TEST(UgalRouting, UsesTheSourceAdaptiveVcCount) {
  SimConfig cfg;
  cfg.routing_name = "ugal-rrg";
  cfg.apply_vc_defaults();
  EXPECT_EQ(cfg.local_vcs, 4);  // Table I: source-adaptive VC count
}

TEST(UgalRouting, Names) {
  const SimConfig cfg = quick("ugal-rrg", "uniform", 0.1);
  const DragonflyTopology topo(cfg.topo, make_arrangement(cfg.arrangement));
  EXPECT_EQ(UgalRouting(topo, cfg, MisroutePolicy::kRrg).name(), "UGAL-RRG");
  EXPECT_EQ(UgalRouting(topo, cfg, MisroutePolicy::kCrg).name(), "UGAL-CRG");
  EXPECT_EQ(routing_registry().resolve("UGAL-CRG"), "ugal-crg");
}

}  // namespace
}  // namespace dragonfly
