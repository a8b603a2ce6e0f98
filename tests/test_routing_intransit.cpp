#include "routing/in_transit.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

TEST(InTransitRouting, BehavesLikeMinimalUnderUniformLowLoad) {
  const SimResult it = run_checked(quick("par-mm", "uniform", 0.1));
  const SimResult min = run_checked(quick("min", "uniform", 0.1));
  EXPECT_NEAR(it.avg_latency, min.avg_latency, 10.0);
  EXPECT_LT(it.components.misroute, 5.0);
}

TEST(InTransitRouting, KeepsMinimalThroughputUnderUniformHighLoad) {
  // Unlike oblivious Valiant, the adaptive mechanism must sustain high UN
  // throughput (it only misroutes when blocked).
  const SimResult it = run_checked(quick("par-mm", "uniform", 0.7));
  EXPECT_GT(it.accepted_load, 0.65);
}

TEST(InTransitRouting, DivertsUnderAdversarialTraffic) {
  const SimConfig cfg = quick("par-mm", "adv", 0.3);
  const SimResult it = run_checked(cfg);
  const double min_cap =
      1.0 / (static_cast<double>(cfg.topo.a) * static_cast<double>(cfg.topo.p));
  EXPECT_GT(it.accepted_load, 1.6 * min_cap);
  EXPECT_GT(it.avg_global_hops, 1.2);  // substantial misrouting
}

TEST(InTransitRouting, AdvcBottleneckStarvesWithPriority) {
  // The paper's headline result (Fig. 4 / Table II): with transit-over-
  // injection priority, the bottleneck router's injection collapses for
  // every global misrouting policy.
  for (const char* kind : {"par-rrg", "par-crg", "par-mm"}) {
    SimConfig cfg = quick(kind, "advc", 0.3, /*h=*/3);
    cfg.transit_priority = true;
    const SimResult r = run_checked(cfg);
    const double fair_share =
        r.fairness.mean;  // average injections per router
    EXPECT_LT(r.fairness.min_injections, 0.55 * fair_share) << kind;
    EXPECT_GT(r.fairness.cov, 0.05) << kind;
  }
}

TEST(InTransitRouting, BottleneckRouterIsTheStarvedOne) {
  SimConfig cfg = quick("par-mm", "advc", 0.3, /*h=*/3);
  const SimResult r = run_checked(cfg);
  // Find the minimum-injection router: it must be a group's last router
  // (the palmtree ADVc bottleneck).
  std::size_t argmin = 0;
  for (std::size_t i = 1; i < r.injections_per_router.size(); ++i) {
    if (r.injections_per_router[i] < r.injections_per_router[argmin]) {
      argmin = i;
    }
  }
  EXPECT_EQ(static_cast<int>(argmin) % cfg.topo.a, cfg.topo.a - 1);
}

TEST(InTransitRouting, RemovingPriorityRestoresFairness) {
  // Paper Sec. V-C (Fig. 6 / Table III): removing the priority vastly
  // improves in-transit fairness.
  SimConfig with = quick("par-mm", "advc", 0.3, /*h=*/3);
  with.transit_priority = true;
  SimConfig without = with;
  without.transit_priority = false;
  const SimResult rw = run_checked(with);
  const SimResult ro = run_checked(without);
  EXPECT_LT(ro.fairness.cov, rw.fairness.cov * 0.8);
  EXPECT_GT(ro.fairness.min_injections, rw.fairness.min_injections);
}

TEST(InTransitRouting, PolicyImpactOnStarvationIsSmall) {
  // Paper: "the impact of the global misrouting policy can be considered
  // trivial" for the starved router.
  std::vector<double> min_inj;
  for (const char* kind : {"par-rrg", "par-crg", "par-mm"}) {
    const SimResult r = run_checked(quick(kind, "advc", 0.3, /*h=*/3));
    min_inj.push_back(r.fairness.min_injections);
  }
  const double fair = 0.3 / 8 * 3000 * 3;  // load/pkt * cycles * p
  for (double m : min_inj) EXPECT_LT(m, 0.6 * fair);
}

TEST(InTransitRouting, PathLengthsBounded) {
  for (const char* traffic : {"uniform", "advc"}) {
    const SimResult r = run_checked(quick("par-mm", traffic, 0.3));
    EXPECT_LE(r.avg_global_hops, 2.0) << traffic;
    EXPECT_LE(r.avg_local_hops, 4.0) << traffic;
  }
}

TEST(InTransitRouting, VariantNames) {
  EXPECT_STREQ(to_string(InTransitVariant::kRrg), "RRG");
  EXPECT_STREQ(to_string(InTransitVariant::kCrg), "CRG");
  EXPECT_STREQ(to_string(InTransitVariant::kMm), "MM");
}

}  // namespace
}  // namespace dragonfly
