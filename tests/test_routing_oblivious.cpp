#include "routing/oblivious.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

TEST(ObliviousRouting, ValiantBeatsMinimalUnderAdversarial) {
  const SimResult min = run_checked(quick("min", "adv", 0.35));
  const SimResult val = run_checked(quick("val-rrg", "adv", 0.35));
  EXPECT_GT(val.accepted_load, 2.0 * min.accepted_load);
}

TEST(ObliviousRouting, RrgUsesLongerPathsThanCrg) {
  // Paper Sec. V-A: "RRG employs in average longer paths than CRG
  // (because of the extra local hop in the source group)".
  const SimResult rrg = run_checked(quick("val-rrg", "adv", 0.2));
  const SimResult crg = run_checked(quick("val-crg", "adv", 0.2));
  EXPECT_GT(rrg.avg_local_hops, crg.avg_local_hops + 0.4);
  EXPECT_GT(rrg.avg_latency, crg.avg_latency);
}

TEST(ObliviousRouting, ValiantPathsAreBounded) {
  // l g l g l at most: <= 3 local, <= 2 global.
  for (const char* kind : {"val-rrg", "val-crg", "val-nrg"}) {
    const SimResult r = run_checked(quick(kind, "advc", 0.2));
    EXPECT_LE(r.avg_local_hops, 3.0) << kind;
    EXPECT_LE(r.avg_global_hops, 2.0) << kind;
    EXPECT_GT(r.avg_global_hops, 1.0) << kind;
  }
}

TEST(ObliviousRouting, CrgSkipsSourceLocalHopAtLowLoad) {
  // Oblivious-CRG's first leg starts with the source router's own global
  // link ("saves the (frequent) first local hop").
  const SimResult crg = run_checked(quick("val-crg", "advc", 0.05));
  const SimResult rrg = run_checked(quick("val-rrg", "advc", 0.05));
  // RRG pays ~(a-1)/a extra local hops on the first leg.
  EXPECT_LT(crg.avg_local_hops, rrg.avg_local_hops - 0.3);
}

TEST(ObliviousRouting, FairUnderAdvc) {
  // Paper Fig. 4 / Table II: oblivious non-minimal routing shows no
  // throughput unfairness under ADVc.
  for (const char* kind : {"val-rrg", "val-crg"}) {
    const SimResult r = run_checked(quick(kind, "advc", 0.25));
    EXPECT_LT(r.fairness.cov, 0.08) << kind;
    EXPECT_LT(r.fairness.max_over_min, 1.5) << kind;
  }
}

TEST(ObliviousRouting, UniformThroughputHalvesVersusMinimal) {
  // Valiant doubles the average path length, so the saturation load under
  // UN is roughly half of minimal routing's.
  const SimResult min = run_checked(quick("min", "uniform", 0.9));
  const SimResult val = run_checked(quick("val-rrg", "uniform", 0.9));
  EXPECT_GT(min.accepted_load, 0.74);
  EXPECT_LT(val.accepted_load, 0.65);
  EXPECT_GT(val.accepted_load, 0.3);
}

TEST(ObliviousRouting, NrgAlwaysTakesSourceLocalHop) {
  const SimResult nrg = run_checked(quick("val-nrg", "advc", 0.05));
  // First leg always l+g: local hops >= 1 (plus intermediate/dest hops).
  EXPECT_GT(nrg.avg_local_hops, 1.5);
}

}  // namespace
}  // namespace dragonfly
