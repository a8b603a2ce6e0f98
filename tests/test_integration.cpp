// Cross-mechanism integration and property tests: every routing mechanism
// under every traffic pattern must deliver traffic, conserve packets and
// keep the latency decomposition exact.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;
using testutil::run_checked;

class MechanismTraffic
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(MechanismTraffic, DeliversTrafficAndConserves) {
  const auto [routing, traffic] = GetParam();
  const SimResult r = run_checked(quick(routing, traffic, 0.15));
  EXPECT_GT(r.delivered_packets, 100);
  EXPECT_GT(r.accepted_load, 0.05);
  EXPECT_GT(r.avg_latency, 0.0);
  // Decomposition components are non-negative and sum to the mean.
  EXPECT_GE(r.components.base, 0.0);
  EXPECT_GE(r.components.misroute, -1e-9);
  EXPECT_GE(r.components.local_queue, 0.0);
  EXPECT_GE(r.components.global_queue, 0.0);
  EXPECT_GE(r.components.injection_queue, 0.0);
  EXPECT_NEAR(r.components.total(), r.avg_latency, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, MechanismTraffic,
    ::testing::Combine(
        ::testing::Values("min", "val-rrg", "val-crg", "val-nrg", "pb-rrg",
                          "pb-crg", "ugal-rrg", "ugal-crg", "par-rrg",
                          "par-crg", "par-mm"),
        ::testing::Values("uniform", "adv", "advc", "shift", "hotspot")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

class MechanismRadix
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MechanismRadix, WorksAcrossNetworkSizes) {
  const auto [routing, h] = GetParam();
  const SimResult r = run_checked(quick(routing, "advc", 0.2, h));
  EXPECT_GT(r.delivered_packets, 20);
  EXPECT_NEAR(r.components.total(), r.avg_latency, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MechanismRadix,
    ::testing::Combine(::testing::Values("min", "val-crg", "pb-rrg", "par-mm"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_h" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(Integration, SeedsChangeResultsButNotInvariants) {
  SimConfig cfg = quick("par-mm", "advc", 0.3);
  std::vector<std::int64_t> delivered;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    cfg.seed = seed;
    const SimResult r = run_checked(cfg);
    delivered.push_back(r.delivered_packets);
    EXPECT_GT(r.delivered_packets, 100);
  }
  // Different seeds should not all coincide.
  EXPECT_FALSE(delivered[0] == delivered[1] && delivered[1] == delivered[2]);
}

TEST(Integration, AcceptedLoadTracksOfferedBelowSaturation) {
  for (double load : {0.05, 0.1, 0.2}) {
    const SimResult r = run_checked(quick("par-mm", "uniform", load));
    EXPECT_NEAR(r.accepted_load, load, 0.02) << "load " << load;
  }
}

TEST(Integration, LatencyIsMonotoneInLoadUnderUniformMin) {
  double last = 0.0;
  for (double load : {0.1, 0.5, 0.8}) {
    const SimResult r = run_checked(quick("min", "uniform", load));
    EXPECT_GT(r.avg_latency, last) << "load " << load;
    last = r.avg_latency;
  }
}

TEST(Integration, OversaturationKeepsAcceptedAtCapacity) {
  // Offered 0.9 vs 0.5: accepted load at/above saturation is flat.
  const SimResult high = run_checked(quick("val-rrg", "uniform", 0.9));
  const SimResult higher = run_checked(quick("val-rrg", "uniform", 1.0));
  EXPECT_NEAR(high.accepted_load, higher.accepted_load, 0.05);
}

TEST(Integration, TransitPriorityImprovesNothingAtLowLoad) {
  // At low UN load the priority is irrelevant: same latency either way.
  SimConfig with = quick("min", "uniform", 0.1);
  SimConfig without = with;
  without.transit_priority = false;
  const SimResult a = run_checked(with);
  const SimResult b = run_checked(without);
  EXPECT_NEAR(a.avg_latency, b.avg_latency, 5.0);
}

TEST(Integration, PlacementTrafficCreatesAdvcBottleneck) {
  // Paper Sec. III: an application on h+1 consecutive groups turns
  // uniform application traffic into ADVc-like flows — the job's last
  // routers see reduced injection with in-transit routing + priority.
  SimConfig cfg = quick("par-mm", "placement", 0.35, /*h=*/3);
  cfg.placement_first_group = 0;
  cfg.placement_num_groups = cfg.topo.h + 1;
  const SimResult r = run_checked(cfg);
  ASSERT_GT(r.delivered_packets, 100);
  EXPECT_GT(r.fairness.max_over_min, 1.2);
}

}  // namespace
}  // namespace dragonfly
