#include "sim/network.hpp"

#include <gtest/gtest.h>


#include "common/checkpoint.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;

TEST(Network, BuildsConfiguredTopology) {
  const SimConfig cfg = quick("min", "uniform", 0.1);
  Network net(cfg);
  EXPECT_EQ(net.num_routers(), cfg.topo.num_routers());
  EXPECT_EQ(net.num_nodes(), cfg.topo.num_nodes());
  EXPECT_EQ(net.generating_nodes(), cfg.topo.num_nodes());
  EXPECT_EQ(net.now(), 0);
}

TEST(Network, PlacementLimitsGeneratingNodes) {
  SimConfig cfg = quick("min", "placement", 0.1);
  cfg.placement_first_group = 0;
  cfg.placement_num_groups = 2;
  Network net(cfg);
  EXPECT_EQ(net.generating_nodes(), 2 * cfg.topo.a * cfg.topo.p);
}

TEST(Network, StepAdvancesTime) {
  Network net(quick("min", "uniform", 0.1));
  for (int i = 0; i < 10; ++i) net.step();
  EXPECT_EQ(net.now(), 10);
}

TEST(Network, DeterministicAcrossIdenticalRuns) {
  const SimConfig cfg = quick("par-mm", "advc", 0.3);
  Network a(cfg);
  Network b(cfg);
  for (int i = 0; i < 2'000; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.generated_packets_total(), b.generated_packets_total());
  EXPECT_EQ(a.collector().delivered_packets_total(),
            b.collector().delivered_packets_total());
  EXPECT_EQ(a.total_forward_progress(), b.total_forward_progress());
  for (RouterId r = 0; r < a.num_routers(); ++r) {
    EXPECT_EQ(a.router(r).injected_packets_total(),
              b.router(r).injected_packets_total());
  }
}

TEST(Network, DifferentSeedsProduceDifferentTraffic) {
  SimConfig cfg = quick("min", "uniform", 0.3);
  Network a(cfg);
  cfg.seed = 999;
  Network b(cfg);
  for (int i = 0; i < 500; ++i) {
    a.step();
    b.step();
  }
  EXPECT_NE(a.total_forward_progress(), b.total_forward_progress());
}

TEST(Network, ConservationHoldsDuringAndAfterRun) {
  const SimConfig cfg = quick("val-rrg", "advc", 0.4);
  Network net(cfg);
  for (int chunk = 0; chunk < 5; ++chunk) {
    for (int i = 0; i < 600; ++i) net.step();
    testutil::expect_conservation(net);
  }
  EXPECT_GT(net.collector().delivered_packets_total(), 0);
}

TEST(Network, MeasurementWindowGatesCounters) {
  const SimConfig cfg = quick("min", "uniform", 0.2);
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  EXPECT_EQ(net.generated_packets_measured(), 0);
  const auto before = net.injections_per_router();
  for (const auto count : before) EXPECT_EQ(count, 0);

  net.begin_measurement();
  for (int i = 0; i < 500; ++i) net.step();
  net.end_measurement();
  EXPECT_GT(net.generated_packets_measured(), 0);
  std::int64_t injected = 0;
  for (const auto count : net.injections_per_router()) injected += count;
  EXPECT_GT(injected, 0);

  // After the window closes, measured counters freeze.
  const auto frozen = net.generated_packets_measured();
  for (int i = 0; i < 300; ++i) net.step();
  EXPECT_EQ(net.generated_packets_measured(), frozen);
}

TEST(Network, ZeroLoadStaysIdle) {
  SimConfig cfg = quick("min", "uniform", 0.0);
  Network net(cfg);
  for (int i = 0; i < 300; ++i) net.step();
  EXPECT_EQ(net.generated_packets_total(), 0);
  EXPECT_EQ(net.packets().live(), 0u);
}

TEST(Network, RejectsInvalidConfig) {
  SimConfig cfg = quick("min", "uniform", 0.1);
  cfg.global_vcs = 1;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

void expect_same_state(Network& a, Network& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.dispatched_events(), b.dispatched_events());
  EXPECT_EQ(a.generated_packets_total(), b.generated_packets_total());
  EXPECT_EQ(a.total_forward_progress(), b.total_forward_progress());
  EXPECT_EQ(a.packets().live(), b.packets().live());
  EXPECT_EQ(a.collector().delivered_packets_total(),
            b.collector().delivered_packets_total());
  ASSERT_EQ(a.num_routers(), b.num_routers());
  for (RouterId r = 0; r < a.num_routers(); ++r) {
    EXPECT_EQ(a.router(r).injected_packets_total(),
              b.router(r).injected_packets_total());
  }
}

TEST(Network, ActiveAndScanKernelsAgreeCycleByCycle) {
  // The bit-identity contract at network level: the active-set kernel
  // and the dense reference scan make the same RNG draws and the same
  // state transitions every cycle (paranoid sweeps on, both kernels).
  SimConfig cfg = quick("par-mm", "advc", 0.35);
  cfg.sim_paranoid = 64;
  cfg.kernel = SimKernel::kActive;
  Network active(cfg);
  cfg.kernel = SimKernel::kScan;
  Network scan(cfg);
  for (int i = 0; i < 2'500; ++i) {
    active.step();
    scan.step();
  }
  expect_same_state(active, scan);
}

TEST(Network, CheckpointStreamsAreKernelIndependent) {
  // A checkpoint taken under one kernel resumes under the other: the
  // serialized state carries no kernel-specific structures (the
  // transmit calendar and activation sets are re-derived on load).
  SimConfig cfg = quick("par-mm", "advc", 0.35);
  cfg.kernel = SimKernel::kActive;
  Network active(cfg);
  for (int i = 0; i < 1'200; ++i) active.step();
  CheckpointWriter writer;
  active.save(writer);

  cfg.kernel = SimKernel::kScan;
  Network resumed(cfg);
  CheckpointReader reader(writer.bytes());
  resumed.load(reader);
  ASSERT_NO_THROW(resumed.check_invariants());
  for (int i = 0; i < 1'000; ++i) {
    active.step();
    resumed.step();
  }
  expect_same_state(active, resumed);
  ASSERT_NO_THROW(resumed.check_invariants());
  ASSERT_NO_THROW(active.check_invariants());
}

}  // namespace
}  // namespace dragonfly
