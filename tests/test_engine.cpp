// Whole-run behaviour of the simulation engine: run_simulation() results,
// reproducibility, fairness over active routers, saturation and raw
// step-by-step access through Session.
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::expect_identical;
using testutil::quick;

TEST(Engine, RunProducesConsistentResult) {
  const SimConfig cfg = quick("min", "uniform", 0.2);
  const SimResult r = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(r.offered_load, 0.2);
  EXPECT_NEAR(r.accepted_load, 0.2, 0.02);
  EXPECT_GT(r.avg_latency, 0.0);
  EXPECT_GE(r.max_latency, r.avg_latency);
  EXPECT_EQ(static_cast<int>(r.injections_per_router.size()),
            cfg.topo.num_routers());
  EXPECT_GT(r.delivered_packets, 0);
  EXPECT_GT(r.generated_packets, 0);
  // Accepted load reconstructs from delivered phits.
  const double reconstructed =
      static_cast<double>(r.delivered_packets) * cfg.packet_size /
      (static_cast<double>(cfg.topo.num_nodes()) *
       static_cast<double>(cfg.measure_cycles));
  EXPECT_NEAR(r.accepted_load, reconstructed, 1e-9);
}

TEST(Engine, LatencyPercentilesAreOrdered) {
  const SimConfig cfg = quick("par-mm", "advc", 0.3);
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.p50_latency, 0.0);
  EXPECT_GE(r.p99_latency, r.p50_latency);
  EXPECT_GE(r.max_latency + 8.0, r.p99_latency);  // 8-cycle bin width slack
  // The median sits near the base latency at moderate load.
  EXPECT_NEAR(r.p50_latency, r.components.base, r.components.base);
}

TEST(Engine, ResultsAreReproducible) {
  const SimConfig cfg = quick("par-crg", "advc", 0.3);
  expect_identical(run_simulation(cfg), run_simulation(cfg));
}

TEST(Engine, StepwiseAccessMatchesRun) {
  // step_raw + manual begin/end_measurement (the step-by-step form of a
  // custom loop) must agree with run_simulation on the same config.
  const SimConfig cfg = quick("min", "uniform", 0.2);
  Session session(cfg);
  session.step_raw(cfg.warmup_cycles);
  session.network().begin_measurement();
  session.step_raw(cfg.measure_cycles);
  session.network().end_measurement();
  const SimResult manual = session.collect();
  const SimResult automatic = run_simulation(cfg);
  EXPECT_EQ(manual.delivered_packets, automatic.delivered_packets);
  EXPECT_EQ(manual.avg_latency, automatic.avg_latency);
  EXPECT_EQ(manual.injections_per_router, automatic.injections_per_router);
}

TEST(Engine, FairnessExcludesSilentRouters) {
  // Placement job on 2 groups: fairness must be computed over the job's
  // routers only (silent routers would fake min=0).
  SimConfig cfg = quick("min", "placement", 0.2);
  cfg.placement_first_group = 3;
  cfg.placement_num_groups = 2;
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.fairness.min_injections, 0.0);
  EXPECT_LT(r.fairness.max_over_min, 3.0);
}

TEST(Engine, HighLoadDoesNotTripWatchdog) {
  // Oversaturated MIN/ADV: progress continues even though queues are
  // permanently full — the watchdog must not fire.
  SimConfig cfg = quick("min", "adv", 0.9);
  cfg.warmup_cycles = 6'000;
  EXPECT_NO_THROW(run_simulation(cfg));
}

TEST(Engine, AgeArbitrationRuns) {
  SimConfig cfg = quick("par-mm", "advc", 0.3);
  cfg.age_arbitration = true;
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.delivered_packets, 0);
}

}  // namespace
}  // namespace dragonfly
