#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;

TEST(Experiment, RunAveragedMatchesSingleRun) {
  const SimConfig cfg = quick("min", "uniform", 0.15);
  const SimResult single = run_simulation(cfg);
  SerialRunner serial;
  const AveragedResult avg = run_averaged(cfg, 1, serial);
  EXPECT_DOUBLE_EQ(avg.accepted_load, single.accepted_load);
  EXPECT_DOUBLE_EQ(avg.avg_latency, single.avg_latency);
  EXPECT_EQ(avg.seeds, 1);
  ASSERT_EQ(avg.injections_per_router.size(),
            single.injections_per_router.size());
  for (std::size_t i = 0; i < avg.injections_per_router.size(); ++i) {
    EXPECT_DOUBLE_EQ(avg.injections_per_router[i],
                     static_cast<double>(single.injections_per_router[i]));
  }
}

TEST(Experiment, SeedAveragingReducesToMean) {
  const SimConfig cfg = quick("min", "uniform", 0.15);
  SimConfig s1 = cfg;
  s1.seed = derive_seed(cfg.seed, 0);
  SimConfig s2 = cfg;
  s2.seed = derive_seed(cfg.seed, 1);
  const SimResult r1 = run_simulation(s1);
  const SimResult r2 = run_simulation(s2);
  PoolRunner pool(2);
  const AveragedResult avg = run_averaged(cfg, 2, pool);
  EXPECT_NEAR(avg.avg_latency, (r1.avg_latency + r2.avg_latency) / 2, 1e-9);
  EXPECT_NEAR(avg.accepted_load,
              (r1.accepted_load + r2.accepted_load) / 2, 1e-9);
  EXPECT_EQ(avg.seeds, 2);
}

TEST(Experiment, SweepPreservesLoadOrder) {
  const SimConfig base = quick("min", "uniform", 0.0);
  const std::vector<double> loads{0.05, 0.15, 0.25};
  PoolRunner pool(2);
  const auto results = run_sweep(base, loads, /*num_seeds=*/1, pool);
  ASSERT_EQ(results.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].offered_load, loads[i]);
    EXPECT_NEAR(results[i].accepted_load, loads[i], 0.02);
  }
}

TEST(Experiment, ParallelSweepEqualsSerialSweep) {
  const SimConfig base = quick("val-crg", "advc", 0.0);
  const std::vector<double> loads{0.1, 0.2};
  SerialRunner one;
  PoolRunner four(4);
  const auto serial = run_sweep(base, loads, 1, one);
  const auto parallel = run_sweep(base, loads, 1, four);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].avg_latency, parallel[i].avg_latency);
    EXPECT_DOUBLE_EQ(serial[i].accepted_load, parallel[i].accepted_load);
  }
}

// Thread-count determinism: every field of every sweep point must be
// bit-identical between a serial and a heavily oversubscribed run (this
// box may have fewer than 8 cores — oversubscription exercises arbitrary
// job interleavings all the same).
TEST(Experiment, SweepIsBitIdenticalAcrossThreadCounts) {
  const SimConfig base = quick("par-mm", "advc", 0.0);
  const std::vector<double> loads{0.1, 0.25, 0.4};
  SerialRunner one;
  PoolRunner eight(8);
  const auto serial = run_sweep(base, loads, /*num_seeds=*/2, one);
  const auto parallel = run_sweep(base, loads, /*num_seeds=*/2, eight);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const AveragedResult& a = serial[i];
    const AveragedResult& b = parallel[i];
    EXPECT_EQ(a.offered_load, b.offered_load);
    EXPECT_EQ(a.accepted_load, b.accepted_load);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.components.base, b.components.base);
    EXPECT_EQ(a.components.misroute, b.components.misroute);
    EXPECT_EQ(a.components.local_queue, b.components.local_queue);
    EXPECT_EQ(a.components.global_queue, b.components.global_queue);
    EXPECT_EQ(a.components.injection_queue, b.components.injection_queue);
    EXPECT_EQ(a.avg_local_hops, b.avg_local_hops);
    EXPECT_EQ(a.avg_global_hops, b.avg_global_hops);
    EXPECT_EQ(a.fairness.min_injections, b.fairness.min_injections);
    EXPECT_EQ(a.fairness.max_injections, b.fairness.max_injections);
    EXPECT_EQ(a.fairness.max_over_min, b.fairness.max_over_min);
    EXPECT_EQ(a.fairness.cov, b.fairness.cov);
    EXPECT_EQ(a.fairness.jain, b.fairness.jain);
    EXPECT_EQ(a.fairness.mean, b.fairness.mean);
    EXPECT_EQ(a.seeds, b.seeds);
    ASSERT_EQ(a.injections_per_router.size(), b.injections_per_router.size());
    for (std::size_t r = 0; r < a.injections_per_router.size(); ++r) {
      EXPECT_EQ(a.injections_per_router[r], b.injections_per_router[r]);
    }
  }
}

TEST(Experiment, DeriveSeedIsStableAndDecorrelated) {
  EXPECT_EQ(derive_seed(42, 0), 42u);  // replica 0 is the base run
  EXPECT_NE(derive_seed(42, 1), derive_seed(42, 2));
  EXPECT_NE(derive_seed(42, 1), derive_seed(43, 1));
  // Pure function: same inputs, same stream.
  EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
}

TEST(Experiment, RunConfigsPropagatesErrors) {
  SimConfig bad = quick("min", "uniform", 0.1);
  bad.global_vcs = 1;  // fails validation inside the worker
  std::vector<SimConfig> configs{bad};
  PoolRunner pool(2);
  EXPECT_THROW(run_configs(configs, 1, pool), std::invalid_argument);
}

TEST(Experiment, PaperRoutingsAreTheSevenConfigs) {
  const auto names = paper_routing_names();
  const std::vector<std::string> legend_order{
      "val-rrg", "val-crg", "pb-rrg", "pb-crg", "par-rrg", "par-crg", "par-mm"};
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.end()),
            legend_order);
  for (const std::string& name : names) {
    EXPECT_TRUE(routing_registry().contains(name)) << name;
  }
}

TEST(Experiment, BenchSetupEnvOverrides) {
  setenv("REPRO_H", "2", 1);
  setenv("REPRO_SEEDS", "5", 1);
  setenv("REPRO_LOADS", "4", 1);
  setenv("REPRO_CYCLES", "2000", 1);
  const BenchSetup setup = bench_setup();
  EXPECT_EQ(setup.spec.base.topo.h, 2);
  EXPECT_EQ(setup.spec.seeds, 5);
  EXPECT_EQ(setup.spec.loads.size(), 4u);
  // Thinning keeps the endpoints.
  EXPECT_DOUBLE_EQ(setup.spec.loads.front(), default_loads().front());
  EXPECT_DOUBLE_EQ(setup.spec.loads.back(), default_loads().back());
  EXPECT_EQ(setup.spec.base.measure_cycles, 2000);
  EXPECT_EQ(setup.spec.base.warmup_cycles, 1000);
  unsetenv("REPRO_H");
  unsetenv("REPRO_SEEDS");
  unsetenv("REPRO_LOADS");
  unsetenv("REPRO_CYCLES");
}

TEST(Experiment, BenchSetupFullScale) {
  setenv("REPRO_FULL", "1", 1);
  const BenchSetup setup = bench_setup();
  EXPECT_TRUE(setup.full_scale);
  EXPECT_EQ(setup.spec.base.topo.h, 6);
  EXPECT_EQ(setup.spec.base.topo.num_nodes(), 5256);
  EXPECT_EQ(setup.spec.base.measure_cycles, 15'000);
  EXPECT_EQ(setup.spec.seeds, 3);
  unsetenv("REPRO_FULL");
}

TEST(Experiment, BenchSetupDefaultsSmall) {
  const BenchSetup setup = bench_setup();
  EXPECT_FALSE(setup.full_scale);
  EXPECT_EQ(setup.spec.base.topo.h, 3);
  EXPECT_GE(static_cast<int>(setup.spec.loads.size()), 10);
  ASSERT_NE(setup.pool, nullptr);
  EXPECT_GE(setup.pool->concurrency(), 1);
}

}  // namespace
}  // namespace dragonfly
