// Stress / failure-injection tests: extreme loads, tiny networks and
// pathological configurations must neither deadlock (watchdog) nor
// collapse into livelock (delivery keeps pace in steady state).
#include <gtest/gtest.h>

#include <chrono>

#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;

class StressParam
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(StressParam, FullLoadRunsWithoutDeadlockOrCollapse) {
  const auto [routing, traffic] = GetParam();
  SimConfig cfg = quick(routing, traffic, 1.0);
  cfg.warmup_cycles = 3'000;
  cfg.measure_cycles = 3'000;
  // Paranoid mode: Network::check_invariants() sweeps the credit
  // counters, the packet arena and the event ring every 64 cycles and
  // throws (failing ASSERT_NO_THROW) on any violation.
  cfg.sim_paranoid = 64;
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg)) << routing;
  // Sustained delivery: at least the MIN/ADV worst-case capacity.
  EXPECT_GT(r.accepted_load, 0.04) << routing;
}

INSTANTIATE_TEST_SUITE_P(
    ExtremeLoad, StressParam,
    ::testing::Combine(::testing::Values("min", "val-rrg", "pb-crg", "par-rrg",
                                         "par-crg", "par-mm"),
                       ::testing::Values("uniform", "adv", "advc")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(Stress, ShardedFullLoadRunsWithoutDeadlockOrCollapse) {
  // The sharded kernel under the same extreme-load + paranoid regime,
  // with real thread-pool stepping (this is the test the TSan CI job
  // leans on to prove the shard phases are race-free). Uneven shard
  // counts included: 7 does not divide h=2's 36 routers.
  for (int shards : {4, 7}) {
    SimConfig cfg = quick("par-mm", "advc", 1.0);
    cfg.warmup_cycles = 3'000;
    cfg.measure_cycles = 3'000;
    cfg.sim_paranoid = 64;
    cfg.shards = shards;
    SimResult r;
    ASSERT_NO_THROW(r = run_simulation(cfg)) << shards;
    EXPECT_GT(r.accepted_load, 0.04) << shards;
  }
}

TEST(Stress, SmallestDragonflyFullMatrix) {
  // h=1: 2 routers/group, 3 groups, 6 nodes — degenerate corner sizes.
  for (const char* routing :
       {"min", "val-rrg", "val-crg", "pb-rrg", "par-mm"}) {
    SimConfig cfg = quick(routing, "uniform", 0.6, /*h=*/1);
    cfg.warmup_cycles = 1'000;
    cfg.measure_cycles = 2'000;
    SimResult r;
    ASSERT_NO_THROW(r = run_simulation(cfg)) << routing;
    EXPECT_GT(r.delivered_packets, 50) << routing;
  }
}

TEST(Stress, MinimumBufferConfiguration) {
  // Buffers of exactly one packet everywhere: the credit loop degrades
  // to stop-and-wait but must stay live.
  SimConfig cfg = quick("par-mm", "uniform", 0.3);
  cfg.local_input_buffer = 8;
  cfg.global_input_buffer = 8;
  cfg.output_queue_size = 8;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 3'000;
  cfg.sim_paranoid = 32;  // tight credit loops: sweep invariants often
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.accepted_load, 0.02);
}

TEST(Stress, SingleIterationAllocator) {
  SimConfig cfg = quick("par-mm", "advc", 0.4);
  cfg.allocator_iterations = 1;
  cfg.max_grants_per_input = 1;
  cfg.max_grants_per_output = 1;
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.accepted_load, 0.1);
}

TEST(Stress, LongLatencyLinks) {
  // 10x link latencies stress the credit round-trip (in-flight windows
  // larger than buffers).
  SimConfig cfg = quick("par-mm", "uniform", 0.2);
  cfg.local_latency = 100;
  cfg.global_latency = 1000;
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 5'000;
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.delivered_packets, 100);
  // Zero-load-ish latency scales with the links.
  EXPECT_GT(r.avg_latency, 1000.0);
}

TEST(Stress, BigPackets) {
  SimConfig cfg = quick("val-crg", "advc", 0.3);
  cfg.packet_size = 32;  // one packet fills a whole local VC buffer
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.accepted_load, 0.1);
}

TEST(Stress, AgeArbitrationUnderExtremeLoad) {
  SimConfig cfg = quick("par-mm", "advc", 1.0);
  cfg.age_arbitration = true;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 3'000;
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.accepted_load, 0.1);
}

TEST(Stress, ParanoidEveryCycleStaysUsableOnLargerShapes) {
  // check_invariants() costs O(active state): empty FIFOs and idle
  // ports are skipped via the hot-state masks, the credit bounds are
  // one contiguous array pass. sim.paranoid=1 — a sweep every cycle —
  // must therefore stay practical on a larger shape. The wall-clock
  // bound is deliberately generous (an order of magnitude above the
  // expected time on slow hardware); it exists to catch an accidental
  // return to O(all ports x VCs x occupancy) sweeps, which would blow
  // far past it.
  SimConfig cfg = quick("par-mm", "uniform", 0.3, /*h=*/3);
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 1'000;
  cfg.sim_paranoid = 1;
  const auto start = std::chrono::steady_clock::now();
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(r.delivered_packets, 0);
  EXPECT_LT(seconds, 60.0) << "paranoid-mode sweeps are no longer O(active)";
}

}  // namespace
}  // namespace dragonfly
