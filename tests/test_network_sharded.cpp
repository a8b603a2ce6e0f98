// Sharded stepping (sim.shards > 1): bit-identity against the serial
// kernel for any shard count, partition-independent checkpoints, and
// the shard-count validation diagnostics.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/parallel.hpp"
#include "sim/network.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::quick;

void expect_same_state(Network& a, Network& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.dispatched_events(), b.dispatched_events());
  EXPECT_EQ(a.generated_packets_total(), b.generated_packets_total());
  EXPECT_EQ(a.total_forward_progress(), b.total_forward_progress());
  EXPECT_EQ(a.packets().live(), b.packets().live());
  EXPECT_EQ(a.collector().delivered_packets_total(),
            b.collector().delivered_packets_total());
  EXPECT_EQ(a.collector().delivered_phits_total(),
            b.collector().delivered_phits_total());
  ASSERT_EQ(a.num_routers(), b.num_routers());
  for (RouterId r = 0; r < a.num_routers(); ++r) {
    EXPECT_EQ(a.router(r).injected_packets_total(),
              b.router(r).injected_packets_total());
  }
}

SimConfig sharded_cfg(int shards, SimKernel kernel,
                      const std::string& routing = "par-mm",
                      const std::string& traffic = "advc") {
  SimConfig cfg = quick(routing, traffic, 0.35);
  cfg.kernel = kernel;
  cfg.shards = shards;
  return cfg;
}

/// Steps 2, 4 and 7 shards for 2,000 cycles each under paranoid
/// invariant sweeps and compares every one with serial stepping. 7 does
/// not divide the 36 routers of h=2, so uneven partitions are covered
/// too.
void expect_shard_counts_agree(const std::string& routing,
                               const std::string& traffic) {
  SimConfig serial = sharded_cfg(1, SimKernel::kActive, routing, traffic);
  serial.sim_paranoid = 128;
  Network reference(serial);
  for (int shards : {2, 4, 7}) {
    SimConfig cfg = sharded_cfg(shards, SimKernel::kActive, routing, traffic);
    cfg.sim_paranoid = 128;
    Network net(cfg);
    EXPECT_EQ(net.num_shards(), shards);
    for (int i = 0; i < 2'000; ++i) net.step();
    if (reference.now() < net.now()) {
      while (reference.now() < net.now()) reference.step();
    }
    expect_same_state(net, reference);
  }
}

TEST(NetworkSharded, ShardCountsAgreeCycleByCycle) {
  // The tentpole contract: any shard count is bit-identical to serial
  // stepping. par-mm takes the fused single fan-out.
  expect_shard_counts_agree("par-mm", "advc");
}

TEST(NetworkSharded, PiggybackShardCountsAgreeCycleByCycle) {
  // PiggyBack takes the split fan-out around its serial refresh: shards
  // mark their routers' global ports during the phases, and the refresh
  // reads and clears the marks after the fan-out has joined.
  expect_shard_counts_agree("pb-rrg", "adv");
}

TEST(NetworkSharded, ScanKernelShardsAgreeWithSerialScan) {
  // The dense scan kernel also routes its emissions through the shard
  // sinks and the boundary merge when sharded; it must stay the
  // bit-identical cross-check at any shard count. PiggyBack splits the
  // cycle around its serial refresh, so its shards step two fan-outs.
  for (const auto& [routing, traffic] :
       {std::pair{"par-mm", "advc"}, std::pair{"pb-rrg", "adv"}}) {
    SCOPED_TRACE(routing);
    SimConfig serial = sharded_cfg(1, SimKernel::kScan, routing, traffic);
    serial.sim_paranoid = 256;
    Network reference(serial);
    SimConfig cfg = sharded_cfg(4, SimKernel::kScan, routing, traffic);
    cfg.sim_paranoid = 256;
    Network net(cfg);
    for (int i = 0; i < 1'500; ++i) {
      net.step();
      reference.step();
    }
    expect_same_state(net, reference);
  }
}

TEST(NetworkSharded, InjectedRunnersAreBehaviorNeutral) {
  // The runner only decides which thread steps a shard; serial,
  // pooled and network-owned (default) execution are bit-identical.
  SerialRunner serial_runner;
  PoolRunner pool_runner(3);
  Network with_serial(sharded_cfg(4, SimKernel::kActive));
  with_serial.set_runner(&serial_runner);
  Network with_pool(sharded_cfg(4, SimKernel::kActive));
  with_pool.set_runner(&pool_runner);
  Network with_default(sharded_cfg(4, SimKernel::kActive));
  for (int i = 0; i < 1'500; ++i) {
    with_serial.step();
    with_pool.step();
    with_default.step();
  }
  expect_same_state(with_serial, with_pool);
  expect_same_state(with_serial, with_default);
}

TEST(NetworkSharded, FullSessionResultsAreBitIdentical) {
  // End to end through the Session phase machine: every floating-point
  // statistic matches exactly, not approximately.
  SimConfig cfg = sharded_cfg(1, SimKernel::kActive);
  Session serial(cfg);
  const SimResult want = serial.run();
  for (int shards : {2, 7}) {
    SimConfig scfg = sharded_cfg(shards, SimKernel::kActive);
    Session session(scfg);
    const SimResult got = session.run();
    EXPECT_EQ(got.accepted_load, want.accepted_load);
    EXPECT_EQ(got.avg_latency, want.avg_latency);
    EXPECT_EQ(got.components.base, want.components.base);
    EXPECT_EQ(got.components.local_queue, want.components.local_queue);
    EXPECT_EQ(got.fairness.cov, want.fairness.cov);
    EXPECT_EQ(got.fairness.jain, want.fairness.jain);
    EXPECT_EQ(got.injections_per_router, want.injections_per_router);
  }
}

TEST(NetworkSharded, CheckpointsArePartitionIndependent) {
  // Save at shards=K, load at shards=M (across kernels): the v4 stream
  // carries canonical packet indices and canonically ordered events, so
  // the restored run continues bit-identically under any partition.
  const struct {
    int save_shards, load_shards;
    SimKernel save_kernel, load_kernel;
  } cases[] = {
      {3, 1, SimKernel::kActive, SimKernel::kActive},
      {1, 4, SimKernel::kActive, SimKernel::kActive},
      {2, 7, SimKernel::kActive, SimKernel::kActive},
      {4, 2, SimKernel::kActive, SimKernel::kScan},
      {1, 3, SimKernel::kScan, SimKernel::kActive},
  };
  for (const auto& c : cases) {
    Network source(sharded_cfg(c.save_shards, c.save_kernel));
    for (int i = 0; i < 1'200; ++i) source.step();
    CheckpointWriter writer;
    source.save(writer);

    Network resumed(sharded_cfg(c.load_shards, c.load_kernel));
    CheckpointReader reader(writer.bytes());
    resumed.load(reader);
    ASSERT_NO_THROW(resumed.check_invariants());
    for (int i = 0; i < 1'000; ++i) {
      source.step();
      resumed.step();
    }
    expect_same_state(source, resumed);
    ASSERT_NO_THROW(resumed.check_invariants());
  }
}

TEST(NetworkSharded, SessionRestoreHonorsShardsOverride) {
  // The Session-level round trip of the same property, through the
  // public shards_override parameter: checkpoint at shards=1, restore
  // at shards=5, final SimResult identical to the uninterrupted run.
  SimConfig cfg = sharded_cfg(1, SimKernel::kActive);
  Session uninterrupted(cfg);
  const SimResult want = uninterrupted.run();

  Session saver(cfg);
  saver.step(2'000);
  std::stringstream stream;
  saver.checkpoint(stream);
  std::unique_ptr<Session> resumed = Session::restore(stream, 5);
  EXPECT_EQ(resumed->network().num_shards(), 5);
  const SimResult got = resumed->run();
  EXPECT_EQ(got.accepted_load, want.accepted_load);
  EXPECT_EQ(got.avg_latency, want.avg_latency);
  EXPECT_EQ(got.injections_per_router, want.injections_per_router);
}

TEST(NetworkSharded, RejectsInvalidShardCounts) {
  for (int bad : {0, -2, 1'000'000}) {
    SimConfig cfg = sharded_cfg(bad, SimKernel::kActive);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << bad;
  }
  // More shards than routers (h=2 has 36) — the diagnostic names the
  // valid range.
  SimConfig cfg = sharded_cfg(37, SimKernel::kActive);
  try {
    cfg.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1.."), std::string::npos);
  }
}

}  // namespace
}  // namespace dragonfly
