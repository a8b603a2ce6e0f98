// Workload subsystem: collective generators, bursty ON-OFF sources,
// multi-tenant job churn, the per-job metrics battery, and the
// determinism guarantees that make all of it usable — bit-identical
// results for any kernel / shard count / runner, and across a
// mid-measurement checkpoint round trip with live jobs.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "sim/session.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

/// Small workload base: h=2 (72 nodes, 36 routers, 9 groups), short
/// windows, nonminimal adaptive routing.
SimConfig workload_base(const std::string& mode) {
  SimConfig cfg = SimConfig::small(2);
  cfg.routing_name = "par-mm";
  cfg.load = 0.4;
  cfg.warmup_cycles = 800;
  cfg.measure_cycles = 2'500;
  cfg.workload.mode = mode;
  cfg.apply_vc_defaults();
  cfg.validate();
  return cfg;
}

/// Bitwise comparison including the per-job battery (determinism means
/// bit-identity, not tolerance).
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.accepted_load, b.accepted_load);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.injections_per_router, b.injections_per_router);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.saturation_margin, b.saturation_margin);
  EXPECT_EQ(a.jain_jobs, b.jain_jobs);
  EXPECT_EQ(a.jain_groups, b.jain_groups);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].label, b.jobs[i].label);
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes);
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start);
    EXPECT_EQ(a.jobs[i].end, b.jobs[i].end);
    EXPECT_EQ(a.jobs[i].delivered_packets, b.jobs[i].delivered_packets);
    EXPECT_EQ(a.jobs[i].accepted_load, b.jobs[i].accepted_load);
    EXPECT_EQ(a.jobs[i].avg_latency, b.jobs[i].avg_latency);
    EXPECT_EQ(a.jobs[i].p99_latency, b.jobs[i].p99_latency);
    EXPECT_EQ(a.jobs[i].iterations, b.jobs[i].iterations);
    EXPECT_EQ(a.jobs[i].mean_iteration_cycles,
              b.jobs[i].mean_iteration_cycles);
  }
}

// --- JobPattern rank-space mixes --------------------------------------------

TEST(JobPattern, RingAndShiftAreRankSpacePermutations) {
  // Non-contiguous placement: rank space must see through the gaps.
  const std::vector<NodeId> nodes{3, 7, 11, 19};
  JobPattern ring("ring", nodes);
  Rng rng(1);
  EXPECT_EQ(ring.destination(3, rng), 7);    // rank 0 -> rank 1
  EXPECT_EQ(ring.destination(19, rng), 3);   // rank 3 -> rank 0
  JobPattern shift("shift", nodes);
  EXPECT_EQ(shift.destination(3, rng), 11);  // rank 0 -> rank 2
  EXPECT_EQ(shift.destination(7, rng), 19);  // rank 1 -> rank 3
}

TEST(JobPattern, UniformExcludesSelfAndOutsiders) {
  const std::vector<NodeId> nodes{2, 5, 9};
  JobPattern uniform("uniform", nodes);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const NodeId dst = uniform.destination(5, rng);
    EXPECT_NE(dst, 5);
    EXPECT_TRUE(dst == 2 || dst == 9) << dst;
  }
  // A node outside the job never generates through this pattern.
  EXPECT_EQ(uniform.destination(4, rng), kInvalidNode);
  EXPECT_FALSE(uniform.generates(4));
  EXPECT_TRUE(uniform.generates(2));
}

TEST(JobPattern, HotspotConcentratesOnRankZero) {
  const std::vector<NodeId> nodes{10, 20, 30, 40, 50, 60, 70, 80};
  JobPattern hotspot("hotspot", nodes);
  Rng rng(13);
  int to_root = 0;
  const int draws = 4'000;
  for (int i = 0; i < draws; ++i) {
    if (hotspot.destination(50, rng) == 10) ++to_root;
  }
  // 20% direct + 1/7 of the remaining uniform share ~= 31%.
  EXPECT_GT(to_root, draws / 5);
  EXPECT_LT(to_root, draws / 2);
}

// --- collective generators --------------------------------------------------

TEST(WorkloadCollective, EveryCollectiveCompletesIterations) {
  for (const char* collective : {"ring", "tree", "alltoall", "halo"}) {
    SimConfig cfg = workload_base("collective");
    cfg.workload.collective = collective;
    cfg.workload.participants = 16;
    Session session(cfg);
    const SimResult r = session.run();
    const WorkloadDriver* wl = session.network().workload();
    ASSERT_NE(wl, nullptr) << collective;
    EXPECT_GT(wl->iterations_completed(), 0) << collective;
    // The communicator is job 0 with a per-iteration completion time.
    ASSERT_EQ(r.jobs.size(), 1u) << collective;
    EXPECT_EQ(r.jobs[0].id, 0);
    EXPECT_EQ(r.jobs[0].label, collective);
    EXPECT_EQ(r.jobs[0].nodes, 16);
    EXPECT_GT(r.jobs[0].iterations, 0) << collective;
    EXPECT_GT(r.jobs[0].mean_iteration_cycles, 0.0) << collective;
    EXPECT_GT(r.jobs[0].delivered_packets, 0) << collective;
    testutil::expect_conservation(session.network());
  }
}

TEST(WorkloadCollective, NonParticipantsStaySilent) {
  SimConfig cfg = workload_base("collective");
  cfg.workload.participants = 8;  // nodes 8.. are silent
  Session session(cfg);
  session.run();
  Network& net = session.network();
  // Every generated packet belongs to the communicator (job 0 stamps).
  EXPECT_EQ(net.generated_packets_total(),
            net.collector().delivered_packets_total() +
                static_cast<std::int64_t>(net.packets().live()));
  for (const JobRecord& job : net.collector().jobs()) {
    EXPECT_EQ(job.id, 0);
  }
  // Denominator is the communicator size, not the machine size.
  EXPECT_EQ(net.generating_nodes(), 8);
}

// --- bursty ON-OFF sources --------------------------------------------------

TEST(WorkloadBursty, DutyCycleScalesAcceptedLoad) {
  SimConfig base = workload_base("off");
  base.workload.mode = "off";
  const SimResult always_on = Session(base).run();

  SimConfig bursty = workload_base("bursty");
  bursty.workload.burst_cycles = 300;
  bursty.workload.idle_cycles = 900;  // duty cycle 0.25
  const SimResult modulated = Session(bursty).run();

  // The modulated run accepts roughly duty * the always-on load; the
  // bound is loose (small network, short window) but a broken gate
  // (all-on or all-off) lands far outside it.
  EXPECT_GT(modulated.accepted_load, 0.10 * always_on.accepted_load);
  EXPECT_LT(modulated.accepted_load, 0.60 * always_on.accepted_load);
}

// --- multi-tenant job churn -------------------------------------------------

TEST(WorkloadChurn, JobsArriveRunAndDepart) {
  SimConfig cfg = workload_base("churn");
  cfg.workload.jobs = 3;
  cfg.workload.arrival_cycles = 250;
  cfg.workload.job_cycles = 1'200;
  cfg.workload.mix = "uniform,shift";
  Session session(cfg);
  const SimResult r = session.run();
  ASSERT_GE(r.jobs.size(), 2u);
  // Mixes cycle by job id: 0 -> uniform, 1 -> shift, ...
  EXPECT_EQ(r.jobs[0].label, "uniform");
  EXPECT_EQ(r.jobs[1].label, "shift");
  std::set<std::int32_t> ids;
  bool departed = false;
  std::int64_t attributed = 0;
  for (const JobResult& job : r.jobs) {
    EXPECT_TRUE(ids.insert(job.id).second) << "duplicate job id";
    EXPECT_GT(job.nodes, 0);
    if (job.end >= 0) departed = true;
    attributed += job.delivered_packets;
  }
  EXPECT_TRUE(departed) << "no job departed in 3300 cycles";
  // Every measured delivery belongs to some job in churn mode.
  EXPECT_EQ(attributed, r.delivered_packets);
  EXPECT_GT(r.jain_jobs, 0.0);
  EXPECT_LE(r.jain_jobs, 1.0);
  EXPECT_GT(r.jain_groups, 0.0);
  testutil::expect_conservation(session.network());
}

TEST(WorkloadChurn, RandomPlacementAlsoRuns) {
  SimConfig cfg = workload_base("churn");
  cfg.workload.placement = "random";
  cfg.workload.job_routers = 3;
  cfg.workload.arrival_cycles = 200;
  Session session(cfg);
  const SimResult r = session.run();
  EXPECT_GE(r.jobs.size(), 2u);
  EXPECT_GT(r.delivered_packets, 0);
  testutil::expect_conservation(session.network());
}

// --- determinism: kernel / shards / runner ----------------------------------

TEST(WorkloadDeterminism, BitIdenticalAcrossKernelsAndShards) {
  for (const char* mode : {"collective", "bursty", "churn"}) {
    SimConfig cfg = workload_base(mode);
    cfg.workload.participants = 12;
    const SimResult base = Session(cfg).run();
    EXPECT_GT(base.delivered_packets, 0) << mode;

    SimConfig scan = cfg;
    scan.kernel = SimKernel::kScan;
    expect_identical(base, Session(scan).run());

    for (const int shards : {2, 7}) {
      SimConfig sharded = cfg;
      sharded.shards = shards;
      expect_identical(base, Session(sharded).run());
    }
  }
}

TEST(WorkloadDeterminism, RunnerChoiceDoesNotPerturbResults) {
  SimConfig cfg = workload_base("churn");
  cfg.shards = 2;
  SerialRunner serial;
  PoolRunner pool(4);
  Session with_serial(cfg);
  with_serial.set_runner(&serial);
  Session with_pool(cfg);
  with_pool.set_runner(&pool);
  expect_identical(with_serial.run(), with_pool.run());
}

// --- checkpoint round trip with live jobs -----------------------------------

TEST(WorkloadCheckpoint, MidMeasureRoundTripWithLiveJobs) {
  for (const char* mode : {"collective", "bursty", "churn"}) {
    SimConfig cfg = workload_base(mode);
    cfg.workload.participants = 12;
    cfg.workload.arrival_cycles = 200;
    Session original(cfg);
    original.advance_to(SessionPhase::kMeasure);
    original.step(600);  // mid-measurement, jobs live
    if (std::string(mode) == "churn") {
      ASSERT_GT(original.network().workload()->live_jobs(), 0u);
    }
    std::stringstream stream;
    original.checkpoint(stream);

    std::unique_ptr<Session> resumed = Session::restore(stream);
    const SimResult a = [&] {
      original.advance_to(SessionPhase::kDone);
      return original.collect();
    }();
    resumed->advance_to(SessionPhase::kDone);
    expect_identical(a, resumed->collect());
  }
}

TEST(WorkloadCheckpoint, RestoreUnderDifferentShardCount) {
  SimConfig cfg = workload_base("churn");
  cfg.workload.arrival_cycles = 200;
  Session original(cfg);
  original.advance_to(SessionPhase::kMeasure);
  original.step(500);
  std::stringstream stream;
  original.checkpoint(stream);
  original.advance_to(SessionPhase::kDone);

  std::unique_ptr<Session> resharded =
      Session::restore(stream, /*shards_override=*/2);
  resharded->advance_to(SessionPhase::kDone);
  expect_identical(original.collect(), resharded->collect());
}

}  // namespace
}  // namespace dragonfly
