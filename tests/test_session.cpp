// Session phase machine, streaming taps, adaptive stopping, scripted
// phases, checkpoint/restore and run_simulation().
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/checkpoint.hpp"
#include "core/experiment.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::expect_identical;
using testutil::quick;

/// Tap that records everything for assertions.
class RecordingTap final : public MetricTap {
 public:
  void on_sample(const StreamSample& sample) override {
    samples.push_back(sample);
  }
  void on_phase_change(SessionPhase from, SessionPhase to,
                       Cycle now) override {
    transitions.emplace_back(from, to);
    transition_cycles.push_back(now);
  }

  std::vector<StreamSample> samples;
  std::vector<std::pair<SessionPhase, SessionPhase>> transitions;
  std::vector<Cycle> transition_cycles;
};

TEST(Session, PhaseMachineProgression) {
  const SimConfig cfg = quick("min", "uniform", 0.2);
  Session session(cfg);
  EXPECT_EQ(session.phase(), SessionPhase::kWarmup);
  EXPECT_EQ(session.now(), 0);

  session.advance_to(SessionPhase::kMeasure);
  EXPECT_EQ(session.phase(), SessionPhase::kMeasure);
  EXPECT_EQ(session.now(), cfg.warmup_cycles);

  session.advance_to(SessionPhase::kDone);
  EXPECT_EQ(session.phase(), SessionPhase::kDone);
  EXPECT_EQ(session.now(), cfg.warmup_cycles + cfg.measure_cycles);

  const SimResult r = session.collect();
  EXPECT_EQ(r.measured_cycles, cfg.measure_cycles);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.delivered_packets, 0);
}

TEST(Session, StepCrossesPhaseBoundaries) {
  const SimConfig cfg = quick("min", "uniform", 0.2);
  Session session(cfg);
  // One big step drives warmup AND part of the measurement window.
  session.step(cfg.warmup_cycles + 100);
  EXPECT_EQ(session.phase(), SessionPhase::kMeasure);
  EXPECT_EQ(session.now(), cfg.warmup_cycles + 100);
  // Finishing the window transitions through Drain (len 0) to Done.
  session.step(cfg.measure_cycles - 100);
  EXPECT_EQ(session.phase(), SessionPhase::kDone);
  // Stepping a Done session is a no-op.
  const Cycle end = session.now();
  session.step(50);
  EXPECT_EQ(session.now(), end);
}

TEST(Session, RunSimulationMatchesSessionBitForBit) {
  const SimConfig cfg = quick("par-mm", "advc", 0.3);
  expect_identical(run_simulation(cfg), Session(cfg).run());
}

TEST(Session, CollectBeforeAnyMeasurementIsWellDefined) {
  const SimConfig cfg = quick("min", "uniform", 0.2);
  // Satellite bugfix: collect() before any stepping used to evaluate
  // aggregates over an empty window; now it is a well-defined zero
  // result.
  Session session(cfg);
  const SimResult r = session.collect();
  EXPECT_EQ(r.offered_load, cfg.load);
  EXPECT_EQ(r.accepted_load, 0.0);
  EXPECT_EQ(r.avg_latency, 0.0);
  EXPECT_EQ(r.p50_latency, 0.0);
  EXPECT_EQ(r.p99_latency, 0.0);
  EXPECT_EQ(r.delivered_packets, 0);
  EXPECT_EQ(r.generated_packets, 0);
  EXPECT_EQ(r.measured_cycles, 0);
  EXPECT_EQ(r.fairness.jain, 0.0);
  EXPECT_EQ(r.fairness.max_over_min, 0.0);
  EXPECT_EQ(static_cast<int>(r.injections_per_router.size()),
            cfg.topo.num_routers());
}

TEST(Session, StreamingTapDoesNotPerturbResults) {
  const SimConfig cfg = quick("pb-crg", "adv", 0.3);
  const SimResult silent = Session(cfg).run();

  Session streamed(cfg);
  RecordingTap tap;
  streamed.set_tap(&tap);
  const SimResult observed = streamed.run();

  expect_identical(silent, observed);
  EXPECT_FALSE(tap.samples.empty());
  // Warmup + Measure at 1000-cycle intervals (quick(): 1500 + 3000).
  EXPECT_EQ(tap.samples.size(),
            static_cast<std::size_t>(
                (cfg.warmup_cycles + cfg.measure_cycles) /
                cfg.stream_interval));
  // The machine announced every transition in order.
  ASSERT_EQ(tap.transitions.size(), 3u);
  EXPECT_EQ(tap.transitions[0].first, SessionPhase::kWarmup);
  EXPECT_EQ(tap.transitions[0].second, SessionPhase::kMeasure);
  EXPECT_EQ(tap.transitions[1].second, SessionPhase::kDrain);
  EXPECT_EQ(tap.transitions[2].second, SessionPhase::kDone);
  EXPECT_EQ(tap.transition_cycles[0], cfg.warmup_cycles);
}

TEST(Session, StreamSamplesCarryIntervalMetrics) {
  SimConfig cfg = quick("min", "uniform", 0.2);
  cfg.stream_interval = 500;
  Session session(cfg);
  RecordingTap tap;
  session.set_tap(&tap);
  session.run();

  ASSERT_FALSE(tap.samples.empty());
  Cycle prev_end = 0;
  for (const StreamSample& s : tap.samples) {
    EXPECT_EQ(s.t_begin, prev_end);
    EXPECT_EQ(s.t_end, s.t_begin + 500);
    prev_end = s.t_end;
    EXPECT_EQ(s.offered_load, 0.2);
    EXPECT_GE(s.delivered_packets, 0);
  }
  // Steady state delivers close to the offered load in every interval.
  const StreamSample& last = tap.samples.back();
  EXPECT_NEAR(last.accepted_load, 0.2, 0.05);
  EXPECT_GT(last.avg_latency, 0.0);
  EXPECT_GE(last.p99_latency, last.p50_latency);
}

TEST(Session, CiStopConvergesEarlierThanFixedWindow) {
  // Low uniform load converges fast: the CI stop must cut the window
  // well short of the fixed cap while agreeing on the accepted load.
  SimConfig fixed = quick("min", "uniform", 0.1);
  fixed.measure_cycles = 12'000;
  const SimResult full = run_simulation(fixed);
  ASSERT_FALSE(full.converged);
  ASSERT_EQ(full.measured_cycles, 12'000);

  SimConfig ci = fixed;
  ci.stop.mode = StopMode::kCi;
  ci.stop.batches = 5;
  ci.stop.batch_cycles = 400;
  ci.stop.rel_hw = 0.05;
  const SimResult early = run_simulation(ci);
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.measured_cycles, full.measured_cycles);
  EXPECT_GE(early.measured_cycles, 5 * 400);
  EXPECT_EQ(early.measured_cycles % 400, 0);  // ends on a batch boundary
  EXPECT_NEAR(early.accepted_load, full.accepted_load, 0.02);
  EXPECT_NEAR(early.avg_latency, full.avg_latency, full.avg_latency * 0.1);
}

TEST(Session, CiStopRespectsTheCap) {
  // An unreachable half-width target must fall back to the fixed cap.
  SimConfig cfg = quick("min", "uniform", 0.2);
  cfg.stop.mode = StopMode::kCi;
  cfg.stop.batches = 4;
  cfg.stop.batch_cycles = 250;
  cfg.stop.rel_hw = 1e-9;
  const SimResult r = run_simulation(cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.measured_cycles, cfg.measure_cycles);
}

TEST(Session, SessionsOfOneBuiltInShapeShareOneTopology) {
  // Session(cfg) takes a built-in shape from the process-wide cache: two
  // sessions hold one Topology object, and each runs byte for byte as a
  // session over a private build does.
  const SimConfig cfg = quick("par-mm", "advc", 0.3);
  Session first(cfg);
  Session second(cfg);
  EXPECT_EQ(&first.network().topology(), &second.network().topology());
  Session owned(cfg, make_topology(cfg));
  EXPECT_NE(&owned.network().topology(), &first.network().topology());

  first.advance_to(SessionPhase::kMeasure);
  owned.advance_to(SessionPhase::kMeasure);
  EXPECT_EQ(first.checkpoint(), owned.checkpoint());
  expect_identical(first.run(), owned.run());
  expect_identical(second.run(), Session(cfg, make_topology(cfg)).run());
}

TEST(Session, CheckpointRestoreRoundTripsBitIdentically) {
  const SimConfig cfg = quick("par-mm", "advc", 0.3);
  const SimResult uninterrupted = run_simulation(cfg);

  // Checkpoint mid-Measure, then continue the original session.
  Session original(cfg);
  original.advance_to(SessionPhase::kMeasure);
  original.step(cfg.measure_cycles / 2);
  ASSERT_EQ(original.phase(), SessionPhase::kMeasure);
  std::stringstream stream;
  original.checkpoint(stream);
  const SimResult from_original = original.run();
  expect_identical(uninterrupted, from_original);

  // Restore and finish: same final result, bit for bit.
  std::unique_ptr<Session> restored = Session::restore(stream);
  EXPECT_EQ(restored->phase(), SessionPhase::kMeasure);
  EXPECT_EQ(restored->now(), cfg.warmup_cycles + cfg.measure_cycles / 2);
  const SimResult from_restored = restored->run();
  expect_identical(uninterrupted, from_restored);
}

TEST(Session, KernelsProduceIdenticalResults) {
  // sim.kernel=active (default) and the dense reference scan agree on
  // the final SimResult bit for bit.
  SimConfig cfg = quick("par-mm", "advc", 0.3);
  cfg.kernel = SimKernel::kActive;
  const SimResult active = run_simulation(cfg);
  cfg.kernel = SimKernel::kScan;
  const SimResult scan = run_simulation(cfg);
  expect_identical(active, scan);
}

TEST(Session, CheckpointRoundTripsOnBothKernels) {
  // Mid-Measure save/restore resumes bit-for-bit on the active-set
  // kernel, and a scan-kernel session restored from its own stream
  // lands on the same result — checkpoint state is kernel-independent.
  for (const SimKernel kernel : {SimKernel::kActive, SimKernel::kScan}) {
    SimConfig cfg = quick("par-mm", "advc", 0.3);
    cfg.kernel = kernel;
    const SimResult uninterrupted = run_simulation(cfg);

    Session original(cfg);
    original.advance_to(SessionPhase::kMeasure);
    original.step(cfg.measure_cycles / 2);
    ASSERT_EQ(original.phase(), SessionPhase::kMeasure);
    std::stringstream stream;
    original.checkpoint(stream);
    const SimResult from_restored = Session::restore(stream)->run();
    expect_identical(uninterrupted, from_restored);
  }
}

TEST(Session, CheckpointRestoreMatchesThreadedSweep) {
  // The satellite's "any thread count" clause: a restored session must
  // agree with the same point produced by the parallel runner.
  const SimConfig cfg = quick("pb-rrg", "uniform", 0.25);
  Session original(cfg);
  original.advance_to(SessionPhase::kMeasure);
  original.step(700);
  std::stringstream stream;
  original.checkpoint(stream);
  const SimResult restored = Session::restore(stream)->run();

  for (const int threads : {1, 4}) {
    PoolRunner pool(threads);
    const std::vector<AveragedResult> sweep = run_configs(
        std::span<const SimConfig>(&cfg, 1), /*num_seeds=*/1, pool);
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep[0].accepted_load, restored.accepted_load);
    EXPECT_EQ(sweep[0].avg_latency, restored.avg_latency);
    EXPECT_EQ(sweep[0].measured_cycles,
              static_cast<double>(restored.measured_cycles));
  }
}

TEST(Session, CheckpointRejectsGarbageStreams) {
  std::stringstream garbage("not a checkpoint");
  EXPECT_THROW(Session::restore(garbage), std::runtime_error);

  // A truncated but well-prefixed stream must fail loudly too.
  const SimConfig cfg = quick("min", "uniform", 0.1);
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  std::stringstream full;
  session.checkpoint(full);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(Session::restore(truncated), std::runtime_error);
}

/// Bytes of a checkpoint taken at the Measure boundary.
std::string measure_boundary_checkpoint() {
  Session session(quick("min", "uniform", 0.1));
  session.advance_to(SessionPhase::kMeasure);
  std::stringstream stream;
  session.checkpoint(stream);
  return stream.str();
}

/// what() of the runtime_error Session::restore throws on `bytes`.
std::string restore_error(const std::string& bytes) {
  std::stringstream stream(bytes);
  try {
    Session::restore(stream);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "restored without error";
}

TEST(Session, CheckpointRejectsACorruptConfigValue) {
  // The config section is (key, value) strings. Give sim.kernel a name
  // no kernel has, keeping every length intact: the restore must fail
  // on that value, naming it, while reading the config section, i.e.
  // before a network is sized from it.
  std::string bytes = measure_boundary_checkpoint();
  const std::string key = "sim.kernel";
  const std::size_t at = bytes.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + key.size() + sizeof(std::uint64_t);
  ASSERT_EQ(bytes.compare(value, 6, "active"), 0);
  bytes.replace(value, 6, "warped");
  const std::string why = restore_error(bytes);
  EXPECT_EQ(why.rfind("checkpoint: corrupt config", 0), 0u) << why;
  EXPECT_NE(why.find("warped"), std::string::npos) << why;

  // A section whose keys drifted out of table order fails the same way.
  bytes = measure_boundary_checkpoint();
  const std::size_t seed = bytes.find("seed");
  ASSERT_NE(seed, std::string::npos);
  bytes.replace(seed, 4, "sead");
  EXPECT_EQ(restore_error(bytes).rfind("checkpoint: config section", 0), 0u)
      << restore_error(bytes);
}

TEST(Session, CheckpointRejectsAnOlderFormatVersion) {
  std::string bytes = measure_boundary_checkpoint();
  CheckpointReader reader(bytes);
  (void)reader.str();  // magic; the format version follows
  const std::size_t version_at = reader.offset();
  CheckpointWriter v5;
  v5.u32(5);
  bytes.replace(version_at, v5.bytes().size(), v5.bytes());
  EXPECT_EQ(restore_error(bytes), "checkpoint: unsupported version 5");
}

// --- checkpoints inside an open window (the service's warm starts) ---------

/// A fixed-window config with traffic in flight at the window's end.
SimConfig window_cfg() {
  SimConfig cfg = quick("par-mm", "advc", 0.3);
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 600;
  return cfg;
}

/// Bytes of a checkpoint taken one cycle before `cfg`'s window closes.
std::string window_end_checkpoint(const SimConfig& cfg) {
  Session session(cfg);
  EXPECT_TRUE(session.advance_to_measure_close());
  return session.checkpoint();
}

TEST(Session, AdvanceToMeasureCloseStopsOneCycleShort) {
  const SimConfig cfg = window_cfg();
  Session session(cfg);
  RecordingTap tap;
  session.set_tap(&tap);
  ASSERT_TRUE(session.advance_to_measure_close());
  EXPECT_EQ(session.phase(), SessionPhase::kMeasure);
  EXPECT_EQ(session.now(), cfg.warmup_cycles + cfg.measure_cycles - 1);
  // The window is still open: only Warmup -> Measure has happened.
  EXPECT_EQ(tap.transitions.size(), 1u);
  expect_identical(run_simulation(cfg), session.run());

  // CI stopping and phase scripts have no fixed deadline to stop short
  // of: nothing is stepped.
  SimConfig ci = cfg;
  ci.stop.mode = StopMode::kCi;
  Session adaptive(ci);
  EXPECT_FALSE(adaptive.advance_to_measure_close());
  EXPECT_EQ(adaptive.now(), 0);
  SimConfig scripted = cfg;
  scripted.phase_script = parse_phase_script("a:300,b:300");
  Session script(scripted);
  EXPECT_FALSE(script.advance_to_measure_close());
  EXPECT_EQ(script.now(), 0);
}

TEST(Session, WindowEndCheckpointWithoutRefineKeepsItsDeadline) {
  const SimConfig cfg = window_cfg();
  std::unique_ptr<Session> restored =
      Session::restore(window_end_checkpoint(cfg));
  EXPECT_EQ(restored->phase(), SessionPhase::kMeasure);
  expect_identical(run_simulation(cfg), restored->run());
  EXPECT_EQ(restored->collect().measured_cycles, cfg.measure_cycles);
}

TEST(Session, WindowEndCheckpointRefinedLongerSimulatesOnlyTheAddedCycles) {
  const SimConfig cfg = window_cfg();
  SimConfig longer = cfg;
  longer.measure_cycles = cfg.measure_cycles + 50;
  std::unique_ptr<Session> restored =
      Session::restore(window_end_checkpoint(cfg), 0, &longer);
  const Cycle resumed_at = restored->now();
  const SimResult warm = restored->run();
  EXPECT_EQ(restored->now() - resumed_at, 51);
  expect_identical(run_simulation(longer), warm);
}

TEST(Session, WindowEndCheckpointRejectsAShorterRefinedWindow) {
  const SimConfig cfg = window_cfg();
  const std::string bytes = window_end_checkpoint(cfg);
  // Closing at or before the checkpoint's cycle cannot be honoured.
  for (const Cycle window : {cfg.measure_cycles - 1, Cycle{100}}) {
    SimConfig shorter = cfg;
    shorter.measure_cycles = window;
    try {
      Session::restore(bytes, 0, &shorter);
      ADD_FAILURE() << "restored a " << window << "-cycle window";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("warm start rejected"),
                std::string::npos)
          << e.what();
    }
  }
  // Nor can the stop rule change inside the open window.
  SimConfig ci = cfg;
  ci.stop.mode = StopMode::kCi;
  EXPECT_THROW(Session::restore(bytes, 0, &ci), std::runtime_error);
}

TEST(Session, OpenCiWindowMovesOnlyItsCap) {
  // Inside an open stop.mode=ci window the batches are laid out: a
  // refinement may move the cap, not the batch length.
  SimConfig cfg = window_cfg();
  cfg.stop.mode = StopMode::kCi;
  cfg.stop.batch_cycles = 100;
  cfg.stop.rel_hw = 1e-6;  // never converges: the cap ends the window
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  session.step(250);
  const std::string bytes = session.checkpoint();

  SimConfig longer = cfg;
  longer.measure_cycles = cfg.measure_cycles + 200;
  expect_identical(run_simulation(longer),
                   Session::restore(bytes, 0, &longer)->run());
  SimConfig rebatched = cfg;
  rebatched.stop.batch_cycles = 50;
  EXPECT_THROW(Session::restore(bytes, 0, &rebatched), std::runtime_error);
}

TEST(Session, CheckpointCutAtAnyPrefixThrows) {
  // A window-end checkpoint carries every section (config, session,
  // in-flight packets, queues, events, metrics): cut it at 64 evenly
  // spaced lengths and every restore must fail with a runtime_error.
  const std::string bytes = window_end_checkpoint(window_cfg());
  constexpr std::size_t kCuts = 64;
  for (std::size_t i = 0; i < kCuts; ++i) {
    const std::size_t len = bytes.size() * i / kCuts;
    EXPECT_THROW(Session::restore(std::string_view(bytes).substr(0, len)),
                 std::runtime_error)
        << "cut at " << len << " of " << bytes.size();
  }
}

TEST(Session, ScriptedPhasesMutateLoadAndTraffic) {
  SimConfig cfg = quick("min", "uniform", 0.1);
  cfg.stream_interval = 500;
  cfg.phase_script = parse_phase_script(
      "calm:1000@load=0.1,burst:1000@load=0.5,shifted:500@traffic=adv");
  cfg.validate();

  Session session(cfg);
  RecordingTap tap;
  session.set_tap(&tap);
  const SimResult r = session.run();

  // The window spans all segments.
  EXPECT_EQ(r.measured_cycles, 2'500);
  EXPECT_EQ(session.now(), cfg.warmup_cycles + 2'500);

  // Samples report the active segment and its mutated load.
  double calm_delivered = 0.0;
  double burst_delivered = 0.0;
  bool saw_shifted = false;
  for (const StreamSample& s : tap.samples) {
    if (s.segment == "calm") {
      EXPECT_EQ(s.offered_load, 0.1);
      calm_delivered += static_cast<double>(s.delivered_packets);
    } else if (s.segment == "burst") {
      EXPECT_EQ(s.offered_load, 0.5);
      burst_delivered += static_cast<double>(s.delivered_packets);
    } else if (s.segment == "shifted") {
      saw_shifted = true;
      EXPECT_EQ(s.offered_load, 0.5);  // load carried over from burst
    }
  }
  EXPECT_TRUE(saw_shifted);
  EXPECT_GT(burst_delivered, 2.0 * calm_delivered);

  // Scripted runs stay deterministic.
  Session repeat(cfg);
  expect_identical(r, repeat.run());
}

TEST(Session, DrainEmptiesTheNetwork) {
  SimConfig cfg = quick("min", "uniform", 0.1);
  cfg.drain_max_cycles = 50'000;
  Session session(cfg);
  const SimResult r = session.run();
  EXPECT_GT(r.delivered_packets, 0);
  // Sources keep injecting during the drain, but a generous budget at
  // low load lets deliveries catch up: the network ends empty.
  EXPECT_EQ(session.network().packets().live(), 0u);
  EXPECT_LT(session.now(), cfg.warmup_cycles + cfg.measure_cycles + 50'000);
  testutil::expect_conservation(session.network());
}

}  // namespace
}  // namespace dragonfly
