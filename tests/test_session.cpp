// Session phase machine, streaming taps, adaptive stopping, scripted
// phases, checkpoint/restore and run_simulation().
#include "sim/session.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string_view>

#include "common/checkpoint.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::expect_field_refusal;
using testutil::expect_identical;
using testutil::quick;
using testutil::resealed;
using testutil::spliced;

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
  CheckpointReader reader(std::string_view(bytes).substr(at + key.size()));
  ASSERT_EQ(reader.str(), "active");
  const std::size_t value = at + key.size() + reader.offset() - 6;
  bytes.replace(value, 6, "warped");
  const std::string why = restore_error(resealed(bytes));
  EXPECT_EQ(why.rfind("checkpoint: corrupt config", 0), 0u) << why;
  EXPECT_NE(why.find("warped"), std::string::npos) << why;

  // A section whose keys drifted out of table order fails the same way.
  bytes = measure_boundary_checkpoint();
  const std::size_t seed = bytes.find("seed");
  ASSERT_NE(seed, std::string::npos);
  bytes.replace(seed, 4, "sead");
  const std::string drift = restore_error(resealed(bytes));
  EXPECT_EQ(drift.rfind("checkpoint: config section", 0), 0u) << drift;
}

TEST(Session, CheckpointRefusesAConfigThatCannotBuild) {
  // validate() accepts groups=2 at h=2, but ADVc's default spread of h
  // groups then reaches past the last group and the pattern refuses to
  // build. The restore must name the corrupt config section, not let
  // the pattern's std::invalid_argument escape.
  Session session(quick("min", "advc", 0.1));
  session.advance_to(SessionPhase::kMeasure);
  std::stringstream stream;
  session.checkpoint(stream);
  std::string bytes = stream.str();
  const std::string key = "groups";
  const std::size_t at = bytes.find(key);
  ASSERT_NE(at, std::string::npos);
  CheckpointReader reader(std::string_view(bytes).substr(at + key.size()));
  ASSERT_EQ(reader.str(), "0");
  bytes[at + key.size() + reader.offset() - 1] = '2';
  EXPECT_EQ(restore_error(resealed(bytes)),
            "checkpoint: embedded config invalid: ADVc spread out of range");
}

/// `bytes` with the header's format version replaced by `version`. The
/// header is fixed-width in every format: a u64 magic length, the
/// magic, a u32 version.
std::string with_version(std::string bytes, std::uint32_t version) {
  CheckpointReader reader(bytes);
  (void)reader.raw(static_cast<std::size_t>(reader.le64()));
  const std::size_t version_at = reader.offset();
  CheckpointWriter ck;
  ck.le32(version);
  bytes.replace(version_at, ck.bytes().size(), ck.bytes());
  return bytes;
}

TEST(Session, CheckpointRejectsAnOlderFormatVersion) {
  const std::string bytes = measure_boundary_checkpoint();
  EXPECT_EQ(restore_error(with_version(bytes, 5)),
            "checkpoint: unsupported version 5");
  // A v6 file has this header and a fixed-width body with no trailer;
  // the version alone refuses it.
  std::string v6 = with_version(bytes, 6);
  v6.resize(v6.size() - kTrailerBytes);
  EXPECT_EQ(restore_error(v6), "checkpoint: unsupported version 6");
  // A v7 file has this layout with an FNV-1a 64 trailer; the version
  // refuses it before the trailer is read.
  EXPECT_EQ(restore_error(with_version(bytes, 7)),
            "checkpoint: unsupported version 7");
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

TEST(Session, CheckpointRejectsMalformedPendingEvents) {
  // One edited field of the first pending event. Each edit must fail
  // the restore promptly with a checkpoint diagnostic: none may hang,
  // take memory without bound, reach the kernel or vanish silently.
  const std::string clean = window_end_checkpoint(window_cfg());
  const std::string tag = "Events";
  const std::size_t at = clean.find(tag);
  ASSERT_NE(at, std::string::npos);
  // Section layout: the event count, then per event when (i64), type
  // (u8), router, port, vc, phits and packet (i32 each).
  const std::size_t section = at + tag.size();
  CheckpointReader reader(std::string_view(clean).substr(section));
  ASSERT_GT(reader.u64(), 0u);
  const std::size_t when_at = section + reader.offset();
  const std::int64_t when = reader.i64();
  const std::size_t type_at = section + reader.offset();
  ASSERT_LE(reader.u8(), 1) << "not the Events section";
  (void)reader.i32();  // router
  const std::size_t port_at = section + reader.offset();

  CheckpointWriter never, far, type, port;
  never.i64(std::numeric_limits<std::int64_t>::max());
  far.i64(when + (std::int64_t{1} << 24));
  type.u8(7);
  port.i32(100'000);
  for (const std::string& bytes :
       {spliced<std::int64_t>(clean, when_at, never),
        spliced<std::int64_t>(clean, when_at, far),
        spliced<std::uint8_t>(clean, type_at, type),
        spliced<std::int32_t>(clean, port_at, port)}) {
    expect_field_refusal(restore_error(bytes));
  }
  EXPECT_EQ(restore_error(clean), "restored without error");
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
      Session::restore(window_end_checkpoint(cfg), &longer);
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
      Session::restore(bytes, &shorter);
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
  EXPECT_THROW(Session::restore(bytes, &ci), std::runtime_error);
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
                   Session::restore(bytes, &longer)->run());
  SimConfig rebatched = cfg;
  rebatched.stop.batch_cycles = 50;
  EXPECT_THROW(Session::restore(bytes, &rebatched), std::runtime_error);
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

/// A window-end checkpoint of a collective workload: it carries every
/// section.
std::string collective_window_end_checkpoint() {
  SimConfig cfg = window_cfg();
  cfg.workload.mode = "collective";
  cfg.workload.collective = "ring";
  cfg.workload.participants = 12;
  return window_end_checkpoint(cfg);
}

TEST(Session, CheckpointTrailerRefusesAFlippedBitInEverySection) {
  // One flipped bit just inside any section fails the trailer's digest
  // before the config is read, and so does one in the trailer.
  const std::string clean = collective_window_end_checkpoint();
  ASSERT_EQ(restore_error(clean), "restored without error");
  for (const std::string tag :
       {"SimConfig", "Session", "Network", "Packets", "Events", "Deliveries",
        "Collector", "Latency", "HotState", "Router", "Workload"}) {
    const std::size_t at = clean.find(tag);
    ASSERT_NE(at, std::string::npos) << tag;
    std::string bytes = clean;
    bytes[at + tag.size()] ^= 0x10;
    EXPECT_EQ(restore_error(bytes),
              "checkpoint: checksum mismatch (corrupt stream)")
        << tag;
  }
  for (const std::size_t from_end : {kTrailerBytes, std::size_t{1}}) {
    std::string bytes = clean;
    bytes[bytes.size() - from_end] ^= 0x01;
    EXPECT_EQ(restore_error(bytes).rfind("checkpoint: ", 0), 0u) << from_end;
  }
}

TEST(Session, CheckpointRefusesEverySingleBitFlip) {
  // Every bit of a real checkpoint, flipped alone: a flip in the header
  // fails its own check (magic or version), one in the body or the
  // digest fails the digest, one in the recorded length fails the
  // length. None restores.
  std::string bytes = collective_window_end_checkpoint();
  ASSERT_GT(bytes.size(), 10'000u);
  CheckpointReader header(bytes);
  (void)header.raw(static_cast<std::size_t>(header.le64()));
  (void)header.le32();
  const std::size_t body_begin = header.offset();
  const std::size_t body_end = bytes.size() - kTrailerBytes;
  auto why = [&bytes]() -> std::string {
    try {
      Session::restore(std::string_view(bytes));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "restored without error";
  };
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      const std::string got = why();
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      if (at >= body_begin && at < body_end) {
        EXPECT_EQ(got, "checkpoint: checksum mismatch (corrupt stream)")
            << "bit " << bit << " of byte " << at;
      } else {
        EXPECT_EQ(got.rfind("checkpoint: ", 0), 0u)
            << "bit " << bit << " of byte " << at << ": " << got;
      }
    }
  }
}

TEST(Session, CheckpointTrailerRefusesACutOrPaddedStream) {
  const std::string clean = window_end_checkpoint(window_cfg());
  const std::string_view body =
      std::string_view(clean).substr(0, clean.size() - kTrailerBytes);
  // Cut inside the trailer, at its start (a body with no trailer) and
  // inside the body: the recorded length no longer fits.
  for (const std::size_t cut : {std::size_t{1}, kTrailerBytes,
                                kTrailerBytes + clean.size() / 3}) {
    const std::string why =
        restore_error(clean.substr(0, clean.size() - cut));
    EXPECT_EQ(why.rfind("checkpoint: stream of ", 0), 0u)
        << cut << ": " << why;
  }
  // One byte removed from the body, with the rest of the stream kept.
  std::string short_body(body);
  short_body.erase(short_body.size() / 2, 1);
  short_body.append(clean, body.size(), kTrailerBytes);
  EXPECT_EQ(restore_error(short_body).rfind("checkpoint: stream of ", 0), 0u);
  // A correctly sealed stream with a byte past its last section.
  CheckpointWriter padded;
  padded.raw(body);
  padded.u8(0);
  padded.seal();
  EXPECT_EQ(restore_error(padded.take()),
            "checkpoint: 1 byte(s) after the last section");
}

TEST(Session, CheckpointRejectsAnOutOfRangePhase) {
  // The Session section opens with the phase (u8), the armed flag (u8),
  // the phase deadline (i64), the phase-script segment index (u64) and
  // the segment's end (i64). `field_at` is the offset of field number
  // `index`.
  auto field_at = [](const std::string& clean, int index) {
    const std::string tag = "Session";
    const std::size_t at = clean.find(tag);
    EXPECT_NE(at, std::string::npos);
    CheckpointReader reader(std::string_view(clean).substr(at + tag.size()));
    if (index > 0) (void)reader.u8();
    if (index > 1) (void)reader.u8();
    if (index > 2) (void)reader.i64();
    if (index > 3) (void)reader.u64();
    return at + tag.size() + reader.offset();
  };
  auto refused = [](const std::string& bytes) {
    expect_field_refusal(restore_error(bytes));
  };

  // A stored phase past kDone: the restore must refuse it instead of
  // returning a session whose run() measures nothing.
  CheckpointWriter phase;
  phase.u8(9);
  const std::string window_end = window_end_checkpoint(window_cfg());
  refused(spliced<std::uint8_t>(window_end, field_at(window_end, 0), phase));

  // A scripted session inside its first segment, and one inside its
  // last; both restore as saved.
  SimConfig scripted = window_cfg();
  scripted.phase_script = parse_phase_script("a:300,b:300");
  Session session(scripted);
  session.advance_to(SessionPhase::kMeasure);
  session.step(100);
  const std::string first = session.checkpoint();
  session.step(300);
  ASSERT_EQ(session.segment(), "b");
  EXPECT_EQ(restore_error(first), "restored without error");
  EXPECT_EQ(restore_error(session.checkpoint()), "restored without error");

  // Its segment index moved past the script's end, or onto the last
  // segment while the first segment's end stays stored: either way the
  // next segment boundary would index the script out of range.
  CheckpointWriter past_end;
  past_end.u64(2);
  refused(spliced<std::uint64_t>(first, field_at(first, 3), past_end));
  CheckpointWriter last;
  last.u64(1);
  refused(spliced<std::uint64_t>(first, field_at(first, 3), last));

  // A segment end before the current cycle, which step() would never
  // reach.
  CheckpointWriter gone;
  gone.i64(0);
  refused(spliced<std::int64_t>(first, field_at(first, 4), gone));
}

// --- restored ids used as indices -----------------------------------------

/// Offset just past the first tag `tag` in `bytes`.
std::size_t section_at(const std::string& bytes, const std::string& tag) {
  const std::size_t at = bytes.find(tag);
  EXPECT_NE(at, std::string::npos) << tag;
  return at + tag.size();
}

TEST(Session, CheckpointRejectsOutOfRangePacketIds) {
  // Every id a restored packet carries into an index (the topology's
  // tables, the router and port arrays, the phase switch) is refused as
  // a checkpoint error. The fields are the first stored packet's, in
  // Packet::walk order.
  const SimConfig cfg = window_cfg();
  const std::string clean = window_end_checkpoint(cfg);
  const std::size_t section = section_at(clean, "Packets");
  CheckpointReader reader(std::string_view(clean).substr(section));
  ASSERT_GT(reader.u64(), 0u);
  auto skip = [&reader](auto value) {
    const std::size_t at = reader.offset();
    reader.field(value);
    return at;
  };
  (void)skip(std::int64_t{});                  // id
  const std::size_t src_at = skip(std::int32_t{});
  const std::size_t dst_at = skip(std::int32_t{});
  (void)skip(std::int32_t{});                  // size_phits
  const std::size_t phase_at = skip(std::uint8_t{});
  const std::size_t group_at = skip(std::int32_t{});
  const std::size_t exit_router_at = skip(std::int32_t{});
  const std::size_t exit_port_at = skip(std::int32_t{});
  (void)skip(bool{});                          // local_misrouted_this_group
  (void)skip(std::uint8_t{});                  // local_hops
  (void)skip(std::uint8_t{});                  // global_hops
  (void)skip(std::uint32_t{});                 // denied_cycles
  const std::size_t router_at = skip(std::int32_t{});

  const Session shape(cfg);
  const Topology& topo = shape.network().topology();
  auto i32 = [&clean, section](std::size_t at, std::int32_t value) {
    CheckpointWriter with;
    with.i32(value);
    return spliced<std::int32_t>(clean, section + at, with);
  };
  CheckpointWriter phase;
  phase.u8(3);
  // The packet on its way to an intermediate group (phase byte 1) with
  // the given non-minimal path: there, -1 is not an unset field.
  auto to_intermediate = [&clean, section, exit_port_at, exit_router_at,
                          group_at, phase_at](std::int32_t group,
                                              std::int32_t exit_router,
                                              std::int32_t exit_port) {
    std::string bytes = clean;
    // Last field first, so the earlier offsets still hold.
    const std::pair<std::size_t, std::int32_t> fields[] = {
        {exit_port_at, exit_port},
        {exit_router_at, exit_router},
        {group_at, group}};
    for (const auto& [at, value] : fields) {
      CheckpointWriter with;
      with.i32(value);
      bytes = spliced<std::int32_t>(std::move(bytes), section + at, with);
    }
    CheckpointWriter to;
    to.u8(static_cast<std::uint8_t>(Phase::kToIntermediate));
    return spliced<std::uint8_t>(std::move(bytes), section + phase_at, to);
  };
  const std::pair<std::string, std::string> cases[] = {
      {i32(src_at, topo.num_nodes()), "source node"},
      {i32(dst_at, topo.num_nodes()), "destination node"},
      {spliced<std::uint8_t>(clean, section + phase_at, phase), "phase"},
      {to_intermediate(kInvalidGroup, 0, 0), "intermediate group"},
      {to_intermediate(0, kInvalidRouter, 0), "non-minimal exit router"},
      {to_intermediate(0, 0, kInvalidPort), "non-minimal exit port"},
      {i32(group_at, topo.num_groups()), "intermediate group"},
      {i32(exit_router_at, topo.num_routers()), "non-minimal exit router"},
      {i32(exit_port_at, shape.network().hot().layout().ports),
       "non-minimal exit port"},
      {i32(router_at, kInvalidRouter), "current router"},
  };
  for (const auto& [bytes, field] : cases) {
    const std::string why = restore_error(bytes);
    expect_field_refusal(why);
    EXPECT_EQ(why.rfind("checkpoint: packet " + field + " ", 0), 0u) << why;
  }
  EXPECT_EQ(restore_error(clean), "restored without error");
  EXPECT_EQ(restore_error(to_intermediate(0, 0, 0)), "restored without error");
}

TEST(Session, CheckpointRejectsAnOutputQueueEntryForAMissingVc) {
  // Each Router section holds the RNG (four raw words), each input
  // port's VC FIFOs (a VC count, then per VC a length and its packet
  // refs) and each output queue (a length, then per entry the packet
  // ref, the downstream VC and the ready cycle). Find the first queued
  // entry's VC.
  const SimConfig cfg = window_cfg();
  const std::string clean = window_end_checkpoint(cfg);
  const int ports = Session(cfg).network().hot().layout().ports;
  const std::string tag = "Router";
  std::size_t vc_at = std::string::npos;
  for (std::size_t at = clean.find(tag, section_at(clean, "HotState"));
       at != std::string::npos && vc_at == std::string::npos;
       at = clean.find(tag, at + tag.size())) {
    const std::size_t body = at + tag.size();
    CheckpointReader reader(std::string_view(clean).substr(body));
    for (int word = 0; word < 4; ++word) (void)reader.le64();
    for (int port = 0; port < ports; ++port) {
      const std::uint64_t vcs = reader.u64();
      for (std::uint64_t vc = 0; vc < vcs; ++vc) {
        const std::uint64_t packets = reader.u64();
        for (std::uint64_t i = 0; i < packets; ++i) (void)reader.i32();
      }
    }
    for (int port = 0; port < ports && vc_at == std::string::npos; ++port) {
      if (reader.u64() == 0) continue;
      (void)reader.i32();  // packet
      vc_at = body + reader.offset();
    }
  }
  ASSERT_NE(vc_at, std::string::npos) << "no queued output entry";
  CheckpointWriter vc;
  vc.i32(100);
  const std::string why =
      restore_error(spliced<std::int32_t>(clean, vc_at, vc));
  expect_field_refusal(why);
  EXPECT_EQ(why.rfind("checkpoint: output queue entry for VC 100 ", 0), 0u)
      << why;
}

// --- the invariant sweep catches planted faults ----------------------------
// HotState::load restores its counters unchecked, so a resealed
// checkpoint can plant a fault that only check_invariants sees.

/// Offset of value `i` of i32 array `array` of the HotState section,
/// whose arrays are the credits (0), output-queue occupancies (1), link
/// deadlines (2, i64) and input-VC occupancies (3), each a count and
/// its values.
std::size_t hot_value_at(const std::string& bytes, int array, std::size_t i) {
  const std::size_t section = section_at(bytes, "HotState");
  CheckpointReader reader(std::string_view(bytes).substr(section));
  for (int a = 0; a < array; ++a) {
    const std::uint64_t n = reader.u64();
    for (std::uint64_t k = 0; k < n; ++k) {
      if (a == 2) {
        (void)reader.i64();
      } else {
        (void)reader.i32();
      }
    }
  }
  (void)reader.u64();
  for (std::size_t k = 0; k < i; ++k) (void)reader.i32();
  return section + reader.offset();
}

std::unique_ptr<Session> restored(const std::string& bytes) {
  std::stringstream stream(bytes);
  return Session::restore(stream);
}

/// What check_invariants throws on the restored `bytes`.
std::string sweep_error(const std::string& bytes) {
  const auto session = restored(bytes);
  try {
    session->network().check_invariants();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "no violation";
}

TEST(Session, InvariantSweepCatchesACreditAboveItsCapacity) {
  for (const SimKernel kernel : {SimKernel::kActive, SimKernel::kScan}) {
    SimConfig cfg = window_cfg();
    cfg.kernel = kernel;
    const std::string clean = window_end_checkpoint(cfg);
    ASSERT_EQ(sweep_error(clean), "no violation");
    const auto session = restored(clean);
    // The first finite credit pool (ejection pools are unbounded).
    const auto& caps = session->network().hot().all_credit_capacity();
    std::size_t i = 0;
    while (caps[i] >= (1 << 28)) ++i;
    CheckpointWriter above;
    above.i32(caps[i] + 1);
    EXPECT_EQ(sweep_error(spliced<std::int32_t>(
                  clean, hot_value_at(clean, 0, i), above)),
              "check_invariants @" + std::to_string(session->now()) +
                  ": flat output VC " + std::to_string(i) + " credits " +
                  std::to_string(caps[i] + 1) + " outside [0, " +
                  std::to_string(caps[i]) + "]");
  }
}

TEST(Session, InvariantSweepCatchesAnOccupancyItsFifoDisagreesWith) {
  // The restore derives each VC's mask bit from its FIFO, so an
  // occupancy planted on an empty FIFO, or zeroed under a full one,
  // disagrees with its mask bit.
  for (const SimKernel kernel : {SimKernel::kActive, SimKernel::kScan}) {
    SimConfig cfg = window_cfg();
    cfg.kernel = kernel;
    const std::string clean = window_end_checkpoint(cfg);
    const auto session = restored(clean);
    const HotState& hot = session->network().hot();
    const auto& occ = hot.all_in_occupancy();
    const auto stride = static_cast<std::size_t>(hot.layout().in_stride());
    for (const bool buffered : {false, true}) {
      std::size_t i = 0;
      while ((occ[i] > 0) != buffered) ++i;
      const std::int32_t planted = buffered ? 0 : cfg.packet_size;
      CheckpointWriter with;
      with.i32(planted);
      EXPECT_EQ(sweep_error(spliced<std::int32_t>(
                    clean, hot_value_at(clean, 3, i), with)),
                "check_invariants @" + std::to_string(session->now()) +
                    ": router " + std::to_string(i / stride) +
                    " flat input VC " + std::to_string(i % stride) +
                    " occupancy " + std::to_string(planted) +
                    " inconsistent with mask bit " +
                    std::to_string(buffered ? 1 : 0));
    }
  }
}

// --- per-group sums ---------------------------------------------------------

/// Uniform traffic from every router but the second of each group,
/// which stays silent: a pattern that silences part of every group.
class SilentSecondRouter final : public TrafficPattern {
 public:
  explicit SilentSecondRouter(const Topology& topo) : topo_(topo) {}
  std::string name() const override { return "test-silent-second-router"; }
  bool generates(NodeId src) const override {
    return topo_.router_in_group(topo_.router_of_node(src)) != 1;
  }
  NodeId destination(NodeId src, Rng& rng) const override {
    if (!generates(src)) return kInvalidNode;
    const auto dst = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(topo_.num_nodes())));
    return dst == src ? (dst + 1) % topo_.num_nodes() : dst;
  }

 private:
  const Topology& topo_;
};

TEST(Session, GroupSumsAttributeEachRouterToItsOwnGroup) {
  const std::string key = "test-silent-second-router";
  if (!traffic_registry().contains(key)) {
    traffic_registry().add(key, [](const Topology& topo, const SimConfig&) {
      return std::make_unique<SilentSecondRouter>(topo);
    });
  }
  Session session(quick("min", key, 0.3));
  const SimResult r = session.run();
  const Topology& topo = session.network().topology();
  std::vector<double> sums(static_cast<std::size_t>(topo.num_groups()), 0.0);
  for (RouterId rtr = 0; rtr < topo.num_routers(); ++rtr) {
    const std::int64_t injected =
        r.injections_per_router[static_cast<std::size_t>(rtr)];
    if (topo.router_in_group(rtr) == 1) {
      EXPECT_EQ(injected, 0) << rtr;
    } else {
      EXPECT_GT(injected, 0) << rtr;
    }
    sums[static_cast<std::size_t>(topo.group_of_router(rtr))] +=
        static_cast<double>(injected);
  }
  EXPECT_EQ(r.jain_groups, summarize(sums).jain);
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
