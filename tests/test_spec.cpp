// The declarative layer: key=value overrides on SimConfig, the
// ExperimentSpec config-file grammar (loads ranges, comments, line-
// numbered diagnostics), run_spec, and the RunObserver progress hook.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace dragonfly {
namespace {

TEST(ConfigKv, AppliesKnownKeys) {
  SimConfig cfg = SimConfig::small(2);
  cfg.apply_kv("routing", "par-mm");
  cfg.apply_kv("traffic", "ADVc");  // legacy alias resolves
  cfg.apply_kv("load", "0.4");
  cfg.apply_kv("h", "3");
  cfg.apply_kv("transit_priority", "off");
  cfg.apply_kv("seed", "42");
  EXPECT_EQ(cfg.routing_name, "par-mm");
  EXPECT_EQ(cfg.traffic_name, "advc");  // canonicalized
  EXPECT_DOUBLE_EQ(cfg.load, 0.4);
  EXPECT_EQ(cfg.topo.h, 3);
  EXPECT_FALSE(cfg.transit_priority);
  EXPECT_EQ(cfg.seed, 42u);
}

TEST(ConfigKv, UnknownKeyListsValidKeys) {
  SimConfig cfg;
  EXPECT_FALSE(cfg.try_apply_kv("no_such_knob", "1"));
  try {
    cfg.apply_kv("no_such_knob", "1");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_knob"), std::string::npos);
    EXPECT_NE(msg.find("routing"), std::string::npos);
    EXPECT_NE(msg.find("measure_cycles"), std::string::npos);
  }
}

TEST(ConfigKv, BadValuesThrow) {
  SimConfig cfg;
  EXPECT_THROW(cfg.apply_kv("load", "fast"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("h", "3.5"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("transit_priority", "maybe"),
               std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("routing", "bogus"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("seed", "-1"), std::invalid_argument);
}

TEST(ConfigKv, FromKvBuildsConfig) {
  const std::vector<std::string> overrides{"h=2", "routing=pb-crg",
                                           "traffic=uniform", "load=0.25"};
  const SimConfig cfg = SimConfig::from_kv(overrides);
  EXPECT_EQ(cfg.topo.h, 2);
  EXPECT_EQ(cfg.routing_key(), "pb-crg");
  EXPECT_DOUBLE_EQ(cfg.load, 0.25);
  EXPECT_EQ(cfg.local_vcs, 4);  // vc defaults applied for source-adaptive
  EXPECT_THROW(SimConfig::from_kv(std::vector<std::string>{"h 2"}),
               std::invalid_argument);  // no '='
}

TEST(Spec, ParseLoads) {
  EXPECT_EQ(parse_loads("0.3"), std::vector<double>{0.3});
  EXPECT_EQ(parse_loads("0.1, 0.2, 0.4"),
            (std::vector<double>{0.1, 0.2, 0.4}));
  const std::vector<double> range = parse_loads("0.1:1.0:0.1");
  ASSERT_EQ(range.size(), 10u);
  EXPECT_DOUBLE_EQ(range.front(), 0.1);
  EXPECT_NEAR(range.back(), 1.0, 1e-12);
  EXPECT_THROW(parse_loads("0.1:1.0"), std::invalid_argument);
  EXPECT_THROW(parse_loads("1.0:0.1:0.1"), std::invalid_argument);
  EXPECT_THROW(parse_loads("abc"), std::invalid_argument);
  // Non-finite loads would pass every later range comparison.
  EXPECT_THROW(parse_loads("nan"), std::invalid_argument);
  EXPECT_THROW(parse_loads("0.1,inf"), std::invalid_argument);
  EXPECT_THROW(parse_loads("0.1:nan:0.1"), std::invalid_argument);
}

TEST(Spec, ParsesConfigFileGrammar) {
  std::istringstream file(R"(
# a comment line
label = grammar-demo
h = 2
routing = par-mm     # trailing comment
traffic = advc
loads = 0.1:0.3:0.1
seeds = 2
threads = 1
out = json
warmup_cycles = 500
measure_cycles = 1000
)");
  ExperimentSpec spec = ExperimentSpec::parse(file, "demo.spec");
  EXPECT_EQ(spec.label, "grammar-demo");
  EXPECT_EQ(spec.base.topo.h, 2);
  EXPECT_EQ(spec.base.routing_key(), "par-mm");
  EXPECT_EQ(spec.base.traffic_key(), "advc");
  ASSERT_EQ(spec.loads.size(), 3u);
  EXPECT_EQ(spec.seeds, 2);
  EXPECT_EQ(spec.format, OutputFormat::kJson);
  EXPECT_NO_THROW(spec.finalize());
  EXPECT_EQ(spec.base.local_vcs, 3);  // in-transit vc defaults applied
}

TEST(Spec, SessionLifecycleKeysReachableFromSpecGrammar) {
  std::istringstream file(R"(
h = 2
traffic = uniform
load = 0.1
warmup_cycles = 500
measure_cycles = 4000
stop.mode = ci            # adaptive stopping
stop.rel_hw = 0.08
stop.batches = 5
stop.batch_cycles = 300
drain.max_cycles = 2000
stream.interval = 250
)");
  ExperimentSpec spec = ExperimentSpec::parse(file, "ci.spec");
  EXPECT_EQ(spec.base.stop.mode, StopMode::kCi);
  EXPECT_DOUBLE_EQ(spec.base.stop.rel_hw, 0.08);
  EXPECT_EQ(spec.base.stop.batches, 5);
  EXPECT_EQ(spec.base.stop.batch_cycles, 300);
  EXPECT_EQ(spec.base.drain_max_cycles, 2000);
  EXPECT_EQ(spec.base.stream_interval, 250);
  EXPECT_NO_THROW(spec.finalize());

  std::istringstream scripted(
      "h = 2\nphases = calm:1000@load=0.1,burst:500@load=0.6\n");
  ExperimentSpec with_script = ExperimentSpec::parse(scripted, "ph.spec");
  ASSERT_EQ(with_script.base.phase_script.size(), 2u);
  EXPECT_EQ(with_script.base.phase_script[1].name, "burst");
  EXPECT_NO_THROW(with_script.finalize());
}

TEST(Spec, KeyDescriptionsCoverEveryKey) {
  const auto keys = ExperimentSpec::kv_keys();
  const auto descriptions = ExperimentSpec::kv_key_descriptions();
  ASSERT_EQ(keys.size(), descriptions.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], descriptions[i].first);  // both sorted
    EXPECT_FALSE(descriptions[i].second.empty()) << keys[i];
  }
  // The new session-lifecycle keys are part of the --list table.
  bool has_stop_mode = false;
  bool has_phases = false;
  bool has_workload_mode = false;
  for (const auto& [key, desc] : descriptions) {
    has_stop_mode = has_stop_mode || key == "stop.mode";
    has_phases = has_phases || key == "phases";
    has_workload_mode = has_workload_mode || key == "workload.mode";
  }
  EXPECT_TRUE(has_stop_mode);
  EXPECT_TRUE(has_phases);
  EXPECT_TRUE(has_workload_mode);
}

TEST(Spec, WorkloadKeysReachableFromSpecGrammar) {
  std::istringstream file(R"(
h = 2
routing = par-mm
load = 0.4
workload.mode = churn
workload.jobs = 3
workload.arrival_cycles = 250
workload.job_cycles = 1200
workload.job_routers = 2
workload.placement = random
workload.mix = uniform,shift
)");
  ExperimentSpec spec = ExperimentSpec::parse(file, "churn.spec");
  EXPECT_EQ(spec.base.workload.mode, "churn");
  EXPECT_EQ(spec.base.workload.jobs, 3);
  EXPECT_EQ(spec.base.workload.arrival_cycles, 250);
  EXPECT_EQ(spec.base.workload.job_cycles, 1200);
  EXPECT_EQ(spec.base.workload.job_routers, 2);
  EXPECT_EQ(spec.base.workload.placement, "random");
  EXPECT_EQ(spec.base.workload.mix, "uniform,shift");
  EXPECT_NO_THROW(spec.finalize());

  // Unknown vocabulary entries fail loudly with the valid names listed.
  std::istringstream bad("h = 2\nworkload.mode = sometimes\n");
  try {
    ExperimentSpec::parse(bad, "bad.spec");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sometimes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("churn"), std::string::npos) << msg;
  }
}

TEST(Spec, HashInValueAndExplicitTopologySurvive) {
  // '#' only starts a comment at line start / after whitespace.
  std::istringstream file(
      "label = sweep#3\nout_path = runs/run#1.csv  # real comment\n");
  const ExperimentSpec spec = ExperimentSpec::parse(file);
  EXPECT_EQ(spec.label, "sweep#3");
  EXPECT_EQ(spec.out_path, "runs/run#1.csv");

  // An explicit p/a is not clobbered by a later h (key order must not
  // silently change the requested topology).
  SimConfig cfg;
  cfg.apply_kv("p", "4");
  cfg.apply_kv("h", "3");
  EXPECT_EQ(cfg.topo.h, 3);
  EXPECT_EQ(cfg.topo.a, 6);  // balanced(3)
  EXPECT_EQ(cfg.topo.p, 4);  // explicit override preserved
  SimConfig plain;
  plain.apply_kv("h", "3");
  EXPECT_EQ(plain.topo.p, 3);  // no override: fully balanced
}

TEST(Spec, DiagnosticsCarryOriginAndLine) {
  std::istringstream file("h = 2\nrouting = nonexistent\n");
  try {
    ExperimentSpec::parse(file, "bad.spec");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad.spec:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nonexistent"), std::string::npos);
    EXPECT_NE(msg.find("par-mm"), std::string::npos);  // lists valid names
  }
}

TEST(Spec, ExplicitVcsSurviveFinalize) {
  ExperimentSpec spec;
  spec.base = SimConfig::small(2);
  spec.apply_kv("routing", "par-mm");
  spec.apply_kv("local_vcs", "5");
  spec.finalize();
  EXPECT_EQ(spec.base.local_vcs, 5);  // not clobbered to the in-transit 3
}

TEST(Spec, RunSpecSweepsAndObserves) {
  ExperimentSpec spec;
  spec.base = SimConfig::small(2);
  spec.base.warmup_cycles = 500;
  spec.base.measure_cycles = 1'000;
  spec.apply_kv("routing", "min");
  spec.apply_kv("traffic", "uniform");
  spec.apply_kv("loads", "0.1,0.2");
  spec.apply_kv("seeds", "2");
  spec.apply_kv("threads", "2");
  spec.finalize();

  struct CountingObserver : RunObserver {
    std::size_t total = 0;
    std::size_t configs = 0;
    std::atomic<std::size_t> jobs{0};
    std::size_t config_done = 0;
    void on_start(std::size_t total_jobs, std::size_t num_configs) override {
      total = total_jobs;
      configs = num_configs;
    }
    void on_job_done(std::size_t, std::size_t) override { ++jobs; }
    void on_config_done(std::size_t, const AveragedResult&) override {
      ++config_done;
    }
  } observer;

  const std::vector<AveragedResult> results = run_spec(spec, &observer);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].offered_load, 0.1);
  EXPECT_DOUBLE_EQ(results[1].offered_load, 0.2);
  EXPECT_EQ(results[0].seeds, 2);
  EXPECT_EQ(observer.total, 4u);  // 2 loads x 2 seeds
  EXPECT_EQ(observer.configs, 2u);
  EXPECT_EQ(observer.jobs.load(), 4u);
  EXPECT_EQ(observer.config_done, 2u);
}

TEST(Spec, ObserverDoesNotPerturbResults) {
  ExperimentSpec spec;
  spec.base = SimConfig::small(2);
  spec.base.warmup_cycles = 500;
  spec.base.measure_cycles = 1'000;
  spec.apply_kv("loads", "0.15");
  spec.finalize();
  std::ostringstream os;
  ProgressPrinter printer(os);
  const auto with = run_spec(spec, &printer);
  const auto without = run_spec(spec, nullptr);
  ASSERT_EQ(with.size(), without.size());
  EXPECT_EQ(with[0].avg_latency, without[0].avg_latency);
  EXPECT_EQ(with[0].accepted_load, without[0].accepted_load);
  EXPECT_NE(os.str().find("jobs"), std::string::npos);
}

TEST(Spec, BenchSetupStillHonorsEnvKnobs) {
  setenv("REPRO_H", "2", 1);
  setenv("REPRO_SEEDS", "4", 1);
  const BenchSetup setup = bench_setup();
  EXPECT_EQ(setup.spec.base.topo.h, 2);
  EXPECT_EQ(setup.spec.seeds, 4);
  unsetenv("REPRO_H");
  unsetenv("REPRO_SEEDS");
}

}  // namespace
}  // namespace dragonfly
