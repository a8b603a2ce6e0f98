// Sweep-service engine semantics: result-cache hits must be free and
// byte-identical, any knob change must miss, warm starts must be
// bit-identical to cold runs of the refined window, incompatible
// warm-start requests must be rejected with a diagnostic, and
// concurrent sessions must share one Topology per shape.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "sim/session.hpp"

namespace dragonfly {
namespace {

/// A small, fast request: 72-node dragonfly, short windows.
std::vector<std::string> base_items() {
  return {
      "topology=dfly:2,4,2", "routing=min",      "traffic=uniform",
      "load=0.2",            "seeds=2",          "warmup_cycles=200",
      "measure_cycles=300",  "label=svc",
  };
}

std::vector<std::string> with(std::vector<std::string> items,
                              const std::string& extra) {
  items.push_back(extra);
  return items;
}

std::string row_of(const PointReport& p) {
  return ResultWriter::csv_row(p.label, p.result);
}

TEST(SweepService, IdenticalRerequestHitsWithZeroCyclesAndIdenticalBytes) {
  SweepService service(ServiceOptions{.workers = 2});
  const RequestReport first = service.execute(base_items());
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_EQ(first.points.size(), 1u);
  EXPECT_EQ(first.points[0].source, PointSource::kMiss);
  EXPECT_GT(first.points[0].cycles_simulated, 0);

  const RequestReport second = service.execute(base_items());
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.points[0].source, PointSource::kHit);
  EXPECT_EQ(second.points[0].cycles_simulated, 0);
  EXPECT_EQ(second.points[0].hash, first.points[0].hash);
  EXPECT_EQ(row_of(second.points[0]), row_of(first.points[0]));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cold_runs, 1);
  EXPECT_EQ(stats.result_hits, 1);
}

TEST(SweepService, AnyKnobChangeMisses) {
  SweepService service(ServiceOptions{.workers = 2});
  const RequestReport first = service.execute(base_items());
  ASSERT_TRUE(first.ok()) << first.error;

  // Each of these is one "--set"-style knob away from the cached point
  // and must re-simulate (different canonical hash).
  const std::vector<std::string> changes = {
      "load=0.25",        "seed=7",          "routing=val-rrg",
      "global_vcs=4",     "packet_size=16",  "transit_priority=off",
  };
  for (const std::string& change : changes) {
    const RequestReport rep = service.execute(with(base_items(), change));
    ASSERT_TRUE(rep.ok()) << change << ": " << rep.error;
    EXPECT_NE(rep.points[0].source, PointSource::kHit) << change;
    EXPECT_NE(rep.points[0].hash, first.points[0].hash) << change;
  }

  // A changed replica count shares the config hash prefix but not the
  // point key.
  const RequestReport more_seeds =
      service.execute(with(base_items(), "seeds=3"));
  ASSERT_TRUE(more_seeds.ok()) << more_seeds.error;
  EXPECT_NE(more_seeds.points[0].source, PointSource::kHit);
}

TEST(SweepService, WarmStartIsBitIdenticalToColdRunOfLongerWindow) {
  const std::vector<std::string> refined =
      with(base_items(), "measure_cycles=700");

  // Service A: cold short run, then the refinement — must warm-start.
  SweepService warm_service(ServiceOptions{.workers = 2});
  const RequestReport cold_short = warm_service.execute(base_items());
  ASSERT_TRUE(cold_short.ok()) << cold_short.error;
  const RequestReport warmed = warm_service.execute(refined);
  ASSERT_TRUE(warmed.ok()) << warmed.error;
  ASSERT_EQ(warmed.points[0].source, PointSource::kWarm);
  EXPECT_EQ(warmed.points[0].warm_hash, cold_short.points[0].warm_hash);
  EXPECT_NE(warmed.points[0].hash, cold_short.points[0].hash);
  // The warm start resumed one cycle before the cached 300-cycle window
  // closed and simulated only what the 700-cycle window adds, per
  // replica.
  EXPECT_EQ(warmed.points[0].cycles_simulated, 2 * (700 - 300 + 1));

  // Service B: the same refined request cold, in a fresh process-like
  // state. Results must match byte for byte.
  SweepService cold_service(ServiceOptions{.workers = 2});
  const RequestReport cold_long = cold_service.execute(refined);
  ASSERT_TRUE(cold_long.ok()) << cold_long.error;
  EXPECT_EQ(cold_long.points[0].source, PointSource::kMiss);
  EXPECT_EQ(cold_long.points[0].cycles_simulated, 2 * (200 + 700));
  EXPECT_EQ(row_of(warmed.points[0]), row_of(cold_long.points[0]));
}

/// `items` executed on a service that has seen nothing before.
RequestReport fresh_run(const std::vector<std::string>& items) {
  SweepService service(ServiceOptions{.workers = 2});
  return service.execute(items);
}

TEST(SweepService, StopRuleRefinementRunsColdAndMatches) {
  // Same refinement family, but a CI stop rule has no fixed deadline to
  // move: the point runs cold and captures nothing.
  SweepService service(ServiceOptions{.workers = 2});
  ASSERT_TRUE(service.execute(base_items()).ok());
  const std::vector<std::string> ci =
      with(with(base_items(), "stop.mode=ci"), "stop.batch_cycles=100");
  const RequestReport rep = service.execute(ci);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.points[0].source, PointSource::kMiss);
  const RequestReport fresh = fresh_run(ci);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_EQ(row_of(rep.points[0]), row_of(fresh.points[0]));
  EXPECT_EQ(service.stats().warm_cache.entries, 1u);
}

TEST(SweepService, ShorterWindowRefinementRunsColdAndMatches) {
  SweepService service(ServiceOptions{.workers = 2});
  ASSERT_TRUE(service.execute(base_items()).ok());
  const std::vector<std::string> shorter =
      with(base_items(), "measure_cycles=250");
  const RequestReport rep = service.execute(shorter);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.points[0].source, PointSource::kMiss);
  EXPECT_EQ(rep.points[0].cycles_simulated, 2 * (200 + 250));
  const RequestReport fresh = fresh_run(shorter);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_EQ(row_of(rep.points[0]), row_of(fresh.points[0]));

  // That cold run re-captured its own window: a 280-cycle window now
  // resumes from the 250-cycle one.
  const RequestReport next =
      service.execute(with(base_items(), "measure_cycles=280"));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.points[0].source, PointSource::kWarm);
  EXPECT_EQ(next.points[0].cycles_simulated, 2 * (280 - 250 + 1));
}

TEST(SweepService, LongerWindowOnTwoShardsAndTheScanKernelWarmStarts) {
  SweepService service(ServiceOptions{.workers = 2});
  ASSERT_TRUE(service.execute(base_items()).ok());
  const std::vector<std::string> refined = with(
      with(with(base_items(), "measure_cycles=450"), "sim.shards=2"),
      "sim.kernel=scan");
  const RequestReport rep = service.execute(refined);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.points[0].source, PointSource::kWarm);
  EXPECT_EQ(rep.points[0].cycles_simulated, 2 * (450 - 300 + 1));
  // Bit-identical to the plain cold run of the longer window: shards
  // and kernel change how, not what, the network computes.
  const RequestReport cold = fresh_run(with(base_items(), "measure_cycles=450"));
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.points[0].source, PointSource::kMiss);
  EXPECT_EQ(row_of(rep.points[0]), row_of(cold.points[0]));
}

TEST(SweepService, ConcurrentIdenticalRequestsSimulateOnce) {
  SweepService service(ServiceOptions{.workers = 4});
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<RequestReport> reports(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&service, &reports, i] { reports[i] = service.execute(base_items()); });
  }
  for (std::thread& t : clients) t.join();

  const std::string row = row_of(reports[0].points[0]);
  for (const RequestReport& rep : reports) {
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(row_of(rep.points[0]), row);
  }
  // Exactly one client simulated; the rest hit the cache or joined the
  // in-flight run (which of the two depends on timing).
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cold_runs, 1);
  EXPECT_EQ(stats.result_hits + stats.coalesced, kClients - 1);
}

TEST(SweepService, SweepPointsShareOneTopology) {
  SweepService service(ServiceOptions{.workers = 4});
  const RequestReport rep =
      service.execute(with(base_items(), "loads=0.1,0.2,0.3"));
  ASSERT_TRUE(rep.ok()) << rep.error;
  ASSERT_EQ(rep.points.size(), 3u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.topologies.live, 1u);
  EXPECT_EQ(stats.topologies.misses, 1);
  EXPECT_EQ(stats.topologies.hits, 2);
}

TEST(SweepService, ParseErrorsReportWithoutSimulating) {
  SweepService service(ServiceOptions{.workers = 1});
  const RequestReport rep = service.execute({"no_such_knob=1"});
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.error.find("no_such_knob"), std::string::npos) << rep.error;
  EXPECT_EQ(service.stats().cold_runs, 0);
}

/// Subscribed observers see per-interval samples from in-flight points.
TEST(SweepService, StreamsSamplesToSubscribers) {
  class Counter final : public RunObserver {
   public:
    void on_sample(std::size_t, std::size_t, const StreamSample&) override {
      ++samples;
    }
    std::atomic<int> samples{0};
  };

  SweepService service(ServiceOptions{.workers = 2});
  Counter counter;
  const RequestReport rep = service.execute(
      with(base_items(), "stream.interval=50"), &counter);
  ASSERT_TRUE(rep.ok()) << rep.error;
  // 2 replicas x (200 warmup + 300 measure) / 50-cycle interval.
  EXPECT_GE(counter.samples.load(), 2 * (500 / 50 - 1));

  // Cache hits replay nothing: no cycles, no samples.
  Counter on_hit;
  const RequestReport hit = service.execute(
      with(base_items(), "stream.interval=50"), &on_hit);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.points[0].source, PointSource::kHit);
  EXPECT_EQ(on_hit.samples.load(), 0);
}

// --- satellite: restore-time re-validation ----------------------------------

TEST(SessionWarmRestore, IncompatibleKnobIsRejectedWithDiagnostic) {
  SimConfig cfg = SimConfig::small(2);
  cfg.load = 0.2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 200;
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  std::ostringstream ck;
  session.checkpoint(ck);

  // Refining the window is allowed...
  SimConfig refined = cfg;
  refined.measure_cycles = 900;
  {
    std::istringstream is(ck.str());
    auto resumed = Session::restore(is, 0, &refined);
    EXPECT_EQ(resumed->config().measure_cycles, 900);
  }

  // ...but a physical knob difference must throw, naming the knob.
  SimConfig incompatible = cfg;
  ASSERT_TRUE(incompatible.try_apply_kv("routing", "par-mm"));
  std::istringstream is(ck.str());
  try {
    Session::restore(is, 0, &incompatible);
    FAIL() << "restore accepted a physically different config";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warm start rejected"), std::string::npos) << what;
    EXPECT_NE(what.find("routing"), std::string::npos) << what;
  }
}

// --- LRU cache mechanics ----------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsedByEntryBudget) {
  LruCache<int> cache(/*max_entries=*/2);
  cache.put("a", std::make_shared<int>(1), 1);
  cache.put("b", std::make_shared<int>(2), 1);
  ASSERT_NE(cache.get("a"), nullptr);  // refresh a; b is now LRU
  cache.put("c", std::make_shared<int>(3), 1);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(LruCache, ByteBudgetEvictsButKeepsLiveReaders) {
  LruCache<std::string> cache(/*max_entries=*/0, /*max_bytes=*/100);
  cache.put("big", std::make_shared<std::string>("x"), 80);
  const auto held = cache.get("big");
  ASSERT_NE(held, nullptr);
  cache.put("bigger", std::make_shared<std::string>("y"), 90);
  EXPECT_EQ(cache.get("big"), nullptr);  // evicted by the byte budget
  EXPECT_EQ(*held, "x");                 // but the held value survives
  EXPECT_LE(cache.stats().bytes, 100u);
}

}  // namespace
}  // namespace dragonfly
