// In-process performance guards. Each one times two sides of a fast
// path in the same process on the same host, so its ratio carries
// across machines where absolute cycles/s do not. Both sides are built
// once from the same config and seed; alternating rounds then run the
// same work on each (odd rounds run the other side first, so a drift
// in the host's speed hits both), and the median ratio must stay at or
// above a named floor.
//
// Each floor is 0.7x the lower of two medians, each over ten runs on a
// shared 4-vCPU x86-64 VM (Release, gcc): the test alone on an idle
// host ("idle"), and the test right after the rest of the suite, as
// `ctest -j` runs it ("after suite"). Its comment gives both and the
// ratio in BENCH_9, the last file of the retired microbenchmark ledger,
// recorded on a 1-vCPU container. A guard catches a change that loses
// a fast path; it claims no gain. perfbench's `spread.py --against`
// compares a change with its parent.
//
// Shard scaling has no guard: on that VM shards=4 against shards=1 at
// h=5, 50% load read 0.52x-1.61x from run to run, so no floor of 1.0
// holds there (ROADMAP item 2).
//
// Timing needs an optimized, uninstrumented build and a quiet machine:
// the guards skip without NDEBUG or under a sanitizer, and ctest runs
// this binary alone (RUN_SERIAL; labels bench-smoke and perf-ratio).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "service/engine.hpp"

namespace dragonfly {
namespace {

// active/scan step time, h=3 par-mm/uniform at 5% load, where most
// routers idle. Idle 2.60x, after suite 2.60x; BENCH_9 2.54x.
constexpr double kActiveScanLowLoadFloor = 1.82;
// active/scan step time, h=3 par-mm/uniform at 50% load (saturation).
// Idle 1.60x, after suite 1.62x; BENCH_9 1.52x.
constexpr double kActiveScanSaturationFloor = 1.12;
// uniform/allreduce step time at h=3, 50% load (a 16-rank ring
// allreduce on an otherwise idle network). Idle 52.3x, after suite
// 51.9x; BENCH_9 91.5x.
constexpr double kAllreduceStepFloor = 36.3;
// uniform/churn step time at h=3, 50% load (three jobs arriving every
// 300 cycles). Idle 8.59x, after suite 8.46x; BENCH_9 11.9x.
constexpr double kChurnStepFloor = 5.92;
// miss/hit request time for the BM_ServiceRequest* request. Idle 126x,
// after suite 154x; BENCH_9 25.5x.
constexpr double kServiceHitFloor = 88.5;
// miss/warm request time for the same request refined by 50 or 51
// cycles. Idle 4.12x, after suite 3.71x; BENCH_9 1.01x (before warm
// starts resumed at the window's end).
constexpr double kServiceWarmFloor = 2.60;

constexpr int kRounds = 21;

class PerfRatio : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "timing guards need an optimized, uninstrumented build";
#endif
  }
};

template <class Work>
double seconds(Work&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median over kRounds of slow() / fast(), each returning the seconds
/// its side took for one round.
template <class Slow, class Fast>
double median_ratio(Slow&& slow, Fast&& fast) {
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double t_slow = 0.0;
    double t_fast = 0.0;
    if (round % 2 == 0) {
      t_slow = slow();
      t_fast = fast();
    } else {
      t_fast = fast();
      t_slow = slow();
    }
    ratios.push_back(t_slow / t_fast);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2,
                   ratios.end());
  return ratios[kRounds / 2];
}

/// Prints `guard`'s median and fails the guard when it is below `floor`.
void expect_floor(const char* guard, double median, double floor) {
  std::printf("[ perf-ratio ] %s: median %.3gx, floor %.3gx\n", guard, median,
              floor);
  EXPECT_GE(median, floor) << guard;
}

/// par-mm under uniform traffic, as in BM_NetworkStepUniform.
SimConfig uniform_config(int h, double load) {
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = load;
  return cfg;
}

/// A network built from `cfg` and stepped through 500 cycles of warmup.
std::unique_ptr<Network> warmed(SimConfig cfg) {
  cfg.apply_vc_defaults();
  auto net = std::make_unique<Network>(cfg);
  for (int i = 0; i < 500; ++i) net->step();
  return net;
}

/// Median of time(slow) / time(fast), each round stepping both through
/// the next `cycles` cycles.
double step_ratio(Network& slow, Network& fast, int cycles) {
  auto side = [cycles](Network& net) {
    return [&net, cycles] {
      return seconds([&] {
        for (int i = 0; i < cycles; ++i) net.step();
      });
    };
  };
  return median_ratio(side(slow), side(fast));
}

void expect_active_beats_scan(const char* guard, double load, int cycles,
                              double floor) {
  SimConfig active = uniform_config(3, load);
  active.kernel = SimKernel::kActive;
  SimConfig scan = active;
  scan.kernel = SimKernel::kScan;
  const auto fast = warmed(active);
  const auto slow = warmed(scan);
  expect_floor(guard, step_ratio(*slow, *fast, cycles), floor);
}

TEST_F(PerfRatio, ActiveKernelBeatsScanAtLowLoad) {
  expect_active_beats_scan("active/scan h=3 5%", 0.05, 2'000,
                           kActiveScanLowLoadFloor);
}

TEST_F(PerfRatio, ActiveKernelBeatsScanAtSaturation) {
  expect_active_beats_scan("active/scan h=3 50%", 0.5, 300,
                           kActiveScanSaturationFloor);
}

/// Median of uniform/workload step time at h=3, 50% load.
void expect_workload_step_floor(const char* guard, const SimConfig& workload,
                                double floor) {
  const auto uniform = warmed(uniform_config(3, 0.5));
  const auto driven = warmed(workload);
  expect_floor(guard, step_ratio(*uniform, *driven, 600), floor);
}

TEST_F(PerfRatio, AllreduceStepIsCheaperThanUniform) {
  SimConfig allreduce = uniform_config(3, 0.5);
  allreduce.workload.mode = "collective";
  allreduce.workload.collective = "ring";
  allreduce.workload.participants = 16;
  expect_workload_step_floor("uniform/allreduce h=3 50%", allreduce,
                             kAllreduceStepFloor);
}

TEST_F(PerfRatio, ChurnStepIsCheaperThanUniform) {
  SimConfig churn = uniform_config(3, 0.5);
  churn.workload.mode = "churn";
  churn.workload.jobs = 3;
  churn.workload.arrival_cycles = 300;
  churn.workload.job_cycles = 1'500;
  churn.workload.mix = "uniform,shift";
  expect_workload_step_floor("uniform/churn h=3 50%", churn, kChurnStepFloor);
}

/// The BM_ServiceRequest* request: one point, two replicas.
std::vector<std::string> service_items(int measure_cycles) {
  return {"topology=dfly:2,4,2",
          "routing=min",
          "traffic=uniform",
          "load=0.2",
          "seeds=2",
          "warmup_cycles=200",
          "measure_cycles=" + std::to_string(measure_cycles)};
}

/// Requests per round on the cold side of the service guards.
constexpr int kColdRequests = 3;

/// Mean seconds of a request on a service with empty caches; each
/// service is built outside the timed region.
double cold_request() {
  double total = 0.0;
  for (int i = 0; i < kColdRequests; ++i) {
    SweepService cold(ServiceOptions{.workers = 1});
    total += seconds([&] { cold.execute(service_items(300)); });
  }
  return total / kColdRequests;
}

/// Median of cold_request() over the mean time of `per_round` requests
/// from `next_items()` on `service`.
template <class Items>
double miss_ratio(SweepService& service, int per_round, Items&& next_items) {
  return median_ratio(cold_request, [&] {
    return seconds([&] {
             for (int i = 0; i < per_round; ++i) service.execute(next_items());
           }) /
           per_round;
  });
}

TEST_F(PerfRatio, ServiceHitBeatsMiss) {
  SweepService service(ServiceOptions{.workers = 1});
  service.execute(service_items(300));  // prime the result cache
  expect_floor("service hit/miss",
               miss_ratio(service, 60, [] { return service_items(300); }),
               kServiceHitFloor);
  EXPECT_EQ(service.stats().cold_runs, 1);
}

TEST_F(PerfRatio, ServiceWarmStartBeatsMiss) {
  // A one-entry result cache and two alternating refined windows: every
  // request misses the result cache and resumes the 300-cycle window's
  // checkpoint, as in BM_ServiceRequestWarm.
  SweepService service(ServiceOptions{.workers = 1, .result_entries = 1});
  service.execute(service_items(300));  // prime the warm checkpoint
  bool flip = false;
  const double median = miss_ratio(service, 12, [&] {
    flip = !flip;
    return service_items(flip ? 350 : 351);
  });
  expect_floor("service warm/miss", median, kServiceWarmFloor);
  EXPECT_EQ(service.stats().cold_runs, 1);
}

}  // namespace
}  // namespace dragonfly
