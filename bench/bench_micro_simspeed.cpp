// Micro-benchmarks (google-benchmark): raw allocator and simulator speed.
// Not a paper experiment — used to keep the simulator fast enough for the
// full-scale (h=6, 5,256-node) reproduction runs.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "service/engine.hpp"

namespace {

using namespace dragonfly;

void BM_SeparableAllocator(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  SeparableAllocator alloc(ports, ports, {});
  AllocatorScratch scratch(ports, ports, 3 * ports);
  Rng rng(7);
  std::vector<AllocRequest> requests;
  for (auto _ : state) {
    state.PauseTiming();
    requests.clear();
    for (int in = 0; in < ports; ++in) {
      for (VcId vc = 0; vc < 3; ++vc) {
        AllocRequest r;
        r.in_port = in;
        r.in_vc = vc;
        r.out_port = static_cast<PortId>(
            rng.below(static_cast<std::uint64_t>(ports)));
        r.is_injection = in < ports / 3;
        requests.push_back(r);
      }
    }
    state.ResumeTiming();
    alloc.allocate(requests, scratch);
    benchmark::DoNotOptimize(requests.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_SeparableAllocator)->Arg(11)->Arg(23);

/// Steps one warmed-up uniform-traffic network. Args: (radix h, offered
/// load in %, kernel: 0 = active, 1 = scan). The low-load points (5%)
/// are where the active-set kernel shines — most routers/ports idle —
/// and the 50% points sit at/near saturation. The scan rows keep the
/// dense reference kernel honest; test_perf_ratio guards the same
/// active/scan ratio in-process at h=3. Timed in wall-clock like the
/// sharded rows, so BM_NetworkStepUniform/4/50 and
/// BM_NetworkStepUniformSharded/4/50/1 (the same code path) compare
/// directly.
void NetworkStepUniform(benchmark::State& state, SimKernel kernel) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = static_cast<double>(state.range(1)) / 100.0;
  cfg.kernel = kernel;
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();  // warm the pipeline
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
  state.counters["nodes"] = net.num_nodes();
}

void BM_NetworkStepUniform(benchmark::State& state) {
  NetworkStepUniform(state, SimKernel::kActive);
}
BENCHMARK(BM_NetworkStepUniform)
    ->Args({2, 5})
    ->Args({3, 5})
    ->Args({4, 5})
    ->Args({2, 50})
    ->Args({3, 50})
    ->Args({4, 50})
    ->UseRealTime();

void BM_NetworkStepUniformScan(benchmark::State& state) {
  NetworkStepUniform(state, SimKernel::kScan);
}
BENCHMARK(BM_NetworkStepUniformScan)
    ->Args({3, 5})
    ->Args({3, 50})
    ->UseRealTime();

/// Sharded stepping. Args: (radix h, offered load in %, sim.shards).
/// Bit-identical to the serial rows — only wall-clock may move. The
/// saturated rows are the headline scaling measurement (no test guards
/// it: it varies too widely on shared hosts); shards=1 goes
/// through the same kernel with the mailbox path disabled, isolating the
/// sharding overhead.
void BM_NetworkStepUniformSharded(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = static_cast<double>(state.range(1)) / 100.0;
  cfg.kernel = SimKernel::kActive;
  cfg.shards = static_cast<int>(state.range(2));
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
  state.counters["nodes"] = net.num_nodes();
  state.counters["shards"] = static_cast<double>(net.num_shards());
}
// UseRealTime: wall-clock is the honest metric for a multi-threaded
// step (the pool's CPU time is spread across workers).
BENCHMARK(BM_NetworkStepUniformSharded)
    ->Args({4, 50, 1})
    ->Args({4, 50, 2})
    ->Args({4, 50, 4})
    ->Args({4, 50, 8})
    ->Args({5, 50, 1})
    ->Args({5, 50, 4})
    ->UseRealTime();

void BM_NetworkStepAdvc(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  cfg.load = 0.4;
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
}
BENCHMARK(BM_NetworkStepAdvc)->Arg(3);

/// PiggyBack's per-cycle congestion broadcast (phase 1, refresh) on top
/// of a step. Arg: radix h. The near-idle case (uniform at 0.1%) is the
/// refresh floor: few links change per cycle, so the change-driven
/// refresh has almost nothing to recompute. The ADV case at 30% is a
/// loaded step with the saturation bits in play.
void BM_NetworkStepPiggyback(benchmark::State& state, const char* traffic,
                             double load) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "pb-rrg";
  cfg.traffic_name = traffic;
  cfg.load = load;
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
}
BENCHMARK_CAPTURE(BM_NetworkStepPiggyback, idle, "uniform", 0.001)->Arg(3);
BENCHMARK_CAPTURE(BM_NetworkStepPiggyback, adv30, "adv", 0.3)->Arg(3);

/// Workload-driver cost, collective mode: a 16-rank ring allreduce
/// dependency-stepped by the serial driver on top of the active
/// kernel; the other nodes idle. Arg: radix h. test_perf_ratio guards
/// the uniform/allreduce step-time ratio at h=3, so a regression in the
/// driver's on_cycle/on_delivered path (run every cycle, serial) shows
/// up machine-independently.
void BM_NetworkStepAllreduce(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = 0.5;
  cfg.workload.mode = "collective";
  cfg.workload.collective = "ring";
  cfg.workload.participants = 16;
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
  state.counters["nodes"] = net.num_nodes();
}
BENCHMARK(BM_NetworkStepAllreduce)->Arg(2)->Arg(3);

/// Workload-driver cost, churn mode: jobs arrive, get placed on router
/// blocks, run per-job rank-space mixes and depart — exercising the
/// placement, pattern-rebind, node-gate flip and per-job metrics
/// attribution paths every few hundred cycles while every in-job node
/// injects at the offered load. Comparable to BM_NetworkStepUniform at
/// the same (h, 50%) point; test_perf_ratio guards the ratio at h=3.
void BM_NetworkStepChurn(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = 0.5;
  cfg.workload.mode = "churn";
  cfg.workload.jobs = 3;
  cfg.workload.arrival_cycles = 300;
  cfg.workload.job_cycles = 1'500;
  cfg.workload.mix = "uniform,shift";
  cfg.apply_vc_defaults();
  Network net(cfg);
  for (int i = 0; i < 500; ++i) net.step();
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_routers());
  state.counters["nodes"] = net.num_nodes();
}
BENCHMARK(BM_NetworkStepChurn)->Arg(2)->Arg(3);

void BM_SessionStep(benchmark::State& state) {
  // Phase-machine overhead over raw Network::step — must stay noise.
  const int h = static_cast<int>(state.range(0));
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "uniform";
  cfg.load = 0.5;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 1 << 28;  // never ends inside the benchmark
  cfg.apply_vc_defaults();
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  for (auto _ : state) session.step(1);
  state.SetItemsProcessed(state.iterations() *
                          session.network().num_routers());
}
BENCHMARK(BM_SessionStep)->Arg(2)->Arg(3);

void BM_SessionCheckpoint(benchmark::State& state) {
  // Serialization cost of a warmed-up session (queues populated).
  SimConfig cfg = SimConfig::small(static_cast<int>(state.range(0)));
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  cfg.load = 0.4;
  cfg.apply_vc_defaults();
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    session.checkpoint(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(os);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SessionCheckpoint)->Arg(2)->Arg(3);

/// The session the build/restore benches use: Table II's ADVc point.
SimConfig session_bench_config(int h) {
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  cfg.load = 0.3;
  cfg.apply_vc_defaults();
  return cfg;
}

/// Session construction (and teardown). Args: (radix h, topology: 0 =
/// a private make_topology() per session, 1 = one shared instance, as
/// Session(cfg) takes from the process cache). The shared rows time the
/// network build alone; the gap to the private rows is the topology.
void BM_SessionBuild(benchmark::State& state) {
  const SimConfig cfg = session_bench_config(static_cast<int>(state.range(0)));
  const bool shared = state.range(1) != 0;
  const std::shared_ptr<const Topology> topo =
      shared ? make_topology(cfg) : nullptr;
  for (auto _ : state) {
    Session session(cfg, shared ? topo : make_topology(cfg));
    benchmark::DoNotOptimize(session.now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionBuild)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMicrosecond);

/// Warm-start restore: rebuild a session from a checkpoint taken at the
/// start of Measure (queues populated), over the process-wide topology —
/// the service's warm path minus the cycles it then simulates.
void BM_SessionRestore(benchmark::State& state) {
  const SimConfig cfg = session_bench_config(static_cast<int>(state.range(0)));
  Session session(cfg);
  session.advance_to(SessionPhase::kMeasure);
  const std::string bytes = session.checkpoint();
  for (auto _ : state) {
    std::unique_ptr<Session> restored = Session::restore(bytes);
    benchmark::DoNotOptimize(restored->now());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SessionRestore)->Arg(2)->Unit(benchmark::kMicrosecond);

// --- sweep-service request paths --------------------------------------------

/// The small request every service bench uses: one point, two replicas.
std::vector<std::string> service_items(int measure_cycles) {
  return {"topology=dfly:2,4,2",
          "routing=min",
          "traffic=uniform",
          "load=0.2",
          "seeds=2",
          "warmup_cycles=200",
          "measure_cycles=" + std::to_string(measure_cycles)};
}

/// Cold path: every iteration is a fresh service (empty caches), so the
/// request pays topology construction + warmup + measurement.
void BM_ServiceRequestMiss(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SweepService service(ServiceOptions{.workers = 1});
    state.ResumeTiming();
    const RequestReport rep = service.execute(service_items(300));
    benchmark::DoNotOptimize(rep.points[0].result.accepted_load);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceRequestMiss)->Unit(benchmark::kMicrosecond);

/// Served-from-cache path: the steady state of a re-requested sweep.
/// The gap to BM_ServiceRequestMiss is the cache's whole value.
void BM_ServiceRequestHit(benchmark::State& state) {
  SweepService service(ServiceOptions{.workers = 1});
  service.execute(service_items(300));  // prime
  for (auto _ : state) {
    const RequestReport rep = service.execute(service_items(300));
    benchmark::DoNotOptimize(rep.points[0].result.accepted_load);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceRequestHit)->Unit(benchmark::kMicrosecond);

/// Warm-start path: alternate two refined windows through a one-entry
/// result cache, so every iteration misses the result cache but
/// resumes the 300-cycle window's checkpoint, taken one cycle before it
/// closed, and simulates only what the longer window adds (restore +
/// 51 or 52 cycles per replica; service_mix's refine adds 50).
void BM_ServiceRequestWarm(benchmark::State& state) {
  SweepService service(ServiceOptions{.workers = 1, .result_entries = 1});
  service.execute(service_items(300));  // prime the warm checkpoint
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    const RequestReport rep = service.execute(service_items(flip ? 350 : 351));
    benchmark::DoNotOptimize(rep.points[0].result.accepted_load);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceRequestWarm)->Unit(benchmark::kMicrosecond);

void BM_MinimalOutputOracle(benchmark::State& state) {
  const DragonflyTopology topo = DragonflyTopology::balanced_palmtree(6);
  Rng rng(3);
  for (auto _ : state) {
    const auto at = static_cast<RouterId>(
        rng.below(static_cast<std::uint64_t>(topo.num_routers())));
    const auto dst = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(topo.num_nodes())));
    benchmark::DoNotOptimize(topo.minimal_output(at, dst));
  }
}
BENCHMARK(BM_MinimalOutputOracle);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(rng.below(73));
}
BENCHMARK(BM_RngBelow);

}  // namespace

BENCHMARK_MAIN();
