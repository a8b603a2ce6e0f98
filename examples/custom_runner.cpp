// Custom execution backends for the experiment layer, via the
// ParallelRunner interface (common/parallel.hpp).
//
//   ./examples/custom_runner
//
// Three runners drive the same sweep:
//   1. SerialRunner      — everything inline on the calling thread (the
//                          debugger-friendly backend).
//   2. PoolRunner        — the stock thread-pool backend.
//   3. A ParallelRunner subclass — jobs handed to *your* scheduler; here
//                          a counting wrapper around a private pool, the
//                          shape an embedding application (job system,
//                          task graph, test harness) would use.
// The three result sets are asserted identical: runners only decide
// where jobs execute, never what they compute. (A sharded session,
// sim.shards > 1, steps its shards on a pool of its own.)
#include <cassert>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/api.hpp"

int main() {
  using namespace dragonfly;

  SimConfig base = SimConfig::small(2);
  base.traffic_name = "advc";
  base.routing_name = "par-mm";
  base.apply_vc_defaults();
  const std::vector<double> loads = {0.2, 0.4, 0.6};
  const int seeds = 2;

  // 1. Serial: no threads at all.
  SerialRunner serial;
  const std::vector<AveragedResult> serial_results =
      run_sweep(base, loads, seeds, serial);

  // 2. Thread pool: the stock parallel backend, shared across calls.
  PoolRunner pool(4);
  const std::vector<AveragedResult> pool_results =
      run_sweep(base, loads, seeds, pool);

  // 3. External scheduler: subclass ParallelRunner. The contract is
  // simple — invoke body(i) for every i in [0, n), return after all
  // complete, rethrow the lowest-index exception. Here: count the jobs,
  // then delegate to a private pool.
  class CountingRunner final : public ParallelRunner {
   public:
    int concurrency() const override { return backend_.concurrency(); }
    void run(std::size_t n,
             const std::function<void(std::size_t)>& body) override {
      dispatched += static_cast<int>(n);
      backend_.run(n, body);
    }
    int dispatched = 0;

   private:
    PoolRunner backend_{2};
  } scheduler;
  const std::vector<AveragedResult> custom_results =
      run_sweep(base, loads, seeds, scheduler);

  std::cout << "jobs dispatched through the custom scheduler: "
            << scheduler.dispatched << "\n\n";

  Table table({"load", "accepted(serial)", "accepted(pool)",
               "accepted(custom)", "latency(serial)"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    table.add_row({loads[i], serial_results[i].accepted_load,
                   pool_results[i].accepted_load,
                   custom_results[i].accepted_load,
                   serial_results[i].avg_latency});
    // Bit-identical across runners: same seeds, same RNG streams, same
    // arithmetic — the runner only picks the executing thread.
    assert(serial_results[i].accepted_load == pool_results[i].accepted_load);
    assert(serial_results[i].accepted_load == custom_results[i].accepted_load);
    assert(serial_results[i].avg_latency == pool_results[i].avg_latency);
    assert(serial_results[i].avg_latency == custom_results[i].avg_latency);
  }
  table.print(std::cout);
  return 0;
}
