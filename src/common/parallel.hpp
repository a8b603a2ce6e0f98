// ParallelRunner: the execution seam every parallel subsystem runs on
// (in the spirit of libjxl's injectable JxlParallelRunner).
//
// One abstraction serves both parallelism levels:
//   * job-level  — run_sweep/run_configs fan independent (config, seed)
//     sessions out over a runner;
//   * cycle-level — a sharded Network::step() runs its per-shard phases
//     on a private PoolRunner inside every cycle (see sim/network.hpp).
//
// Determinism contract: a runner schedules *execution*, never *results*.
// Callers hand out index-addressed work where each index writes its own
// slot, so the outcome is bit-identical for any concurrency —
// SerialRunner, PoolRunner(N) and a user subclass (a foreign job system,
// a timing wrapper) all produce the same bytes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dragonfly {

/// Abstract execution seam. run() must execute body(i) exactly once for
/// every i in [0, n) and return only when all invocations finished. If
/// any invocation throws, the exception of the *lowest failing index* is
/// rethrown (the deterministic choice: the same error surfaces
/// regardless of execution order). Implementations may run indices in
/// any order and on any threads, including the calling thread.
class ParallelRunner {
 public:
  virtual ~ParallelRunner() = default;

  /// Upper bound on concurrently executing bodies (1 = serial). Purely
  /// informational — callers may use it to size batches.
  virtual int concurrency() const = 0;

  virtual void run(std::size_t n,
                   const std::function<void(std::size_t)>& body) = 0;
};

/// Runs every index inline on the calling thread, in ascending order.
/// The zero-dependency reference implementation.
class SerialRunner final : public ParallelRunner {
 public:
  int concurrency() const override { return 1; }
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override;
};

/// The work-sharing thread pool: a FIFO task queue drained by a fixed
/// set of workers, with exception propagation through futures. run_spec
/// and bench_repro pass one to run_sweep/run_configs, a sharded network
/// steps its shards on a private one, and SweepService queues its
/// points on one through submit().
class PoolRunner final : public ParallelRunner {
 public:
  /// Spawns `resolve(threads)` workers.
  explicit PoolRunner(int threads = 0);
  /// Drains the remaining queue, then joins all workers.
  ~PoolRunner() override;

  PoolRunner(const PoolRunner&) = delete;
  PoolRunner& operator=(const PoolRunner&) = delete;

  /// threads <= 0 selects std::thread::hardware_concurrency(), minimum 1.
  static int resolve(int threads);

  int concurrency() const override {
    return static_cast<int>(workers_.size());
  }

  /// Shares the indices across the workers and blocks until done.
  /// Indices above an observed failure are cancelled rather than run,
  /// since their outcome cannot change the rethrown error.
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override;

  /// Enqueue one task. The returned future carries the task's exception,
  /// if it throws.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::mutex mutex_;  ///< guards queue_ and stopping_
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace dragonfly
