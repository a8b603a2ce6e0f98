// ParallelRunner: the pluggable execution seam every parallel subsystem
// runs on (in the spirit of libjxl's injectable JxlParallelRunner).
//
// One abstraction serves both parallelism levels:
//   * job-level  — run_sweep/run_configs fan independent (config, seed)
//     sessions out over a runner;
//   * cycle-level — a sharded Network::step() runs its per-shard phases
//     through a runner inside every cycle (see sim/network.hpp).
//
// Determinism contract (same as ThreadPool's): a runner schedules
// *execution*, never *results*. Callers hand out index-addressed work
// where each index writes its own slot, so the outcome is bit-identical
// for any concurrency — SerialRunner, PoolRunner(N) and a caller-
// injected CallbackRunner all produce the same bytes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace dragonfly {

class ThreadPool;

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
/// The zero-dependency reference implementation; also useful to force a
/// sharded network through the mailbox machinery deterministically.
class SerialRunner final : public ParallelRunner {
 public:
  int concurrency() const override { return 1; }
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override;
};

/// Owns a ThreadPool and shares indices across its workers — the default
/// threaded implementation: run_spec and the bench binaries pass one to
/// run_sweep/run_configs, and sharded sessions (sim.shards > 1) step on
/// one.
class PoolRunner final : public ParallelRunner {
 public:
  /// threads <= 0 selects the hardware concurrency (ThreadPool::resolve).
  explicit PoolRunner(int threads = 0);
  ~PoolRunner() override;

  int concurrency() const override;
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// Caller-injected runner: wraps an arbitrary "execute these n indexed
/// tasks" callback — a foreign thread pool, a fiber scheduler, a test
/// harness — without that code depending on this header's siblings. The
/// callback must honour the ParallelRunner contract (every index exactly
/// once, return after completion); exception propagation is whatever the
/// callback does (SerialRunner/PoolRunner semantics recommended). See
/// examples/custom_runner.cpp.
class CallbackRunner final : public ParallelRunner {
 public:
  using RunFn =
      std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

  CallbackRunner(RunFn fn, int concurrency)
      : fn_(std::move(fn)), concurrency_(concurrency < 1 ? 1 : concurrency) {}

  int concurrency() const override { return concurrency_; }
  void run(std::size_t n,
           const std::function<void(std::size_t)>& body) override {
    if (n == 0) return;
    fn_(n, body);
  }

 private:
  RunFn fn_;
  int concurrency_;
};

}  // namespace dragonfly
