#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>

namespace dragonfly {

void SerialRunner::run(std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  // Ascending order: the lowest failing index is simply the first one.
  for (std::size_t i = 0; i < n; ++i) body(i);
}

int PoolRunner::resolve(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

PoolRunner::PoolRunner(int threads) {
  const int n = resolve(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PoolRunner::~PoolRunner() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void PoolRunner::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

std::future<void> PoolRunner::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> result = wrapped.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return result;
}

void PoolRunner::run(std::size_t n,
                     const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> lowest_error{n};
  std::vector<std::exception_ptr> errors(n);
  auto drain = [&next, &lowest_error, &errors, &body, n] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Fail fast: once some index has failed, indices above it are
      // skipped (their outcome could not change the rethrown error);
      // lower indices still run, so the lowest failure stays exact.
      if (i > lowest_error.load(std::memory_order_acquire)) continue;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
        std::size_t cur = lowest_error.load(std::memory_order_relaxed);
        while (i < cur && !lowest_error.compare_exchange_weak(
                              cur, i, std::memory_order_release)) {
        }
      }
    }
  };
  const std::size_t sharers =
      std::min(static_cast<std::size_t>(concurrency()), n);
  std::vector<std::future<void>> done;
  done.reserve(sharers);
  for (std::size_t t = 0; t < sharers; ++t) done.push_back(submit(drain));
  for (auto& f : done) f.get();
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace dragonfly
