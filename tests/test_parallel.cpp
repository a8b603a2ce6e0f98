#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dragonfly {
namespace {

TEST(SerialRunner, RunsAllIndicesAscendingInline) {
  SerialRunner runner;
  EXPECT_EQ(runner.concurrency(), 1);
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  runner.run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SerialRunner, ZeroJobsIsANoOp) {
  SerialRunner runner;
  runner.run(0, [](std::size_t) { FAIL() << "body invoked for n=0"; });
}

TEST(PoolRunner, ResolveMapsNonPositiveToHardwareConcurrency) {
  EXPECT_GE(PoolRunner::resolve(0), 1);
  EXPECT_GE(PoolRunner::resolve(-3), 1);
  EXPECT_EQ(PoolRunner::resolve(5), 5);
}

TEST(PoolRunner, ZeroThreadsSpawnsHardwareConcurrencyWorkers) {
  PoolRunner pool(0);
  EXPECT_EQ(pool.concurrency(), PoolRunner::resolve(0));
}

TEST(PoolRunner, SubmitRunsTasksToCompletion) {
  PoolRunner pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(PoolRunner, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    PoolRunner pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // join must not drop queued tasks
  EXPECT_EQ(counter.load(), 50);
}

TEST(PoolRunner, SubmitPropagatesExceptionsThroughFutures) {
  PoolRunner pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

// run must visit every index exactly once for any worker count.
TEST(PoolRunner, RunCoversAllIndicesOnce) {
  for (const int workers : {1, 2, 7}) {
    PoolRunner pool(workers);
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v = 0;
    pool.run(visits.size(), [&visits](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(PoolRunner, RunWritesSlotsInOrderIndependentWay) {
  // Each index writes its own slot; result must match the serial outcome
  // regardless of worker count (the determinism contract the experiment
  // runner relies on).
  std::vector<std::int64_t> serial(100);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    serial[i] = static_cast<std::int64_t>(i * i + 1);
  }
  for (const int workers : {1, 4, 16}) {
    PoolRunner pool(workers);
    std::vector<std::int64_t> out(serial.size(), 0);
    pool.run(out.size(), [&out](std::size_t i) {
      out[i] = static_cast<std::int64_t>(i * i + 1);
    });
    EXPECT_EQ(out, serial);
  }
}

TEST(PoolRunner, RunRethrowsLowestFailingIndex) {
  PoolRunner pool(4);
  try {
    pool.run(64, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("eleven");
      if (i == 42) throw std::logic_error("forty-two");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "eleven");
  }
}

// After a failure, indices below it still run (the lowest failing index
// must be exact) while higher indices are cancelled.
TEST(PoolRunner, RunFailsFastButKeepsLowerIndices) {
  PoolRunner pool(1);  // deterministic in-order drain
  std::vector<int> ran(40, 0);
  EXPECT_THROW(pool.run(40,
                        [&ran](std::size_t i) {
                          if (i == 7) throw std::runtime_error("x");
                          ran[i] = 1;
                        }),
               std::runtime_error);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(ran[i], 1) << i;
  // With one worker draining in order, everything above the failure is
  // cancelled.
  for (std::size_t i = 8; i < 40; ++i) EXPECT_EQ(ran[i], 0) << i;
}

TEST(PoolRunner, RunZeroJobsIsANoOp) {
  PoolRunner pool(2);
  EXPECT_NO_THROW(pool.run(0, [](std::size_t) {
    throw std::runtime_error("never invoked");
  }));
}

}  // namespace
}  // namespace dragonfly
