// Heap-allocation budgets of session construction and of the first
// cycles of a run. This binary replaces the global operator new with a
// counting one, so it is a test target of its own: every input-VC FIFO,
// output queue, source queue and allocator scratch buffer has a fixed
// capacity carved from Network-owned arrays at build time, and these
// budgets catch a change that brings per-buffer allocations back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "common/ring.hpp"
#include "core/api.hpp"
#include "sim_test_util.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dragonfly {
namespace {

/// Allocations made while `fn` runs.
template <class Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(AllocBudget, SessionBuildAtH4) {
  // 264 routers: a few allocations each (the Router object, its port
  // tables, its VcFifo array, allocator pointers and scratch, request
  // lists), not one per port and VC.
  const SimConfig cfg = testutil::quick("par-mm", "advc", 0.3, /*h=*/4);
  const std::shared_ptr<const Topology> topo = make_topology(cfg);
  std::unique_ptr<Session> session;
  const std::int64_t n = allocations_during(
      [&] { session = std::make_unique<Session>(cfg, topo); });
  EXPECT_LE(n, 2'700) << "Session(cfg, topo) at h=4";
  RecordProperty("allocations", static_cast<int>(n));
}

TEST(AllocBudget, First700CyclesAtH2) {
  // What remains is the event calendars' buckets and the packet arena's
  // blocks; rings and allocator scratch never grow.
  const SimConfig cfg = testutil::quick("par-mm", "advc", 0.3, /*h=*/2);
  Session session(cfg, make_topology(cfg));
  const std::int64_t n = allocations_during([&] { session.step(700); });
  EXPECT_LE(n, 900) << "first 700 cycles at h=2";
  RecordProperty("allocations", static_cast<int>(n));
}

TEST(AllocBudget, RingHasNoGrowthPath) {
  PacketRef storage[4];
  Ring<PacketRef> ring(storage, 3);
  EXPECT_EQ(Ring<PacketRef>::slots(3), 4u);
  const std::int64_t n = allocations_during([&] {
    for (PacketRef ref = 0; ref < 3; ++ref) ring.push_back(ref);
  });
  EXPECT_EQ(n, 0);
  EXPECT_THROW(ring.push_back(3), std::logic_error);
  EXPECT_EQ(ring.size(), 3u);
  ring.pop_front();
  ring.push_back(3);  // wraps into the freed slot
  EXPECT_EQ(ring.front(), 1);
  EXPECT_EQ(ring[2], 3);
}

}  // namespace
}  // namespace dragonfly
