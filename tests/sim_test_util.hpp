// Shared helpers for simulation-level tests: small configurations and
// common invariant checks. Kept header-only for test-target simplicity.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/api.hpp"

namespace dragonfly::testutil {

/// Small, fast configuration: h=2 (72 nodes), short windows.
inline SimConfig quick(const std::string& routing, const std::string& traffic,
                       double load, int h = 2) {
  SimConfig cfg = SimConfig::small(h);
  cfg.routing_name = routing;
  cfg.traffic_name = traffic;
  cfg.load = load;
  cfg.warmup_cycles = 1'500;
  cfg.measure_cycles = 3'000;
  cfg.apply_vc_defaults();
  return cfg;
}

/// Packet conservation: everything generated is either delivered or still
/// alive in the network (no loss, no duplication).
inline void expect_conservation(Network& net) {
  EXPECT_EQ(net.generated_packets_total(),
            net.collector().delivered_packets_total() +
                static_cast<std::int64_t>(net.packets().live()));
}

/// Field-by-field *exact* comparison (doubles compared bitwise via ==):
/// the determinism guarantees are bit-identity, not tolerance.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_load, b.accepted_load);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.components.base, b.components.base);
  EXPECT_EQ(a.components.misroute, b.components.misroute);
  EXPECT_EQ(a.components.local_queue, b.components.local_queue);
  EXPECT_EQ(a.components.global_queue, b.components.global_queue);
  EXPECT_EQ(a.components.injection_queue, b.components.injection_queue);
  EXPECT_EQ(a.avg_local_hops, b.avg_local_hops);
  EXPECT_EQ(a.avg_global_hops, b.avg_global_hops);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.injections_per_router, b.injections_per_router);
  EXPECT_EQ(a.fairness.min_injections, b.fairness.min_injections);
  EXPECT_EQ(a.fairness.max_injections, b.fairness.max_injections);
  EXPECT_EQ(a.fairness.cov, b.fairness.cov);
  EXPECT_EQ(a.fairness.jain, b.fairness.jain);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.converged, b.converged);
}

/// Run a full simulation and also check conservation on the way out.
inline SimResult run_checked(const SimConfig& cfg) {
  Session session(cfg);
  const SimResult result = session.run();
  expect_conservation(session.network());
  return result;
}

}  // namespace dragonfly::testutil
