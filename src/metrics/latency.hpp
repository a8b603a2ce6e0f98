// Latency accounting (paper Sec. IV-B and Figure 3).
//
// Delivered latency decomposes exactly into five components:
//   base       — structural delay of the *minimal* path (pipelines, link
//                traversals, final serialization);
//   misrouting — extra structural delay of the path actually taken;
//   local/global queue congestion — waiting cycles in local/global transit
//                queues (input grant waits + output serialization backlog);
//   injection  — waiting from generation until the first grant at the
//                source router.
// The identity  latency == base + misrouting + waits  holds cycle-exact
// by construction and is asserted in tests.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"
#include "router/packet.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

/// Structural latency of the minimal path between two nodes: one router
/// pipeline per traversed router, one link latency per traversed link,
/// plus the final packet serialization at the ejection port.
Cycle base_latency(const Topology& topo, const SimConfig& cfg,
                   NodeId src, NodeId dst);

/// Mean values of the five components (cycles), as plotted in Figure 3.
struct LatencyComponents {
  double base = 0.0;
  double misroute = 0.0;
  double local_queue = 0.0;
  double global_queue = 0.0;
  double injection_queue = 0.0;

  double total() const {
    return base + misroute + local_queue + global_queue + injection_queue;
  }
};

/// Streaming accumulator over delivered packets.
class LatencyAccumulator {
 public:
  LatencyAccumulator();

  /// Clear all samples while keeping the histogram storage, so starting a
  /// measurement window reallocates nothing.
  void reset();

  /// `delivered` is the cycle the packet tail reached the destination
  /// node; `base` from base_latency().
  void add(const Packet& pkt, Cycle delivered, Cycle base);

  std::size_t count() const { return total_.count(); }
  double mean_latency() const { return total_.mean(); }
  double max_latency() const { return total_.max(); }
  /// Latency quantile from a fixed-width histogram (bin width 8 cycles up
  /// to 16k, clamped above; adequate for p50/p99 reporting).
  double latency_quantile(double q) const { return histogram_.quantile(q); }
  LatencyComponents components() const;
  double mean_local_hops() const { return local_hops_.mean(); }
  double mean_global_hops() const { return global_hops_.mean(); }

  void merge(const LatencyAccumulator& other);

  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  Histogram histogram_;
  RunningStats total_;
  RunningStats base_;
  RunningStats misroute_;
  RunningStats local_q_;
  RunningStats global_q_;
  RunningStats injection_q_;
  RunningStats local_hops_;
  RunningStats global_hops_;
};

}  // namespace dragonfly
