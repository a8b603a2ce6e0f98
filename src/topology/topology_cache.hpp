// Process-wide topology sharing: constructed Topology objects (wiring
// tables, per-pair minimal oracles, misroute candidate sets) are
// immutable after finalize() and safe for concurrent read-only use —
// the sharded kernel already reads one from many threads. Construction
// is O(links²) on big shapes, so a long-running process serving many
// concurrent sessions over a handful of shapes (the sweep service)
// shares them through this cache instead of rebuilding per session.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "topology/topology.hpp"

namespace dragonfly {

/// Canonical identity of the topology a config selects: family, shape
/// and (for dragonflies) the global-link arrangement — exactly the
/// inputs make_topology() consumes. Two configs with equal keys build
/// byte-identical topologies.
std::string topology_cache_key(const SimConfig& cfg);

/// Thread-safe shape-keyed cache of shared immutable topologies.
/// Entries are held strongly until clear(); the population is bounded
/// by the number of distinct shapes a process touches, which is small
/// compared to per-shape construction cost.
class TopologyCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::size_t live = 0;
  };

  /// The shared topology for cfg's shape, building it on first use.
  /// Concurrent first acquires of one shape build it once: the others
  /// wait for that build (and count as hits).
  std::shared_ptr<const Topology> acquire(const SimConfig& cfg);

  Stats stats() const;

  /// Drop every cached topology (sessions holding shared_ptrs keep
  /// theirs alive; subsequent acquires rebuild).
  void clear();

  /// The process-wide instance every Network/Session may share.
  static TopologyCache& process_cache();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const Topology>>>
      map_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace dragonfly
