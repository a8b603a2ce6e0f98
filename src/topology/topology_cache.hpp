// Process-wide topology sharing: constructed Topology objects (wiring
// tables, per-pair minimal oracles, misroute candidate sets) are
// immutable after finalize() and safe for concurrent read-only use —
// the sharded kernel already reads one from many threads. Construction
// is O(links²) on big shapes, and a sweep builds many sessions over a
// handful of shapes, so every Network/Session built without an explicit
// topology takes its shape from process_cache() instead of rebuilding
// it; the sweep service keeps a cache of its own.
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
/// inputs the built-in families' factories consume, so two built-in
/// configs with equal keys build byte-identical topologies.
std::string topology_cache_key(const SimConfig& cfg);

/// Thread-safe shape-keyed cache of shared immutable topologies.
/// Entries are held strongly until clear() (process_cache()'s for the
/// whole process); the population is bounded by the number of distinct
/// shapes a process touches, which is small compared to per-shape
/// construction cost.
class TopologyCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::size_t live = 0;
  };

  /// True for the built-in families ("dfly", "flatbfly"), whose
  /// factories read only the knobs in topology_cache_key. A
  /// user-registered family's factory receives the whole SimConfig and
  /// may read any knob (a seed, a load), so its topologies are never
  /// shared.
  static bool shares(const SimConfig& cfg);

  /// The shared topology for cfg's shape, building it on first use.
  /// Concurrent first acquires of one shape build it once: the others
  /// wait for that build (and count as hits). When shares(cfg) is false
  /// the topology is built privately on every call, neither cached nor
  /// counted.
  std::shared_ptr<const Topology> acquire(const SimConfig& cfg);

  Stats stats() const;

  /// Drop every cached topology (sessions holding shared_ptrs keep
  /// theirs alive; subsequent acquires rebuild).
  void clear();

  /// The process-wide instance Network/Session acquire from when no
  /// topology is passed in. Its entries live for the whole process.
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
