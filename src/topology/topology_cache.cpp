#include "topology/topology_cache.hpp"

#include "sim/config.hpp"

namespace dragonfly {

std::string topology_cache_key(const SimConfig& cfg) {
  // The canonical knob forms, so spelling variants ("topology=dfly:2,4,2"
  // vs "p=2,a=4,h=2") share one entry; only the topology-defining keys
  // are formatted, in canonical_kv()'s (sorted) order.
  static constexpr const char* kKeys[] = {"a", "arrangement", "groups",
                                          "h", "p", "topology"};
  std::string key;
  for (const char* k : kKeys) {
    key += k;
    key += '=';
    key += cfg.canonical_value(k);
    key += ';';
  }
  return key;
}

bool TopologyCache::shares(const SimConfig& cfg) {
  const std::string family = topology_family(cfg);
  return family == "dfly" || family == "flatbfly";
}

std::shared_ptr<const Topology> TopologyCache::acquire(const SimConfig& cfg) {
  if (!shares(cfg)) return make_topology(cfg);
  const std::string key = topology_cache_key(cfg);
  std::promise<std::shared_ptr<const Topology>> build;
  std::shared_future<std::shared_ptr<const Topology>> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = map_.try_emplace(key);
    if (!inserted) {
      ++hits_;
      entry = it->second;
    } else {
      ++misses_;
      owner = true;
      entry = it->second = build.get_future().share();
    }
  }
  if (!owner) return entry.get();  // waits out a concurrent first build
  // Build outside the lock: construction is the expensive part, and
  // other shapes must not queue behind it.
  try {
    build.set_value(make_topology(cfg));
  } catch (...) {
    build.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(key);  // the next acquire retries
  }
  return entry.get();
}

TopologyCache::Stats TopologyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, map_.size()};
}

void TopologyCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

TopologyCache& TopologyCache::process_cache() {
  static TopologyCache* cache = new TopologyCache();
  return *cache;
}

}  // namespace dragonfly
