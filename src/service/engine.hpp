// Sweep service engine: the socket-free core of the experiment server.
//
// A SweepService accepts requests in the ExperimentSpec grammar
// ("key=value" items), expands them into per-load points, and executes
// every point through the shared ThreadPool with three layers of reuse:
//
//   * result cache  — points are keyed by SimConfig::canonical_hash()
//     (+ replica count); a re-request of an already-computed point is
//     answered from the LRU without simulating a cycle.
//   * warm starts   — a cold run of a fixed, unscripted window
//     (stop.mode=fixed, no phase script) checkpoints one cycle before
//     its window closes and caches the bytes under its refinement
//     family (SimConfig::warm_hash) together with the window length. A
//     later point of that family with a fixed, unscripted window at
//     least as long restores the checkpoint and simulates only the
//     cycles its window adds (Session::restore re-validates
//     compatibility and moves the deadline); a kernel/shards/stream
//     refinement of the same window simulates one cycle. Every other
//     refinement — a stop-rule change, a shorter window — runs cold,
//     and a shorter fixed window's cold run replaces the cached one.
//     A warm STREAM emits samples only for the cycles it simulates.
//   * shared topologies — concurrent sessions on one built-in shape
//     share a TopologyCache entry instead of rebuilding wiring/oracle
//     tables (a user-registered family builds per session).
//
// Identical points requested concurrently are coalesced: the second
// request subscribes to the first's in-flight run and both receive the
// single result. Stream subscribers (RunObserver::on_sample) attach to
// in-flight points and receive per-interval samples mid-run.
//
// The engine has no I/O; SweepServer (server.hpp) speaks the wire
// protocol on top, and tests drive execute() directly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "service/cache.hpp"
#include "topology/topology_cache.hpp"

namespace dragonfly {

struct ServiceOptions {
  int workers = 0;  ///< ThreadPool size; <= 0 selects hardware concurrency
  std::size_t result_entries = 4096;       ///< result LRU budget (count)
  std::size_t warm_entries = 64;           ///< warm-checkpoint LRU (count)
  std::size_t warm_bytes = 256 << 20;      ///< warm-checkpoint LRU (bytes)
  /// Checkpoint cold fixed-window runs one cycle before their window
  /// closes, and warm-start longer-window refinements from them.
  bool capture_warm_checkpoints = true;
};

/// How a point's result was obtained.
enum class PointSource : std::uint8_t {
  kMiss,       ///< simulated cold (warmup + measurement)
  kWarm,       ///< resumed a cached window one cycle before it closed
  kHit,        ///< answered from the result cache
  kCoalesced,  ///< joined another request's identical in-flight run
};

const char* to_string(PointSource source);

/// One executed (or cache-answered) sweep point.
struct PointReport {
  std::string label;       ///< spec label (presentation only, not keyed)
  double offered_load = 0.0;
  std::string hash;        ///< canonical point key (config + replicas)
  std::string warm_hash;   ///< refinement family key
  PointSource source = PointSource::kMiss;
  std::int64_t cycles_simulated = 0;  ///< summed over replicas; 0 on kHit
  AveragedResult result;
  std::string error;       ///< non-empty if this point failed
};

/// One executed request (a full sweep).
struct RequestReport {
  std::vector<PointReport> points;
  std::string error;  ///< non-empty on parse/validation failure
  bool ok() const;    ///< no request error and no point errors
};

/// One warm-start cache entry: per-replica checkpoint bytes, each taken
/// one cycle before a fixed window of `measure_cycles` closed.
struct WarmEntry {
  std::vector<std::string> checkpoints;
  Cycle measure_cycles = 0;
};

struct ServiceStats {
  std::int64_t requests = 0;
  std::int64_t points = 0;
  std::int64_t result_hits = 0;
  std::int64_t coalesced = 0;
  std::int64_t warm_starts = 0;
  std::int64_t cold_runs = 0;
  std::int64_t cycles_simulated = 0;
  std::int64_t errors = 0;
  LruCache<AveragedResult>::Stats result_cache;
  LruCache<WarmEntry>::Stats warm_cache;
  TopologyCache::Stats topologies;
};

class SweepService {
 public:
  explicit SweepService(ServiceOptions opts = {});
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Execute one request given as ExperimentSpec "key=value" items.
  /// Blocks until every point is resolved. `observer`, when non-null,
  /// is subscribed to every point for the duration of the call:
  /// on_sample(point_index, seed_index, sample) fires from simulating
  /// threads (including another request's thread when a point is
  /// coalesced), so implementations must be thread-safe.
  RequestReport execute(const std::vector<std::string>& items,
                        RunObserver* observer = nullptr);

  /// Expand a request into (hash, warm_hash, label, load) tuples
  /// without executing anything — the HASH protocol verb.
  RequestReport describe(const std::vector<std::string>& items) const;

  /// Canonical point key: cfg.canonical_hash() + replica count.
  static std::string point_hash(const SimConfig& cfg, int seeds);
  /// Refinement family key: cfg.warm_hash() + replica count.
  static std::string point_warm_hash(const SimConfig& cfg, int seeds);

  ServiceStats stats() const;
  const ServiceOptions& options() const { return opts_; }

 private:
  struct InFlight;

  void run_point(InFlight* flight);
  void finish_point(InFlight* flight);

  ServiceOptions opts_;
  LruCache<AveragedResult> results_;
  LruCache<WarmEntry> warm_;
  TopologyCache topologies_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  ServiceStats counters_;  ///< cache sub-structs filled on stats()

  // Declared last so it is destroyed first: queued point jobs drain
  // while the caches/maps they touch are still alive.
  ThreadPool pool_;
};

}  // namespace dragonfly
