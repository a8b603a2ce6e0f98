// Per-simulation metrics collection: delivered traffic, latency
// decomposition, conservation counters, and the always-on cumulative
// counters the streaming MetricTap interval math reads.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "metrics/latency.hpp"
#include "router/packet.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

/// Per-tenant statistics of one workload job (collective communicator,
/// churn job). Lifetime fields cover the whole run; the delivery
/// accumulators cover the measurement window only (reset at
/// begin_measurement), matching every other measured aggregate.
struct JobRecord {
  std::int32_t id = -1;
  /// Traffic-mix or collective name (reporting label).
  std::string label;
  std::int32_t nodes = 0;
  Cycle start = 0;
  Cycle end = -1;  ///< -1 while the job is live
  std::int64_t delivered_packets = 0;
  std::int64_t delivered_phits = 0;
  double latency_sum = 0.0;
  double max_latency = 0.0;
  P2Quantile p99{0.99};
  /// Collective iterations completed in the window and their total
  /// completion time (mean = sum / iterations).
  std::int64_t iterations = 0;
  double iteration_cycles = 0.0;
};

class MetricsCollector {
 public:
  MetricsCollector(const Topology& topo, const SimConfig& cfg)
      : topo_(topo), cfg_(cfg), p2_p50_(0.50), p2_p99_(0.99),
        p2_p999_(0.999) {}

  void begin_measurement(Cycle now) {
    measuring_ = true;
    begun_ = true;
    ended_ = false;
    measure_start_ = now;
    latency_.reset();  // keeps the histogram storage
    delivered_packets_measured_ = 0;
    delivered_phits_measured_ = 0;
    // The rolling percentile estimators cover the measurement window.
    p2_p50_.reset();
    p2_p99_.reset();
    p2_p999_.reset();
    // Per-job delivery accumulators cover the window too; job identity
    // and lifetime are preserved.
    for (JobRecord& job : jobs_) {
      job.delivered_packets = 0;
      job.delivered_phits = 0;
      job.latency_sum = 0.0;
      job.max_latency = 0.0;
      job.p99.reset();
      job.iterations = 0;
      job.iteration_cycles = 0.0;
    }
  }
  void end_measurement(Cycle now) {
    measuring_ = false;
    ended_ = true;
    measure_end_ = now;
  }
  bool measuring() const { return measuring_; }
  /// True once begin_measurement has run (possibly still open).
  bool measurement_begun() const { return begun_; }
  /// True once a measurement window has been closed; collect() before
  /// this must report a well-defined empty result, not garbage.
  bool measurement_closed() const { return ended_; }
  Cycle measured_cycles() const {
    return ended_ ? measure_end_ - measure_start_ : 0;
  }
  Cycle measure_start() const { return measure_start_; }
  Cycle measure_end() const { return measure_end_; }

  /// Called by the network when a packet tail reaches its destination.
  void on_delivered(const Packet& pkt, Cycle when);

  // --- per-router counters (SoA; each Router gets its slots as
  // RouterCounters at construction and increments them directly) -------
  /// Size the per-router counter arrays (done once by Network::build).
  void attach_routers(int num_routers);
  std::int64_t* router_injected_total(RouterId r) {
    return injected_total_.data() + static_cast<std::size_t>(r);
  }
  std::int64_t* router_injected_measured(RouterId r) {
    return injected_measured_.data() + static_cast<std::size_t>(r);
  }
  std::int64_t* router_forwarded_total(RouterId r) {
    return forwarded_total_.data() + static_cast<std::size_t>(r);
  }
  const std::vector<std::int64_t>& injected_measured_per_router() const {
    return injected_measured_;
  }
  /// Sum of forwarded-packet counters (deadlock watchdog).
  std::int64_t forwarded_total_sum() const;
  /// Zero the measured-window injection counters (begin_measurement).
  void reset_measured_router_counters();

  /// Streaming mode keeps the rolling P² percentile estimators updated
  /// on every delivery; off (the default) keeps the hot path identical
  /// to the fixed-window collector.
  void set_streaming(bool on) { streaming_ = on; }
  bool streaming() const { return streaming_; }

  // --- measured-window results ------------------------------------------
  const LatencyAccumulator& latency() const { return latency_; }
  std::int64_t delivered_packets_measured() const {
    return delivered_packets_measured_;
  }
  std::int64_t delivered_phits_measured() const {
    return delivered_phits_measured_;
  }
  /// Accepted load in phits/(node*cycle) over `generating_nodes` sources.
  double accepted_load(int generating_nodes) const;

  // --- whole-run cumulative counters (streaming interval deltas) ---------
  std::int64_t delivered_packets_total() const {
    return delivered_packets_total_;
  }
  std::int64_t delivered_phits_total() const { return delivered_phits_total_; }
  /// Sum of (delivery - injection-queue entry) over *all* deliveries —
  /// interval mean latency = delta(sum) / delta(count).
  double latency_sum_total() const { return latency_sum_total_; }

  /// Rolling latency percentiles over the measurement window so far
  /// (only maintained while streaming() is on).
  double p50_estimate() const { return p2_p50_.value(); }
  double p99_estimate() const { return p2_p99_.value(); }
  /// Tail percentile of the per-job metrics battery: P² p99.9 over all
  /// measured deliveries (always maintained while measuring).
  double p999_estimate() const { return p2_p999_.value(); }

  // --- workload job battery (driver call sites are serial) ---------------
  /// Register a job (churn arrival; the collective communicator is job
  /// 0). Packets stamped with this id are attributed to it.
  void on_job_start(std::int32_t id, const std::string& label, int nodes,
                    Cycle now);
  /// Mark a job departed (its record is kept for reporting).
  void on_job_end(std::int32_t id, Cycle now);
  /// One completed collective iteration (recorded while measuring).
  void on_iteration(std::int32_t id, Cycle duration);
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  /// Jobs currently live (end unset).
  std::int64_t live_jobs() const;

  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  const Topology& topo_;
  const SimConfig& cfg_;
  bool measuring_ = false;
  bool begun_ = false;
  bool ended_ = false;
  bool streaming_ = false;
  Cycle measure_start_ = 0;
  Cycle measure_end_ = 0;
  LatencyAccumulator latency_;
  std::int64_t delivered_packets_measured_ = 0;
  std::int64_t delivered_phits_measured_ = 0;
  std::int64_t delivered_packets_total_ = 0;
  std::int64_t delivered_phits_total_ = 0;
  double latency_sum_total_ = 0.0;
  P2Quantile p2_p50_;
  P2Quantile p2_p99_;
  P2Quantile p2_p999_;
  /// Workload job records in registration order; index_ maps job id to
  /// its slot (rebuilt on load).
  std::vector<JobRecord> jobs_;
  std::unordered_map<std::int32_t, std::size_t> job_index_;
  /// Per-router statistics, hoisted out of the Router objects so the
  /// fairness/accounting reads are contiguous scans (see attach_routers).
  std::vector<std::int64_t> injected_total_;
  std::vector<std::int64_t> injected_measured_;
  std::vector<std::int64_t> forwarded_total_;
};

}  // namespace dragonfly
