// Streaming metrics: the MetricTap observer a Session drives while a
// run is in flight. Consumers (the CLI's --stream writer, RunObserver
// adapters, dashboards) receive one StreamSample per stream.interval
// cycles plus a callback at every phase transition — no polling, no
// re-deriving window math.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace dragonfly {

/// Lifecycle phase of a simulation Session (sim/session.hpp). The
/// machine only moves forward: Warmup -> Measure -> Drain -> Done.
enum class SessionPhase : std::uint8_t {
  kWarmup,   ///< filling the network; nothing is recorded
  kMeasure,  ///< the recorded window (fixed, CI-stopped, or scripted)
  kDrain,    ///< optional post-measure drain of in-flight packets
  kDone,     ///< terminal
};

const char* to_string(SessionPhase phase);

/// One streaming interval snapshot. Interval metrics (accepted load,
/// latency, deliveries) cover [t_begin, t_end); the percentile
/// estimates and fairness figures are rolling snapshots of the
/// measurement window so far.
struct StreamSample {
  Cycle t_begin = 0;
  Cycle t_end = 0;
  SessionPhase phase = SessionPhase::kWarmup;
  /// Active scripted segment name; empty outside scripted segments.
  std::string segment;
  double offered_load = 0.0;   ///< current (scripted phases mutate it)
  double accepted_load = 0.0;  ///< interval delivered phits/(node*cycle)
  double avg_latency = 0.0;    ///< interval mean delivered latency
  double p50_latency = 0.0;    ///< rolling P² estimate (measure window)
  double p99_latency = 0.0;    ///< rolling P² estimate (measure window)
  std::int64_t delivered_packets = 0;  ///< in this interval
  std::int64_t live_packets = 0;       ///< in flight at t_end
  double fairness_cov = 0.0;   ///< over measured per-router injections
  double fairness_jain = 0.0;
  std::int64_t live_jobs = 0;  ///< workload jobs live at t_end
  /// Jain fairness over per-job accepted loads so far (0 without jobs
  /// or before measurement).
  double jain_jobs = 0.0;
};

/// The sample as comma-separated fields, phase through jain_jobs, with
/// doubles as %.6g: the tail of a `simulate_cli --stream` row and of a
/// service SAMPLE line.
std::string csv_fields(const StreamSample& s);
/// csv_fields()'s column names, comma-separated.
inline constexpr const char* kStreamSampleColumns =
    "phase,segment,t_begin,t_end,offered,accepted,latency,p50,p99,"
    "delivered,live,fairness_cov,fairness_jain,live_jobs,jain_jobs";

/// Session observer. on_sample fires every stream.interval cycles from
/// the simulating thread; implementations used with parallel sweeps
/// must be thread-safe (see RunObserver::on_sample).
class MetricTap {
 public:
  virtual ~MetricTap() = default;

  virtual void on_sample(const StreamSample& sample) = 0;

  /// Every phase transition, including the final -> kDone.
  virtual void on_phase_change(SessionPhase from, SessionPhase to,
                               Cycle now) {
    (void)from;
    (void)to;
    (void)now;
  }
};

}  // namespace dragonfly
