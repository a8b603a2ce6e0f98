// Steppable simulation sessions: the phase-driven lifecycle every run
// goes through (run_simulation() below is the one-call form).
//
// A Session owns one Network and drives it through an explicit machine
//
//   Warmup -> Measure -> Drain -> Done
//
// with three ways to end the Measure phase:
//   * fixed window  — exactly measure_cycles (the paper's Sec. IV-A
//     methodology);
//   * adaptive stop — stop.mode=ci: batch-means confidence intervals on
//     accepted load and latency, measurement ends at the first batch
//     boundary where both relative half-widths fall under stop.rel_hw
//     (measure_cycles caps the window);
//   * phase script  — user-defined scripted segments (`phases` key)
//     that mutate offered load / traffic at cycle boundaries while one
//     measurement window spans them all.
//
// Observability is push-based: attach a MetricTap and the session emits
// a StreamSample every stream.interval cycles plus phase-transition
// callbacks. checkpoint()/restore() serialize the complete mutable
// state (RNG streams, queues, event ring, metrics), so a restored run
// continues bit-identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/fairness.hpp"
#include "metrics/latency.hpp"
#include "metrics/tap.hpp"
#include "sim/config.hpp"
#include "sim/network.hpp"

namespace dragonfly {

/// Per-job slice of a SimResult (workload modes; see JobRecord).
struct JobResult {
  std::int32_t id = -1;
  std::string label;          ///< traffic mix or collective name
  std::int32_t nodes = 0;
  Cycle start = 0;
  Cycle end = -1;             ///< -1 = still live when collected
  std::int64_t delivered_packets = 0;
  /// Delivered phits/(job node * cycle) over the overlap of the job's
  /// lifetime with the measurement window.
  double accepted_load = 0.0;
  double avg_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  std::int64_t iterations = 0;          ///< collective iterations, window
  double mean_iteration_cycles = 0.0;   ///< mean completion time
};

/// Results of one simulation run at one offered load.
struct SimResult {
  double offered_load = 0.0;   ///< configured phits/(node*cycle)
  double accepted_load = 0.0;  ///< delivered phits/(node*cycle), window
  double avg_latency = 0.0;    ///< cycles, packets delivered in window
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  LatencyComponents components;
  double avg_local_hops = 0.0;
  double avg_global_hops = 0.0;
  std::int64_t delivered_packets = 0;
  std::int64_t generated_packets = 0;
  /// Injected packets per router during the window (all routers).
  std::vector<std::int64_t> injections_per_router;
  FairnessReport fairness;  ///< over all routers with generating nodes
  /// Length of the closed measurement window; under stop.mode=ci this
  /// is where the run actually stopped (0 if never measured).
  Cycle measured_cycles = 0;
  /// True when stop.mode=ci ended the window early because the CIs
  /// converged (always false in fixed mode).
  bool converged = false;

  // --- workload metrics battery ------------------------------------------
  /// P² tail estimate over all measured deliveries.
  double p999_latency = 0.0;
  /// Headroom below saturation: max(0, (offered - accepted) / offered).
  double saturation_margin = 0.0;
  /// Jain fairness across per-job accepted loads (0 when no jobs).
  double jain_jobs = 0.0;
  /// Jain fairness across per-group measured injection sums.
  double jain_groups = 0.0;
  /// One entry per workload job (empty outside workload modes).
  std::vector<JobResult> jobs;
};

class Session {
 public:
  /// Build over the shape's shared topology (the next constructor with
  /// nullptr).
  explicit Session(const SimConfig& cfg);

  /// Build over a pre-constructed shared topology (see
  /// Network::Network(cfg, topo)); nullptr shares the process-wide
  /// instance of a built-in family's shape, as Session(cfg) does, and
  /// builds a private one for a user-registered family.
  Session(const SimConfig& cfg, std::shared_ptr<const Topology> topo);

  // --- phase machine --------------------------------------------------------
  SessionPhase phase() const { return phase_; }
  /// Active scripted segment name ("" outside scripted segments).
  const std::string& segment() const;
  Cycle now() const { return net_.now(); }
  bool converged() const { return converged_; }

  /// Advance up to `n` cycles, crossing phase boundaries as they come
  /// (measurement begins/ends, scripted mutations apply, batch CIs are
  /// tested, stream samples fire). Stops early when the session reaches
  /// Done.
  void step(Cycle n = 1);

  /// Run until the session has *entered* `target` (no-op when already
  /// at or past it).
  void advance_to(SessionPhase target);

  /// Under a fixed, unscripted window (stop.mode=fixed, no phase
  /// script): run into Measure and stop one cycle before the window
  /// closes, leaving it open — a checkpoint taken here can be restored
  /// under a longer refined window that then simulates only the cycles
  /// it adds. Returns false, without stepping, for any other stop rule
  /// or when the session is already past Measure.
  bool advance_to_measure_close();

  /// Drive the machine to Done and collect.
  SimResult run();

  /// Extract results. Before any measurement this returns a well-defined
  /// empty result (offered load + zeroed metrics); mid-measurement the
  /// latency aggregates are partial and accepted load reads 0 until the
  /// window closes.
  SimResult collect() const;

  // --- streaming ------------------------------------------------------------
  /// Attach (or detach with nullptr) the streaming observer; samples
  /// fire every cfg.stream_interval cycles starting from the current
  /// cycle.
  void set_tap(MetricTap* tap);

  // --- raw access -----------------------------------------------------------
  /// Advance exactly `cycles` cycles with the deadlock watchdog but *no*
  /// phase logic — the escape hatch for custom loops that call
  /// Network::begin/end_measurement themselves.
  void step_raw(Cycle cycles);

  Network& network() { return net_; }
  const Network& network() const { return net_; }
  const SimConfig& config() const { return cfg_; }

  /// Inject the runner used for sharded stepping (sim.shards > 1);
  /// pass-through to Network::set_runner. Not owned; nullptr reverts to
  /// the network's internal pool.
  void set_runner(ParallelRunner* runner) { net_.set_runner(runner); }

  // --- checkpoint / restore -------------------------------------------------
  /// Serialize config + full mutable state. The stream restores to a
  /// session that continues bit-identically (same RNG draws, same event
  /// order, same final SimResult). The format (v4) is shard-partition-
  /// independent: `shards_override` > 0 restores under that shard count
  /// instead of the one embedded at save time — still bit-identical,
  /// so a run can be checkpointed on a laptop at sim.shards=1 and
  /// resumed on a many-core box at sim.shards=8 (or vice versa).
  ///
  /// `refine`, when non-null, is a *warm-start refinement*: the restored
  /// session adopts the refinement keys (measurement window, stop rule,
  /// drain cap, stream interval, kernel/shards/paranoid — see
  /// SimConfig::refinement_key) from `refine` while keeping the
  /// checkpoint's physical config. Every non-refinement knob must match
  /// the embedded config's canonical form; any mismatch throws
  /// std::runtime_error carrying SimConfig::warm_incompatibility's
  /// diagnostic, so a service can never silently resume a checkpoint
  /// into a physically different experiment. Where the refinement lands
  /// depends on where the checkpoint was taken:
  ///   * at the Warmup->Measure boundary (the Measure phase entered but
  ///     not armed, as `simulate_cli --checkpoint` writes it), the
  ///     refined window and stop rule open over identical warm state;
  ///   * inside an open, unscripted Measure window (e.g. one cycle
  ///     before a fixed window closes, advance_to_measure_close()), the
  ///     window's deadline is re-derived as measure_begin + the refined
  ///     measure_cycles, so a longer window simulates only the cycles
  ///     it adds. A deadline not after the checkpoint's cycle, or a
  ///     changed stop mode or batch length, throws
  ///     "checkpoint: warm start rejected: ...".
  /// Without `refine` the saved deadline is kept. `topo` optionally
  /// supplies the shared topology for the rebuilt network (nullptr
  /// acquires one as Session(cfg) does).
  std::string checkpoint() const;
  void checkpoint(std::ostream& os) const;
  void checkpoint_file(const std::string& path) const;
  /// Restore from checkpoint bytes; they need to outlive only the call.
  static std::unique_ptr<Session> restore(
      std::string_view bytes, int shards_override = 0,
      const SimConfig* refine = nullptr,
      std::shared_ptr<const Topology> topo = nullptr);
  /// Restore from the rest of `is`.
  static std::unique_ptr<Session> restore(
      std::istream& is, int shards_override = 0,
      const SimConfig* refine = nullptr,
      std::shared_ptr<const Topology> topo = nullptr);
  static std::unique_ptr<Session> restore_file(const std::string& path,
                                               int shards_override = 0);

 private:
  void check_progress();
  void step_impl(Cycle n, bool stop_on_transition);
  void arm_phase();
  void transition(SessionPhase to);
  void enter_measure();
  void enter_segment(std::size_t index);
  void close_batch();
  bool intervals_converged() const;
  void emit_sample();
  /// restore() with a refinement, checkpoint inside an open Measure
  /// window: re-derive its deadline (see restore()).
  void refine_open_window(const StopRule& saved);

  SimConfig cfg_;
  Network net_;

  // Phase machine. Deadlines are armed lazily on the first step() inside
  // a phase, so raw pre-stepping (step_raw() before run()) keeps the
  // "warmup counts from here" semantics.
  SessionPhase phase_ = SessionPhase::kWarmup;
  bool phase_armed_ = false;
  Cycle phase_end_ = 0;
  std::size_t seg_index_ = 0;
  Cycle seg_end_ = 0;
  Cycle measure_begin_ = 0;
  bool converged_ = false;

  // Batch means (stop.mode=ci).
  Cycle batch_end_ = 0;
  std::int64_t batch_start_phits_ = 0;
  std::int64_t batch_start_packets_ = 0;
  double batch_start_lat_sum_ = 0.0;
  std::vector<double> batch_accepted_;
  std::vector<double> batch_latency_;

  // Streaming.
  MetricTap* tap_ = nullptr;
  Cycle next_sample_ = 0;
  Cycle sample_begin_ = 0;
  std::int64_t sample_start_packets_ = 0;
  std::int64_t sample_start_phits_ = 0;
  double sample_start_lat_sum_ = 0.0;

  // Deadlock watchdog (see step_raw).
  Cycle last_watchdog_check_ = 0;
  std::int64_t last_events_ = -1;
  std::int64_t last_progress_ = -1;
  std::size_t last_live_ = 0;
};

/// Configure, run to Done, return: Session(cfg).run().
SimResult run_simulation(const SimConfig& cfg);

}  // namespace dragonfly
