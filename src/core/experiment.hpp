// Experiment runner: load sweeps, multi-seed averaging and parallel
// execution of independent simulation points through a caller-supplied
// ParallelRunner.
//
// This is the layer the bench harness and the examples sit on; it also
// defines the default offered-load sweep the reproduction driver
// (bench/repro.cpp) starts from.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "metrics/fairness.hpp"
#include "metrics/tap.hpp"
#include "sim/session.hpp"

namespace dragonfly {

/// Seed-averaged result at one offered load (curve sample of Figs. 2/5).
struct AveragedResult {
  double offered_load = 0.0;
  double accepted_load = 0.0;
  double avg_latency = 0.0;
  LatencyComponents components;
  double avg_local_hops = 0.0;
  double avg_global_hops = 0.0;
  /// Seed-averaged injected packets per router (Figs. 4/6).
  std::vector<double> injections_per_router;
  /// Fairness metrics computed per seed, then averaged (as the paper's
  /// tables do: "curves present the average of 3 different simulations").
  FairnessReport fairness;
  int seeds = 0;
  /// Seed-averaged measured-window length (= measure_cycles in fixed
  /// mode; where the CI stop actually landed in stop.mode=ci).
  double measured_cycles = 0.0;
  /// True when every seed's CI stop converged before the cap.
  bool converged = false;
  // --- workload metrics battery (seed-averaged) -------------------------
  double p99_latency = 0.0;
  double p999_latency = 0.0;
  double saturation_margin = 0.0;
  double jain_jobs = 0.0;
  double jain_groups = 0.0;
  /// Per-job results, passed through verbatim for single-seed runs
  /// (churn job populations differ across seeds, so multi-seed runs
  /// leave this empty rather than average incomparable job sets).
  std::vector<JobResult> jobs;
};

/// Average per-seed results into one curve point (exposed for callers
/// that run Sessions themselves, e.g. the CLI's checkpoint path).
AveragedResult average_results(std::span<const SimResult> runs);

/// Progress hook for run_sweep/run_configs: long sweeps report job
/// completions as they happen (CLI progress bars, logging, dashboards).
/// on_job_done fires from worker threads — overrides must be
/// thread-safe; the config-level callbacks fire from the calling thread
/// after the parallel phase, in config order. The default
/// implementations do nothing, so observers override only what they
/// need.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Before the parallel phase: total (config, seed) jobs and configs.
  virtual void on_start(std::size_t total_jobs, std::size_t num_configs) {
    (void)total_jobs;
    (void)num_configs;
  }

  /// After each job, from a worker thread. `finished` counts completed
  /// jobs (1-based, monotone across concurrent callers).
  virtual void on_job_done(std::size_t finished, std::size_t total_jobs) {
    (void)finished;
    (void)total_jobs;
  }

  /// After averaging, once per config in submission order.
  virtual void on_config_done(std::size_t config_index,
                              const AveragedResult& result) {
    (void)config_index;
    (void)result;
  }

  /// Return true to stream per-interval MetricTap samples from every
  /// job (sampled every cfg.stream_interval cycles).
  virtual bool wants_stream() const { return false; }

  /// One interval sample of job (config_index, seed_index). Fires from
  /// worker threads — overrides must be thread-safe.
  virtual void on_sample(std::size_t config_index, std::size_t seed_index,
                         const StreamSample& sample) {
    (void)config_index;
    (void)seed_index;
    (void)sample;
  }
};

/// MetricTap adapter forwarding one job's stream samples into a
/// RunObserver with the job's (config, seed) coordinates attached —
/// used by run_configs for every streamed job and by single-session
/// callers (the CLI's checkpoint path runs it as job (0, 0)).
class ObserverTap final : public MetricTap {
 public:
  ObserverTap(RunObserver* observer, std::size_t config_index,
              std::size_t seed_index)
      : observer_(observer),
        config_index_(config_index),
        seed_index_(seed_index) {}

  void on_sample(const StreamSample& sample) override {
    observer_->on_sample(config_index_, seed_index_, sample);
  }

 private:
  RunObserver* observer_;
  std::size_t config_index_;
  std::size_t seed_index_;
};

/// Run a load sweep; (point, seed) jobs execute through `runner`.
/// Bit-identical for any runner / concurrency.
std::vector<AveragedResult> run_sweep(const SimConfig& base,
                                      std::span<const double> loads,
                                      int num_seeds, ParallelRunner& runner,
                                      RunObserver* observer = nullptr);

/// Run arbitrary configs in parallel (ablation grids) through `runner`:
/// each config once per replica (seed = derive_seed(cfg.seed, i)),
/// averaged. Bit-identical for any runner / concurrency.
std::vector<AveragedResult> run_configs(std::span<const SimConfig> configs,
                                        int num_seeds, ParallelRunner& runner,
                                        RunObserver* observer = nullptr);

// --- paper defaults ---------------------------------------------------------

/// The seven routing configurations of the paper's evaluation, as
/// registry names ("val-rrg", ..., "par-mm"), in the legend order of
/// Figures 2/4/5/6.
std::span<const std::string> paper_routing_names();

/// Offered-load sweep used for the latency/throughput figures.
std::vector<double> default_loads();

}  // namespace dragonfly
