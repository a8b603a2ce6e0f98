#include "core/experiment.hpp"

#include <atomic>
#include <stdexcept>

#include "common/rng.hpp"

namespace dragonfly {

AveragedResult average_results(std::span<const SimResult> runs) {
  if (runs.empty()) {
    throw std::invalid_argument("average_results: no runs");
  }
  AveragedResult avg;
  avg.seeds = static_cast<int>(runs.size());
  avg.offered_load = runs.front().offered_load;
  avg.converged = true;
  avg.injections_per_router.assign(runs.front().injections_per_router.size(),
                                   0.0);
  const double inv = 1.0 / static_cast<double>(runs.size());
  for (const SimResult& r : runs) {
    avg.measured_cycles += static_cast<double>(r.measured_cycles) * inv;
    avg.converged = avg.converged && r.converged;
    avg.accepted_load += r.accepted_load * inv;
    avg.avg_latency += r.avg_latency * inv;
    avg.components.base += r.components.base * inv;
    avg.components.misroute += r.components.misroute * inv;
    avg.components.local_queue += r.components.local_queue * inv;
    avg.components.global_queue += r.components.global_queue * inv;
    avg.components.injection_queue += r.components.injection_queue * inv;
    avg.avg_local_hops += r.avg_local_hops * inv;
    avg.avg_global_hops += r.avg_global_hops * inv;
    avg.fairness.min_injections += r.fairness.min_injections * inv;
    avg.fairness.max_injections += r.fairness.max_injections * inv;
    avg.fairness.max_over_min += r.fairness.max_over_min * inv;
    avg.fairness.cov += r.fairness.cov * inv;
    avg.fairness.jain += r.fairness.jain * inv;
    avg.fairness.mean += r.fairness.mean * inv;
    for (std::size_t i = 0; i < r.injections_per_router.size(); ++i) {
      avg.injections_per_router[i] +=
          static_cast<double>(r.injections_per_router[i]) * inv;
    }
    avg.p99_latency += r.p99_latency * inv;
    avg.p999_latency += r.p999_latency * inv;
    avg.saturation_margin += r.saturation_margin * inv;
    avg.jain_jobs += r.jain_jobs * inv;
    avg.jain_groups += r.jain_groups * inv;
  }
  if (runs.size() == 1) avg.jobs = runs.front().jobs;
  return avg;
}

std::vector<AveragedResult> run_configs(std::span<const SimConfig> configs,
                                        int num_seeds, ParallelRunner& runner,
                                        RunObserver* observer) {
  if (configs.empty()) return {};
  if (num_seeds < 1) throw std::invalid_argument("run_configs: num_seeds < 1");

  // Flatten (config, seed) jobs so seeds also run in parallel. Each job is
  // independent and writes its own result slot; the replica seed is a pure
  // function of (config, seed index), so the outcome is bit-identical for
  // any worker count. The observer sees completions as they happen but
  // cannot influence the results.
  const std::size_t seeds = static_cast<std::size_t>(num_seeds);
  std::vector<std::vector<SimResult>> results(
      configs.size(), std::vector<SimResult>(seeds));
  const std::size_t jobs = configs.size() * seeds;
  if (observer != nullptr) observer->on_start(jobs, configs.size());
  std::atomic<std::size_t> finished{0};
  const bool stream = observer != nullptr && observer->wants_stream();
  runner.run(jobs, [&](std::size_t i) {
    const std::size_t c = i / seeds;
    const std::size_t s = i % seeds;
    SimConfig cfg = configs[c];
    cfg.seed = derive_seed(cfg.seed, s);
    // Every job is a Session; attaching a tap only reads metrics, so
    // streamed and silent runs stay bit-identical.
    Session session(cfg);
    ObserverTap tap(observer, c, s);
    if (stream) session.set_tap(&tap);
    results[c][s] = session.run();
    if (observer != nullptr) {
      observer->on_job_done(finished.fetch_add(1) + 1, jobs);
    }
  });

  std::vector<AveragedResult> out;
  out.reserve(configs.size());
  for (auto& r : results) out.push_back(average_results(r));
  if (observer != nullptr) {
    for (std::size_t c = 0; c < out.size(); ++c) {
      observer->on_config_done(c, out[c]);
    }
  }
  return out;
}

std::vector<AveragedResult> run_sweep(const SimConfig& base,
                                      std::span<const double> loads,
                                      int num_seeds, ParallelRunner& runner,
                                      RunObserver* observer) {
  std::vector<SimConfig> configs;
  configs.reserve(loads.size());
  for (double load : loads) {
    SimConfig cfg = base;
    cfg.load = load;
    configs.push_back(cfg);
  }
  return run_configs(configs, num_seeds, runner, observer);
}

std::span<const std::string> paper_routing_names() {
  static const std::vector<std::string> names = {
      "val-rrg", "val-crg", "pb-rrg", "pb-crg", "par-rrg", "par-crg", "par-mm",
  };
  return names;
}

std::vector<double> default_loads() {
  return {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

}  // namespace dragonfly
