// Shared scaffolding for the reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper:
// it prints a configuration preamble, the measured rows/series, and the
// paper's expected shape, and mirrors the series through the unified
// ResultWriter under results_dir(). Scenarios are selected by registry
// name (routing_registry()/traffic_registry()); the declarative
// ExperimentSpec in bench_setup() carries the sweep. Environment knobs
// (see DESIGN.md):
//   REPRO_FULL=1  — paper-scale run (h=6, 5,256 nodes, Table I windows)
//   REPRO_H=<n>   — override the dragonfly radix (default 3 small, 6 full)
//   REPRO_SEEDS   — seeds averaged per point (default 2 small, 3 full)
//   REPRO_LOADS   — thin the offered-load sweep to this many points
//   REPRO_CYCLES  — override the measured window (warmup = half of it)
//   REPRO_OUT     — result output directory (default "results")
//   REPRO_FORMAT  — result file format, csv (default) or json
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace benchutil {

using namespace dragonfly;

/// The operating point of the fairness experiments (Figs. 4/6, Tables
/// II/III). The paper uses 0.4 at h=6; at reduced scale the oblivious
/// mechanisms saturate earlier, so the equivalent below-oblivious-
/// saturation point is 0.3 (see EXPERIMENTS.md).
inline double fairness_load(const BenchSetup& setup) {
  return setup.full_scale || setup.spec.base.topo.h >= 6 ? 0.4 : 0.3;
}

/// Paper legend label for a registry key: the alias its routing unit
/// registers ("par-mm" -> "In-Trns-MM"); keys without one label as
/// themselves.
inline std::string display_name(const std::string& routing_key) {
  const std::vector<std::string> aliases =
      routing_registry().aliases_of(routing_key);
  return aliases.empty() ? routing_key : aliases.front();
}

/// Paper legend: the "MIN/Obl-RRG" reference line is MIN under uniform
/// traffic and non-minimal oblivious RRG under the adversarial patterns.
inline std::string reference_routing(const std::string& traffic_key) {
  return traffic_key == "uniform" ? "min" : "val-rrg";
}

/// The seven curves of Figures 2/5 for one traffic pattern, by name.
inline std::vector<std::string> figure_routings(
    const std::string& traffic_key) {
  std::vector<std::string> keys{reference_routing(traffic_key)};
  for (const std::string& key : paper_routing_names()) {
    if (key != keys.front()) keys.push_back(key);
  }
  return keys;
}

inline std::string curve_label(const std::string& routing_key,
                               const std::string& traffic_key) {
  if (routing_key == reference_routing(traffic_key) &&
      (routing_key == "min" || routing_key == "val-rrg")) {
    return "MIN/Obl-RRG";
  }
  return display_name(routing_key);
}

/// Run the full latency/throughput figure for one traffic pattern.
inline std::vector<Curve> run_figure(const BenchSetup& setup,
                                     const std::string& traffic_key,
                                     bool transit_priority) {
  std::vector<Curve> curves;
  for (const std::string& key : figure_routings(traffic_key)) {
    ExperimentSpec spec = setup.spec;
    spec.base.routing_name = key;
    spec.base.traffic_name = traffic_key;
    spec.base.transit_priority = transit_priority;
    spec.base.apply_vc_defaults();
    Curve curve;
    curve.label = curve_label(key, traffic_key);
    curve.points = run_sweep(spec.base, spec.effective_loads(), spec.seeds,
                             *setup.pool);
    curves.push_back(std::move(curve));
  }
  return curves;
}

/// Run the per-router injection / fairness experiment (one load point).
inline std::vector<Curve> run_fairness(const BenchSetup& setup,
                                       bool transit_priority) {
  std::vector<SimConfig> configs;
  std::vector<std::string> labels;
  for (const std::string& key : paper_routing_names()) {
    SimConfig cfg = setup.spec.base;
    cfg.routing_name = key;
    cfg.traffic_name = "advc";
    cfg.load = fairness_load(setup);
    cfg.transit_priority = transit_priority;
    cfg.apply_vc_defaults();
    configs.push_back(cfg);
    labels.push_back(display_name(key));
  }
  const std::vector<AveragedResult> results =
      run_configs(configs, setup.spec.seeds, *setup.pool);
  std::vector<Curve> curves;
  for (std::size_t i = 0; i < results.size(); ++i) {
    curves.push_back(Curve{labels[i], {results[i]}});
  }
  return curves;
}

}  // namespace benchutil
