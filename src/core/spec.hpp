// Declarative experiment specs: one SimConfig plus sweep/run control
// (loads, seeds, threads, output), buildable from `key = value` lines —
// a config file, CLI --set options, or programmatic overrides. This is
// the surface the CLI, the benches and scripted sweeps share; any
// registered routing/traffic/arrangement name is reachable from here
// without touching code under src/.
//
// Grammar (see DESIGN.md "Declarative experiment specs"):
//
//   # comment                       blank lines ignored
//   key = value                     one override per line
//   routing = par-mm                any routing_registry() name
//   traffic = advc                  any traffic_registry() name
//   loads = 0.1:1.0:0.1             range start:stop:step (inclusive)
//   loads = 0.05, 0.1, 0.2          or an explicit comma list
//   seeds = 3                       replicas averaged per point
//   out = csv                       table | csv | json
//
// Unknown keys and unregistered names fail with a diagnostic listing
// the valid ones, prefixed "<origin>:<line>:" when parsed from a file.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "sim/config.hpp"

namespace dragonfly {

/// "0.3" | "0.1,0.2,0.4" | "0.1:1.0:0.1" (inclusive range) -> load list.
std::vector<double> parse_loads(const std::string& text);

struct ExperimentSpec {
  SimConfig base;
  /// Offered loads swept; empty means {base.load} (one point).
  std::vector<double> loads;
  int seeds = 1;
  int threads = 0;  ///< <= 0 selects the hardware concurrency
  OutputFormat format = OutputFormat::kTable;
  std::string out_path;  ///< extra copy of the results; empty = none
  std::string label = "experiment";

  /// Spec-level keys (loads, seeds, threads, out, out_path, label) are
  /// handled here; everything else is delegated to
  /// SimConfig::try_apply_kv. Unknown keys throw, listing kv_keys().
  void apply_kv(const std::string& key, const std::string& value);

  /// Apply one "key=value" item.
  void apply_kv_line(const std::string& item);

  /// Parse `key = value` lines; `origin` names the source in errors
  /// (file path, "<cli>", ...).
  static ExperimentSpec parse(std::istream& is,
                              const std::string& origin = "<spec>");
  static ExperimentSpec parse_file(const std::string& path);

  /// Everything apply_kv understands (spec-level + SimConfig keys).
  static std::vector<std::string> kv_keys();

  /// (key, one-line description) for every key — the full knob table
  /// `simulate_cli --list` prints.
  static std::vector<std::pair<std::string, std::string>>
  kv_key_descriptions();

  /// Effective load list ({base.load} when none set).
  std::vector<double> effective_loads() const;

  /// Apply VC defaults (unless explicitly overridden) and validate;
  /// call once after the last override, before running.
  void finalize();
};

/// Run the spec's sweep: one curve of seed-averaged points, in load
/// order. The observer (optional) sees per-job progress.
std::vector<AveragedResult> run_spec(const ExperimentSpec& spec,
                                     RunObserver* observer = nullptr);

/// RunObserver printing "[done/total jobs]" progress to a stream
/// (stderr in the CLI). Thread-safe; rewrites the line in place when
/// the stream is a terminal-ish consumer, ends with a newline.
class ProgressPrinter : public RunObserver {
 public:
  explicit ProgressPrinter(std::ostream& os) : os_(os) {}

  void on_start(std::size_t total_jobs, std::size_t num_configs) override;
  void on_job_done(std::size_t finished, std::size_t total_jobs) override;

 private:
  void print_locked(std::size_t finished, std::size_t total_jobs,
                    std::size_t num_configs);

  std::ostream& os_;
  std::mutex mu_;
  std::size_t last_finished_ = 0;
  std::size_t last_width_ = 0;
};

// --- bench-harness defaults -------------------------------------------------

/// Spec used by the reproduction benches: SimConfig::small(REPRO_H or
/// 3), or the paper-scale Table I setup when REPRO_FULL=1. REPRO_SEEDS
/// overrides the averaged seeds (default 1 small / 3 full), REPRO_LOADS
/// thins the sweep, REPRO_CYCLES overrides the measured window.
struct BenchSetup {
  ExperimentSpec spec;
  bool full_scale = false;
  /// The one worker pool (spec.threads workers) every sweep of the
  /// bench runs on.
  std::unique_ptr<PoolRunner> pool;
};
BenchSetup bench_setup();

}  // namespace dragonfly
