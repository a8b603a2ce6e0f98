// simulate — declarative front-end to the simulator: drive any
// registered routing/traffic/arrangement scenario, sweep loads and
// seeds in parallel, and emit results through the unified writer.
//
//   # one point, human-readable
//   ./simulate_cli --routing par-mm --traffic advc --load 0.3
//
//   # the paper's Figure-2c style sweep, as machine-readable CSV
//   ./simulate_cli --routing par-mm --traffic advc \
//       --load 0.1:1.0:0.1 --seeds 3 --out csv
//
//   # everything from a spec file, overriding one knob
//   ./simulate_cli --config examples/specs/smoke.spec --set seeds=2
//
//   # watch a run converge: stream per-interval metrics, stop on CI
//   ./simulate_cli --traffic uniform --load 0.1 --stop-ci --stream -
//
//   # checkpoint after warmup; re-running resumes from the file
//   ./simulate_cli --load 0.3 --checkpoint run.ckpt
//
//   # what scenarios and knobs are available?
//   ./simulate_cli --list
//
// Every option is sugar over the same `key = value` grammar the spec
// files use (see DESIGN.md); --set reaches any knob without a
// dedicated flag.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "core/api.hpp"
#include "service/server.hpp"

namespace {

using namespace dragonfly;

int usage(std::ostream& os, int exit_code) {
  os << "usage: simulate_cli [options]\n"
        "scenario (names per --list; any registered plugin works):\n"
        "  --routing NAME        routing mechanism (default min)\n"
        "  --traffic NAME        traffic pattern (default uniform)\n"
        "  --topology SPEC       topology family: dfly[:p,a,h[,G]] |\n"
        "                        flatbfly:k,n[,p] (default: dfly from --h)\n"
        "  --arrangement NAME    global-link arrangement (default palmtree;\n"
        "                        dragonfly topologies only)\n"
        "sweep:\n"
        "  --load X | A:B:STEP | X,Y,Z   offered load(s) (default 0.3)\n"
        "  --seeds N             replicas averaged per point (default 1)\n"
        "  --threads N           worker threads (default: hardware)\n"
        "  --shards N            step each network in N parallel router\n"
        "                        shards (sim.shards; bit-identical results\n"
        "                        for any N, 1 = serial)\n"
        "topology & run control:\n"
        "  --h N                 balanced dragonfly radix (default 3)\n"
        "  --seed N --warmup N --measure N\n"
        "  --no-priority         disable transit-over-injection priority\n"
        "  --age                 enable age arbitration\n"
        "session lifecycle:\n"
        "  --stop-ci             adaptive stopping (stop.mode=ci): end the\n"
        "                        measured window when the batch-means CIs\n"
        "                        converge; --measure stays the cap\n"
        "  --stream FILE         stream per-interval metrics as CSV to FILE\n"
        "                        ('-' = stdout; every stream.interval cycles)\n"
        "  --checkpoint FILE     single-point runs: resume from FILE if it\n"
        "                        exists, else checkpoint after warmup and\n"
        "                        continue (re-run to resume)\n"
        "declarative:\n"
        "  --config FILE         read `key = value` spec lines (applied\n"
        "                        first; other flags override the file)\n"
        "  --set KEY=VALUE       apply any spec/config key (repeatable)\n"
        "service:\n"
        "  --serve PORT          run as a sweep service on 127.0.0.1:PORT\n"
        "                        (0 = ephemeral, printed on stdout): RUN/\n"
        "                        STREAM/HASH requests over a line protocol,\n"
        "                        canonical-hash result cache, warm starts\n"
        "                        (--threads sizes the worker pool; see\n"
        "                        DESIGN.md \"Sweep service\")\n"
        "output:\n"
        "  --out FORMAT          table | csv | json (default table)\n"
        "  --out-file PATH       also write the results to PATH\n"
        "  --label NAME          experiment label in the output\n"
        "  --quiet               no progress on stderr\n"
        "  --list                print registered scenario names and the\n"
        "                        full config-key table\n";
  return exit_code;
}

void list_registries() {
  auto print = [](const char* title, const std::vector<std::string>& keys) {
    std::cout << title << ":";
    for (const std::string& key : keys) std::cout << " " << key;
    std::cout << "\n";
  };
  print("routings", routing_registry().keys());
  print("traffic patterns", traffic_registry().keys());
  print("arrangements", arrangement_registry().keys());
  print("topologies", topology_registry().keys());
  std::cout << "  (specs: dfly[:p,a,h[,G]] — canonical G = a*h+1, smaller G\n"
               "   trims the wiring; flatbfly:k,n[,p] — k-ary n-flat, n-1\n"
               "   dimensions in {1,2}, concentration p defaults to k)\n";
  std::cout << "\nconfig keys (spec files, --set, and the dedicated flags):\n";
  for (const auto& [key, desc] : ExperimentSpec::kv_key_descriptions()) {
    std::cout << "  " << key;
    for (std::size_t pad = key.size(); pad < 24; ++pad) std::cout << ' ';
    std::cout << desc << "\n";
  }
}

/// Progress on stderr plus (optionally) the streamed per-interval CSV.
class CliObserver final : public RunObserver {
 public:
  CliObserver(bool quiet, std::ostream* stream)
      : progress_(std::cerr), quiet_(quiet), stream_(stream) {
    if (stream_ != nullptr) {
      *stream_ << "config,seed," << kStreamSampleColumns << "\n";
    }
  }

  void on_start(std::size_t total_jobs, std::size_t num_configs) override {
    if (!quiet_) progress_.on_start(total_jobs, num_configs);
  }
  void on_job_done(std::size_t finished, std::size_t total_jobs) override {
    if (!quiet_) progress_.on_job_done(finished, total_jobs);
  }

  bool wants_stream() const override { return stream_ != nullptr; }

  void on_sample(std::size_t config_index, std::size_t seed_index,
                 const StreamSample& s) override {
    std::lock_guard<std::mutex> lock(mu_);
    *stream_ << config_index << ',' << seed_index << ',' << csv_fields(s)
             << "\n";
  }

 private:
  ProgressPrinter progress_;
  bool quiet_;
  std::ostream* stream_;
  std::mutex mu_;
};

}  // namespace

int main(int argc, char** argv) {
  ExperimentSpec spec;
  spec.base = SimConfig::small(3);
  spec.base.load = 0.3;
  spec.label = "simulate_cli";
  bool quiet = false;
  std::string stream_path;
  std::string checkpoint_path;
  int serve_port = -1;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(std::cerr, 2);
      std::exit(2);
    }
    return argv[++i];
  };

  try {
    // --config is applied first regardless of its position, so every
    // other flag overrides the file (a spec starts from the paper-scale
    // SimConfig defaults, not the CLI's small(3)).
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--config")) {
        spec = ExperimentSpec::parse_file(need_value(i));
      }
    }
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
        return usage(std::cout, 0);
      } else if (!std::strcmp(arg, "--list")) {
        list_registries();
        return 0;
      } else if (!std::strcmp(arg, "--config")) {
        ++i;  // handled in the first pass
      } else if (!std::strcmp(arg, "--set")) {
        spec.apply_kv_line(need_value(i));
      } else if (!std::strcmp(arg, "--routing")) {
        spec.apply_kv("routing", need_value(i));
      } else if (!std::strcmp(arg, "--traffic")) {
        spec.apply_kv("traffic", need_value(i));
      } else if (!std::strcmp(arg, "--topology")) {
        spec.apply_kv("topology", need_value(i));
      } else if (!std::strcmp(arg, "--arrangement")) {
        spec.apply_kv("arrangement", need_value(i));
      } else if (!std::strcmp(arg, "--load")) {
        spec.apply_kv("load", need_value(i));
      } else if (!std::strcmp(arg, "--seeds")) {
        spec.apply_kv("seeds", need_value(i));
      } else if (!std::strcmp(arg, "--threads")) {
        spec.apply_kv("threads", need_value(i));
      } else if (!std::strcmp(arg, "--shards")) {
        spec.apply_kv("sim.shards", need_value(i));
      } else if (!std::strcmp(arg, "--h")) {
        spec.apply_kv("h", need_value(i));
      } else if (!std::strcmp(arg, "--seed")) {
        spec.apply_kv("seed", need_value(i));
      } else if (!std::strcmp(arg, "--warmup")) {
        spec.apply_kv("warmup_cycles", need_value(i));
      } else if (!std::strcmp(arg, "--measure")) {
        spec.apply_kv("measure_cycles", need_value(i));
      } else if (!std::strcmp(arg, "--no-priority")) {
        spec.apply_kv("transit_priority", "off");
      } else if (!std::strcmp(arg, "--age")) {
        spec.apply_kv("age_arbitration", "on");
      } else if (!std::strcmp(arg, "--stop-ci")) {
        spec.apply_kv("stop.mode", "ci");
      } else if (!std::strcmp(arg, "--stream")) {
        stream_path = need_value(i);
      } else if (!std::strcmp(arg, "--checkpoint")) {
        checkpoint_path = need_value(i);
      } else if (!std::strcmp(arg, "--serve")) {
        serve_port = std::stoi(need_value(i));
        if (serve_port < 0 || serve_port > 65535) {
          throw std::invalid_argument("--serve PORT must be 0..65535");
        }
      } else if (!std::strcmp(arg, "--out")) {
        spec.apply_kv("out", need_value(i));
      } else if (!std::strcmp(arg, "--out-file")) {
        spec.apply_kv("out_path", need_value(i));
      } else if (!std::strcmp(arg, "--label")) {
        spec.apply_kv("label", need_value(i));
      } else if (!std::strcmp(arg, "--quiet")) {
        quiet = true;
      } else {
        std::cerr << "unknown option " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    spec.finalize();
    if (!checkpoint_path.empty() &&
        (spec.effective_loads().size() > 1 || spec.seeds > 1)) {
      throw std::invalid_argument(
          "--checkpoint needs a single-point run (one load, one seed)");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (serve_port >= 0) {
    try {
      ServiceOptions opts;
      opts.workers = spec.threads;
      SweepService service(opts);
      SweepServer server(service, static_cast<std::uint16_t>(serve_port));
      std::cout << "sweep service listening on 127.0.0.1:" << server.port()
                << "\n"
                << std::flush;
      server.wait_shutdown();
      server.stop();
      const ServiceStats stats = service.stats();
      if (!quiet) {
        std::cerr << "served " << stats.requests << " request(s), "
                  << stats.points << " point(s): " << stats.result_hits
                  << " hit, " << stats.coalesced << " coalesced, "
                  << stats.warm_starts << " warm, " << stats.cold_runs
                  << " cold\n";
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    std::ofstream stream_file;
    std::ostream* stream = nullptr;
    if (!stream_path.empty()) {
      if (stream_path == "-") {
        stream = &std::cout;
      } else {
        stream_file.open(stream_path);
        if (!stream_file) {
          throw std::runtime_error("cannot open stream file " + stream_path);
        }
        stream = &stream_file;
      }
    }
    CliObserver observer(quiet, stream);

    ResultWriter writer(spec.label);
    std::vector<AveragedResult> collected;
    std::string label =
        spec.base.routing_key() + "/" + spec.base.traffic_key();

    if (!checkpoint_path.empty()) {
      // Single-session path: resume from the checkpoint when present,
      // otherwise run warmup, checkpoint at the Measure boundary, and
      // continue — re-running the same command resumes from the file.
      std::unique_ptr<Session> session;
      if (std::ifstream(checkpoint_path).good()) {
        session = Session::restore_file(checkpoint_path);
        // A resumed run is defined by the config embedded in the file:
        // label (and any warning) must reflect it, not the CLI flags.
        const SimConfig& restored = session->config();
        const std::string restored_label =
            restored.routing_key() + "/" + restored.traffic_key();
        if (!quiet) {
          std::cerr << "resumed from " << checkpoint_path << " at cycle "
                    << session->now() << " (phase "
                    << to_string(session->phase()) << ", scenario "
                    << restored_label << ")\n";
          if (restored_label != label ||
              restored.load != spec.effective_loads().front()) {
            std::cerr << "note: scenario flags are ignored on resume — "
                         "the checkpoint's config wins\n";
          }
        }
        label = restored_label;
      } else {
        SimConfig cfg = spec.base;
        cfg.load = spec.effective_loads().front();
        session = std::make_unique<Session>(cfg);
        session->advance_to(SessionPhase::kMeasure);
        session->checkpoint_file(checkpoint_path);
        if (!quiet) {
          std::cerr << "checkpoint written to " << checkpoint_path
                    << " at cycle " << session->now() << "\n";
        }
      }
      // Same adapter as the sweep path: this single session is job (0, 0).
      ObserverTap tap(&observer, 0, 0);
      if (stream != nullptr) session->set_tap(&tap);
      const SimResult result = session->run();
      collected.push_back(
          average_results(std::span<const SimResult>(&result, 1)));
      writer.add(label, collected.back());
    } else {
      collected = run_spec(spec, &observer);
      for (const AveragedResult& r : collected) writer.add(label, r);
    }

    writer.write(std::cout, spec.format);
    // Workload runs append the per-job battery table (human-readable
    // output only — csv/json stdout stays one parseable document).
    if (spec.format == OutputFormat::kTable) {
      for (const AveragedResult& r : collected) {
        if (r.jobs.empty()) continue;
        std::cout << "\n";
        report_job_table(std::cout, spec.label + " — jobs", r.jobs);
      }
    }
    if (!spec.out_path.empty()) {
      writer.write_file(spec.out_path, spec.format);
      if (!quiet) {
        std::cerr << "results written to " << spec.out_path << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
