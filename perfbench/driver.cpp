// perfbench_driver — runs one benchmark workload against the simulator
// library and prints one JSON line of operation counts and named
// metrics. perfbench/run.py builds this, runs it and shapes the final
// result line from BENCHMARK.json.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--toy] [--expect-digest HEX] [--inject-err]
//                    [--simulate-cli PATH] [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--toy] [--expect-digest HEX] [--inject-err] "
               "[--simulate-cli PATH] [--trace-out FILE]\n";
  return 2;
}

void print_json(const Outcome& out) {
  std::printf("{\"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (a == "--toy") {
      args.toy = true;
    } else if (a == "--expect-digest" && has_value) {
      args.expect_digest = argv[++i];
    } else if (a == "--inject-err") {
      args.inject_err = true;
    } else if (a == "--simulate-cli" && has_value) {
      args.simulate_cli = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      args.trace_path = argv[++i];
    } else {
      return usage();
    }
  }

  void (*run)(const Args&, Tracer&, Outcome&) = nullptr;
  if (args.workload == "table2_advc") {
    run = run_table2_advc;
  } else if (args.workload == "service_mix") {
    run = run_service_mix;
  } else {
    std::cerr << "unknown workload '" << args.workload
              << "' (table2_advc | service_mix)\n";
    return 2;
  }

  Tracer tracer(args.trace);
  Outcome out;
  try {
    run(args, tracer, out);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  if (out.attempted < 1) out.attempted = 1;
  if (args.trace) {
    // How fast the host ran: the end-to-end times of untraced runs are
    // scaled by this slice's reference time over its median (bench.hpp).
    HostCalibration calib;
    for (int k = 0; k < 25; ++k) calib.slice();
    out.set("bench.calib_slice_ms", calib.median_slice_s() * 1e3, "ms");
  }
  if (tracer.enabled() && !args.trace_path.empty()) {
    try {
      tracer.write_chrome(args.trace_path);
      std::cerr << "perfbench: wrote " << tracer.size() << " trace events to "
                << args.trace_path << "\n";
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }
  out.set("error_rate",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  print_json(out);
  return 0;
}
