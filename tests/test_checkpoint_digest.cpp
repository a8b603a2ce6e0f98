// Checkpoint bytes are a file format: refactoring the save/load code
// must not move a single byte. Each case below builds a window-end
// checkpoint (Session::advance_to_measure_close(), the state the
// service's warm cache captures, so the collector, the latency and P²
// accumulators and the workload driver all hold live values) and
// compares its length and a 64-bit FNV-1a digest of its bytes with
// tests/golden/checkpoint_digests.txt. A restore followed by a second
// checkpoint must give the same bytes back, so every field load() reads
// lands where save() took it from.
//
// When the format changes on purpose, the failure message prints the
// line to commit in place of the old one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "sim/session.hpp"

namespace dragonfly {
namespace {

const std::string kSourceDir = DRAGONFLY_SOURCE_DIR;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// "<name> <bytes> <digest as 16 hex digits>", the golden file's format.
std::string digest_line(const std::string& name, std::string_view bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return name + " " + std::to_string(bytes.size()) + " " + hex;
}

std::map<std::string, std::string> golden_lines() {
  std::ifstream in(kSourceDir + "/tests/golden/checkpoint_digests.txt");
  EXPECT_TRUE(in) << "tests/golden/checkpoint_digests.txt is missing";
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

/// The first point of an example spec's sweep.
SimConfig from_spec(const std::string& file,
                    const std::vector<std::pair<std::string, std::string>>&
                        overrides = {}) {
  ExperimentSpec spec =
      ExperimentSpec::parse_file(kSourceDir + "/examples/specs/" + file);
  for (const auto& [key, value] : overrides) spec.apply_kv(key, value);
  spec.finalize();
  return spec.base;
}

/// A small h=2 network with a short fixed window.
SimConfig small(const std::string& routing, const std::string& traffic,
                double load) {
  SimConfig cfg = SimConfig::small(2);
  cfg.routing_name = routing;
  cfg.traffic_name = traffic;
  cfg.load = load;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 600;
  return cfg;
}

SimConfig finalized(SimConfig cfg) {
  cfg.apply_vc_defaults();
  cfg.validate();
  return cfg;
}

std::vector<std::pair<std::string, SimConfig>> cases() {
  SimConfig ring = small("par-mm", "uniform", 0.4);
  ring.workload.mode = "collective";
  ring.workload.collective = "ring";
  ring.workload.participants = 12;
  SimConfig bursty = small("par-mm", "uniform", 0.4);
  bursty.workload.mode = "bursty";
  bursty.workload.burst_cycles = 150;
  bursty.workload.idle_cycles = 250;
  SimConfig piggyback = small("pb-crg", "advc", 0.3);
  piggyback.shards = 2;
  return {
      {"smoke_load0.3", from_spec("smoke.spec", {{"load", "0.3"}})},
      {"jobs_churn", from_spec("jobs_churn.spec")},
      {"collective_ring_h2", finalized(ring)},
      {"bursty_h2", finalized(bursty)},
      {"pb-crg_advc_h2_shards2", finalized(piggyback)},
  };
}

TEST(CheckpointDigest, WindowEndBytesMatchTheGoldenDigests) {
  const std::map<std::string, std::string> golden = golden_lines();
  for (const auto& [name, cfg] : cases()) {
    Session session(cfg);
    ASSERT_TRUE(session.advance_to_measure_close()) << name;
    const std::string bytes = session.checkpoint();
    const std::string line = digest_line(name, bytes);
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden line; add: " << line;
    } else {
      EXPECT_EQ(it->second, line) << "checkpoint bytes moved for " << name;
    }

    // load() is save()'s inverse, field for field.
    EXPECT_EQ(Session::restore(bytes)->checkpoint(), bytes) << name;
  }
}

}  // namespace
}  // namespace dragonfly
