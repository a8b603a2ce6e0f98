// SimConfig canonical identity: the hash that keys the sweep service's
// result cache. Three properties under test, all load-bearing for
// cache correctness:
//   * sensitivity  — every knob in the kv table perturbs the hash
//     (a missed knob would alias two different experiments onto one
//     cache entry), with a coverage check tied to SimConfig::kv_keys()
//     so a newly added knob fails this test until it gets a
//     perturbation;
//   * invariance   — application order and spelling variants of the
//     same physical config ("topology=dfly:2,4,2" vs "p/a/h", default
//     vs explicitly spelled default) hash identically;
//   * refinement   — warm_hash ignores exactly the measurement-window
//     knobs, and warm_incompatibility diagnoses everything else.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "sim/config.hpp"

namespace dragonfly {
namespace {

/// One hash-perturbing assignment per config knob. The value must be
/// valid on top of the base config and different from the base value.
const std::map<std::string, std::string>& perturbations() {
  static const std::map<std::string, std::string> kPerturb = {
      {"h", "3"},
      {"p", "3"},
      {"a", "5"},
      {"groups", "5"},
      {"topology", "flatbfly:4,2"},
      {"arrangement", "consecutive"},
      {"routing", "par-mm"},
      {"traffic", "advc"},
      {"local_latency", "7"},
      {"global_latency", "19"},
      {"pipeline_latency", "4"},
      {"packet_size", "16"},
      {"output_queue_size", "64"},
      {"local_input_buffer", "77"},
      {"global_input_buffer", "133"},
      {"global_vcs", "4"},
      {"local_vcs", "5"},
      {"injection_vcs", "6"},
      {"allocator_iterations", "2"},
      {"max_grants_per_output", "3"},
      {"max_grants_per_input", "3"},
      {"transit_priority", "off"},
      {"age_arbitration", "on"},
      {"intransit_threshold", "0.9"},
      {"pb_threshold_local", "0.9"},
      {"pb_threshold_global", "0.9"},
      {"adversarial_offset", "2"},
      {"placement_first_group", "1"},
      {"placement_num_groups", "2"},
      {"shift_offset_nodes", "5"},
      {"hotspot_fraction", "0.5"},
      {"hotspot_node", "3"},
      {"load", "0.77"},
      {"node_queue_capacity", "9"},
      {"warmup_cycles", "123"},
      {"measure_cycles", "456"},
      {"sim.paranoid", "100"},
      {"sim.kernel", "scan"},
      {"sim.shards", "2"},
      {"seed", "999"},
      {"stop.mode", "ci"},
      {"stop.rel_hw", "0.2"},
      {"stop.batches", "7"},
      {"stop.batch_cycles", "512"},
      {"phases", "ramp:100@load=0.5"},
      {"drain.max_cycles", "50"},
      {"stream.interval", "250"},
      {"workload.mode", "bursty"},
      {"workload.collective", "tree"},
      {"workload.participants", "8"},
      {"workload.burst_cycles", "321"},
      {"workload.idle_cycles", "654"},
      {"workload.jobs", "6"},
      {"workload.arrival_cycles", "777"},
      {"workload.job_cycles", "3333"},
      {"workload.job_routers", "2"},
      {"workload.placement", "random"},
      {"workload.mix", "uniform,shift"},
  };
  return kPerturb;
}

SimConfig base_config() { return SimConfig::small(2); }

TEST(CanonicalHash, EveryKnobPerturbsTheHash) {
  const SimConfig base = base_config();
  const std::string base_hash = base.canonical_hash();
  for (const auto& [key, value] : perturbations()) {
    SimConfig cfg = base_config();
    ASSERT_TRUE(cfg.try_apply_kv(key, value)) << key;
    EXPECT_NE(cfg.canonical_hash(), base_hash)
        << "knob \"" << key << "=" << value
        << "\" did not change the canonical hash — the result cache "
           "would alias two different experiments";
  }
}

/// Coverage guard: a knob added to the kv table without a perturbation
/// here fails loudly. This is what keeps cache-keying honest as the
/// knob table grows.
TEST(CanonicalHash, PerturbationTableCoversEveryKnob) {
  for (const std::string& key : SimConfig::kv_keys()) {
    EXPECT_TRUE(perturbations().count(key) == 1)
        << "config key \"" << key
        << "\" has no hash perturbation in test_canonical_hash.cpp — add "
           "one";
  }
  // And the inverse: no stale entries for removed knobs.
  const std::vector<std::string> keys = SimConfig::kv_keys();
  for (const auto& [key, value] : perturbations()) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), key) != keys.end())
        << "perturbation for unknown key \"" << key << "\"";
  }
}

/// canonical_kv() itself must cover the knob table, sorted by key, so
/// no knob is silently left out of the hash.
TEST(CanonicalHash, CanonicalKvCoversEveryKnob) {
  const SimConfig base = base_config();
  std::vector<std::pair<std::string, std::string>> kv;
  ASSERT_NO_THROW(kv = base.canonical_kv());
  EXPECT_EQ(kv.size(), SimConfig::kv_keys().size());
  EXPECT_TRUE(std::is_sorted(
      kv.begin(), kv.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

TEST(CanonicalHash, ApplicationOrderDoesNotMatter) {
  SimConfig ab = base_config();
  ASSERT_TRUE(ab.try_apply_kv("routing", "par-mm"));
  ASSERT_TRUE(ab.try_apply_kv("load", "0.6"));
  SimConfig ba = base_config();
  ASSERT_TRUE(ba.try_apply_kv("load", "0.6"));
  ASSERT_TRUE(ba.try_apply_kv("routing", "par-mm"));
  EXPECT_EQ(ab.canonical_hash(), ba.canonical_hash());
}

TEST(CanonicalHash, TopologySpellingVariantsHashIdentically) {
  // "topology=dfly:2,4,2" and the p/a/h knobs describe one physical
  // machine; the canonical form normalizes both through the parsed
  // shape.
  SimConfig spec = base_config();
  ASSERT_TRUE(spec.try_apply_kv("topology", "dfly:2,4,2"));
  SimConfig knobs = base_config();
  ASSERT_TRUE(knobs.try_apply_kv("p", "2"));
  ASSERT_TRUE(knobs.try_apply_kv("a", "4"));
  ASSERT_TRUE(knobs.try_apply_kv("h", "2"));
  EXPECT_EQ(spec.canonical_hash(), knobs.canonical_hash());

  // An explicit canonical group count spells the same machine too.
  SimConfig with_groups = base_config();
  ASSERT_TRUE(with_groups.try_apply_kv("topology", "dfly:2,4,2,9"));
  EXPECT_EQ(spec.canonical_hash(), with_groups.canonical_hash());

  // A trimmed group count is a different machine.
  SimConfig trimmed = base_config();
  ASSERT_TRUE(trimmed.try_apply_kv("topology", "dfly:2,4,2,5"));
  EXPECT_NE(spec.canonical_hash(), trimmed.canonical_hash());
}

TEST(CanonicalHash, ExplicitDefaultSpellingHashesLikeTheDefault) {
  SimConfig implicit = base_config();
  implicit.apply_vc_defaults();

  SimConfig explicit_vcs = base_config();
  ASSERT_TRUE(explicit_vcs.try_apply_kv(
      "global_vcs", std::to_string(implicit.global_vcs)));
  ASSERT_TRUE(explicit_vcs.try_apply_kv(
      "local_vcs", std::to_string(implicit.local_vcs)));
  ASSERT_TRUE(explicit_vcs.try_apply_kv(
      "injection_vcs", std::to_string(implicit.injection_vcs)));
  explicit_vcs.apply_vc_defaults();

  // vcs_explicit is bookkeeping about *how* the value was set, not a
  // physical knob; the canonical form must not see it.
  EXPECT_EQ(implicit.canonical_hash(), explicit_vcs.canonical_hash());

  const SimConfig plain = base_config();
  SimConfig spelled_seed = base_config();
  ASSERT_TRUE(spelled_seed.try_apply_kv("seed", std::to_string(plain.seed)));
  EXPECT_EQ(plain.canonical_hash(), spelled_seed.canonical_hash());
}

/// Literal cache keys. The service's result and warm-start caches, and
/// the `RESULT <hash>` bytes the benchmark's committed digests cover,
/// key on these exact values: a change to the knob table's code must
/// leave them where they are, and a deliberate change to the canonical
/// form has to update them here.
TEST(CanonicalHash, PinnedCacheKeys) {
  SimConfig every = base_config();
  for (const auto& [key, value] : perturbations()) {
    ASSERT_TRUE(every.try_apply_kv(key, value)) << key;
  }
  const struct {
    const char* name;
    SimConfig cfg;
    const char* canonical;
    const char* warm;
  } cases[] = {
      {"small(2)", SimConfig::small(2), "326a7f419a92c55d",
       "f45872f45cd584d9"},
      {"paper()", SimConfig::paper(), "c085ed1b0ff2b402", "3d2e7a8cb0e89364"},
      {"every perturbation", every, "c2a19c9b94bdc389", "377f848d0331d05c"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.cfg.canonical_hash(), c.canonical) << c.name;
    EXPECT_EQ(c.cfg.warm_hash(), c.warm) << c.name;
  }
}

/// The checkpoint's config section carries every knob: a config
/// restored from it hashes and re-serializes identically.
TEST(CanonicalHash, CheckpointSectionRoundTripsEveryKnob) {
  std::vector<SimConfig> configs{base_config()};
  SimConfig every = base_config();
  for (const auto& [key, value] : perturbations()) {
    SimConfig one = base_config();
    ASSERT_TRUE(one.try_apply_kv(key, value)) << key;
    configs.push_back(one);
    ASSERT_TRUE(every.try_apply_kv(key, value)) << key;
  }
  configs.push_back(every);
  for (const SimConfig& cfg : configs) {
    CheckpointWriter writer;
    cfg.write_to(writer);
    SimConfig copy;
    CheckpointReader reader(writer.bytes());
    copy.read_from(reader);
    EXPECT_EQ(copy.canonical_hash(), cfg.canonical_hash());
    CheckpointWriter rewriter;
    copy.write_to(rewriter);
    EXPECT_EQ(rewriter.bytes(), writer.bytes());
  }
}

TEST(CanonicalHash, HashIsStableAcrossCopies) {
  const SimConfig a = base_config();
  const SimConfig b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  EXPECT_EQ(a.canonical_hash(), a.canonical_hash());
}

// --- warm-start refinement keys ---------------------------------------------

TEST(CanonicalHash, WarmHashIgnoresExactlyTheRefinementKeys) {
  const SimConfig base = base_config();
  for (const auto& [key, value] : perturbations()) {
    SimConfig cfg = base_config();
    ASSERT_TRUE(cfg.try_apply_kv(key, value)) << key;
    if (SimConfig::refinement_key(key)) {
      EXPECT_EQ(cfg.warm_hash(), base.warm_hash())
          << "refinement knob \"" << key
          << "\" must not invalidate warm-start checkpoints";
      EXPECT_NE(cfg.canonical_hash(), base.canonical_hash());
    } else {
      EXPECT_NE(cfg.warm_hash(), base.warm_hash())
          << "physical knob \"" << key
          << "\" must key a different warm-start family";
    }
  }
}

TEST(CanonicalHash, WarmIncompatibilityDiagnosesThePhysicalKnob) {
  const SimConfig base = base_config();

  SimConfig refined = base_config();
  ASSERT_TRUE(refined.try_apply_kv("measure_cycles", "456"));
  ASSERT_TRUE(refined.try_apply_kv("stop.mode", "ci"));
  EXPECT_EQ(base.warm_incompatibility(refined), "");

  SimConfig incompatible = base_config();
  ASSERT_TRUE(incompatible.try_apply_kv("routing", "par-mm"));
  const std::string why = base.warm_incompatibility(incompatible);
  ASSERT_NE(why, "");
  EXPECT_NE(why.find("routing"), std::string::npos) << why;
}

TEST(CanonicalHash, ApplyRefinementsAdoptsOnlyRefinementKeys) {
  SimConfig checkpointed = base_config();
  SimConfig request = base_config();
  ASSERT_TRUE(request.try_apply_kv("measure_cycles", "4444"));
  ASSERT_TRUE(request.try_apply_kv("stop.mode", "ci"));
  ASSERT_TRUE(request.try_apply_kv("stop.rel_hw", "0.01"));
  ASSERT_TRUE(request.try_apply_kv("stream.interval", "100"));

  checkpointed.apply_refinements(request);
  EXPECT_EQ(checkpointed.measure_cycles, 4444);
  EXPECT_EQ(checkpointed.stop.mode, StopMode::kCi);
  EXPECT_EQ(checkpointed.stop.rel_hw, 0.01);
  EXPECT_EQ(checkpointed.stream_interval, 100);
  EXPECT_EQ(checkpointed.canonical_hash(), request.canonical_hash());
}

}  // namespace
}  // namespace dragonfly
