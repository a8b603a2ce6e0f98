// The scenario registries: string-keyed factories, alias resolution,
// unknown-name diagnostics, and — the acceptance bar of the plugin API —
// registering a new routing policy and traffic pattern *from test code*
// and simulating them end-to-end without touching src/.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hpp"

namespace dragonfly {
namespace {

TEST(Registry, BuiltinRoutingsRegisteredUnderPaperNames) {
  const auto keys = routing_registry().keys();
  ASSERT_EQ(keys.size(), 11u);
  for (const char* key :
       {"min", "val-rrg", "val-crg", "val-nrg", "pb-rrg", "pb-crg", "par-rrg",
        "par-crg", "par-mm", "ugal-rrg", "ugal-crg"}) {
    EXPECT_TRUE(routing_registry().contains(key)) << key;
  }
  // The paper's spellings resolve as aliases to the canonical key.
  EXPECT_EQ(routing_registry().resolve("In-Trns-MM"), "par-mm");
  EXPECT_EQ(routing_registry().resolve("MIN"), "min");
  EXPECT_EQ(routing_registry().resolve("Src-CRG"), "pb-crg");
  // Aliases are not listed as keys.
  for (const std::string& key : keys) {
    EXPECT_EQ(routing_registry().resolve(key), key);
  }
}

TEST(Registry, BuiltinTrafficAndArrangements) {
  for (const char* key :
       {"uniform", "adv", "advc", "placement", "shift", "hotspot"}) {
    EXPECT_TRUE(traffic_registry().contains(key)) << key;
  }
  EXPECT_EQ(traffic_registry().resolve("UN"), "uniform");
  EXPECT_EQ(traffic_registry().resolve("ADVc"), "advc");
  EXPECT_TRUE(arrangement_registry().contains("palmtree"));
  EXPECT_TRUE(arrangement_registry().contains("consecutive"));
}

TEST(Registry, UnknownNamesListValidOnes) {
  try {
    routing_registry().resolve("bogus-routing");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus-routing"), std::string::npos);
    EXPECT_NE(msg.find("par-mm"), std::string::npos);
    EXPECT_NE(msg.find("min"), std::string::npos);
  }
  try {
    SimConfig cfg = SimConfig::small(2);
    cfg.traffic_name = "no-such-pattern";
    const DragonflyTopology topo(cfg.topo, make_arrangement(cfg.arrangement));
    make_traffic(topo, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("advc"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(traffic_registry().add(
                   "uniform",
                   [](const Topology& topo, const SimConfig&) {
                     return make_uniform(topo);
                   }),
               std::logic_error);
  EXPECT_THROW(
      traffic_registry().add("brand-new",
                             [](const Topology& topo,
                                const SimConfig&) {
                               return make_uniform(topo);
                             },
                             {"UN"}),  // alias collides with a built-in
      std::logic_error);
}

TEST(Registry, PaperSpellingsResolveToTheirKeys) {
  // Each built-in routing registers exactly one alias, its paper legend
  // spelling (the bench tables label rows with it), and the alias builds
  // the same mechanism as the key.
  const SimConfig cfg = SimConfig::small(2);
  const DragonflyTopology topo(cfg.topo, make_arrangement(cfg.arrangement));
  const std::pair<const char*, const char*> routings[] = {
      {"min", "MIN"},          {"val-rrg", "Obl-RRG"},
      {"val-crg", "Obl-CRG"},  {"val-nrg", "Obl-NRG"},
      {"pb-rrg", "Src-RRG"},   {"pb-crg", "Src-CRG"},
      {"par-rrg", "In-Trns-RRG"}, {"par-crg", "In-Trns-CRG"},
      {"par-mm", "In-Trns-MM"},   {"ugal-rrg", "UGAL-RRG"},
      {"ugal-crg", "UGAL-CRG"}};
  for (const auto& [key, alias] : routings) {
    EXPECT_EQ(routing_registry().resolve(alias), key);
    EXPECT_EQ(routing_registry().aliases_of(key),
              std::vector<std::string>{alias});
    SimConfig by_alias = cfg;
    by_alias.routing_name = alias;
    SimConfig by_key = cfg;
    by_key.routing_name = key;
    EXPECT_EQ(make_routing(topo, by_alias)->name(),
              make_routing(topo, by_key)->name())
        << key;
  }
  EXPECT_EQ(traffic_registry().resolve("UN"), "uniform");
  EXPECT_EQ(traffic_registry().resolve("ADV"), "adv");
  EXPECT_EQ(traffic_registry().resolve("ADVc"), "advc");
  EXPECT_TRUE(traffic_registry().aliases_of("placement").empty());
  EXPECT_TRUE(routing_registry().aliases_of("no-such-key").empty());
}

TEST(Registry, EveryBuiltinKeyRoundTripsThroughStrings) {
  // Every registry key resolves to itself.
  for (const std::string& key : routing_registry().keys()) {
    EXPECT_EQ(routing_registry().resolve(key), key);
  }
  for (const std::string& key : traffic_registry().keys()) {
    EXPECT_EQ(traffic_registry().resolve(key), key);
  }
  for (const std::string& key : arrangement_registry().keys()) {
    EXPECT_EQ(arrangement_registry().resolve(key), key);
    EXPECT_EQ(make_arrangement(key)->name(), key);
  }
}

// --- the acceptance criterion: plugins from user code ----------------------

/// A trivially-custom policy built on the public RoutingAlgorithm
/// surface alone: always take the next minimal hop.
class AlwaysMinimal final : public RoutingAlgorithm {
 public:
  using RoutingAlgorithm::RoutingAlgorithm;
  std::string name() const override { return "test-always-min"; }
  void on_inject(Router& source, Packet& pkt, Rng& rng) override {
    (void)source;
    (void)rng;
    pkt.phase = Phase::kCommitted;
  }
  RoutingDecision route(Router& at, Packet& pkt) override {
    return minimal_decision(at, pkt);
  }
};

class NearestNeighbor final : public TrafficPattern {
 public:
  explicit NearestNeighbor(const Topology& topo) : topo_(topo) {}
  std::string name() const override { return "test-nearest"; }
  NodeId destination(NodeId src, Rng& rng) const override {
    (void)rng;
    return (src + 1) % topo_.num_nodes();
  }

 private:
  const Topology& topo_;
};

TEST(Registry, CustomRoutingAndPatternSimulateEndToEnd) {
  if (!routing_registry().contains("test-always-min")) {
    routing_registry().add(
        "test-always-min",
        [](const Topology& topo, const SimConfig& cfg)
            -> std::unique_ptr<RoutingAlgorithm> {
          return std::make_unique<AlwaysMinimal>(topo, cfg);
        });
  }
  if (!traffic_registry().contains("test-nearest")) {
    traffic_registry().add(
        "test-nearest",
        [](const Topology& topo, const SimConfig&) {
          return std::make_unique<NearestNeighbor>(topo);
        });
  }

  SimConfig cfg = SimConfig::small(2);
  cfg.routing_name = "test-always-min";
  cfg.traffic_name = "test-nearest";
  cfg.load = 0.2;
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 2'000;
  cfg.apply_vc_defaults();
  EXPECT_NO_THROW(cfg.validate());

  // Stock entry point, zero src/ edits: the Network resolves both names.
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.delivered_packets, 0);
  // Nearest-neighbour traffic is mostly intra-router/intra-group:
  // accepted load should track offered closely even under MIN.
  EXPECT_NEAR(r.accepted_load, 0.2, 0.05);

  // And the declarative layer reaches it too.
  ExperimentSpec spec;
  spec.base = cfg;
  spec.seeds = 1;
  spec.finalize();
  const auto results = run_spec(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.front().offered_load, 0.2);
}

TEST(Registry, ApplyVcDefaultsForCustomRouting) {
  SimConfig cfg = SimConfig::small(2);
  cfg.routing_name = "some-custom-routing";  // not registered: conservative
  cfg.apply_vc_defaults();
  EXPECT_EQ(cfg.local_vcs, 4);
  cfg.routing_name = "par-mm";
  cfg.apply_vc_defaults();
  EXPECT_EQ(cfg.local_vcs, 3);
}

}  // namespace
}  // namespace dragonfly
