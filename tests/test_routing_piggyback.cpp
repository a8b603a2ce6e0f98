#include "routing/piggyback.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "router/router.hpp"
#include "sim_test_util.hpp"

namespace dragonfly {
namespace {

using testutil::expect_identical;
using testutil::quick;
using testutil::run_checked;

/// PiggyBack wrapped so that every in-step refresh is checked: after the
/// wrapped refresh() runs, the probe recomputes the whole board from
/// scratch (Router::output_occupancy and the group-mean rule) and counts
/// the bits that disagree. Registered as "pb-probe-rrg"/"pb-probe-crg";
/// it routes exactly like the mechanism it wraps.
class ProbeRouting final : public RoutingAlgorithm {
 public:
  ProbeRouting(const Topology& topo, const SimConfig& cfg,
               MisroutePolicy policy)
      : RoutingAlgorithm(topo, cfg), pb_(topo, cfg, policy) {}

  std::string name() const override { return "probe-" + pb_.name(); }
  void on_inject(Router& source, Packet& pkt, Rng& rng) override {
    pb_.on_inject(source, pkt, rng);
  }
  RoutingDecision route(Router& at, Packet& pkt) override {
    return pb_.route(at, pkt);
  }
  void on_grant(Router& at, Packet& pkt, const RoutingDecision& d) override {
    pb_.on_grant(at, pkt, d);
  }
  void on_arrival(Router& at, Packet& pkt, GroupId previous_group) override {
    pb_.on_arrival(at, pkt, previous_group);
  }
  void refresh(std::span<const std::unique_ptr<Router>> routers) override {
    pb_.refresh(routers);
    ++refreshes;
    for (GroupId g = 0; g < topo_.num_groups(); ++g) {
      double mean = 0.0;
      std::vector<double> occ;
      for (int j = 0; j < topo_.routers_per_group(); ++j) {
        const RouterId r = topo_.router_id(g, j);
        for (int i = 0; i < topo_.router_link_count(r); ++i) {
          occ.push_back(routers[static_cast<std::size_t>(r)]->output_occupancy(
              topo_.router_link(r, i).port));
          mean += occ.back();
        }
      }
      if (topo_.group_link_count(g) > 0) {
        mean /= static_cast<double>(topo_.group_link_count(g));
      }
      std::size_t next = 0;
      for (int j = 0; j < topo_.routers_per_group(); ++j) {
        const RouterId r = topo_.router_id(g, j);
        for (int i = 0; i < topo_.router_link_count(r); ++i) {
          const bool want = occ[next++] > cfg_.pb_threshold_global * mean;
          const int k =
              topo_.global_index_of_port(topo_.router_link(r, i).port);
          if (pb_.global_link_saturated(r, k) != want) ++mismatches;
          if (want) ++saturated_bits;
        }
      }
    }
  }

  std::int64_t refreshes = 0;
  std::int64_t mismatches = 0;
  std::int64_t saturated_bits = 0;

 private:
  PiggybackRouting pb_;
};

const RoutingRegistry::Registrar kRegisterProbeRrg{
    routing_registry(), "pb-probe-rrg",
    [](const Topology& topo, const SimConfig& cfg)
        -> std::unique_ptr<RoutingAlgorithm> {
      return std::make_unique<ProbeRouting>(topo, cfg, MisroutePolicy::kRrg);
    }};
const RoutingRegistry::Registrar kRegisterProbeCrg{
    routing_registry(), "pb-probe-crg",
    [](const Topology& topo, const SimConfig& cfg)
        -> std::unique_ptr<RoutingAlgorithm> {
      return std::make_unique<ProbeRouting>(topo, cfg, MisroutePolicy::kCrg);
    }};

TEST(PiggybackRouting, RefreshMatchesAFromScratchBoard) {
  // The change-driven refresh recomputes only the links whose router
  // marked them; after every cycle's refresh the board must equal a
  // from-scratch recompute, bit for bit, while the bits actually fire.
  SimConfig rrg_adv = quick("pb-probe-rrg", "adv", 0.35);
  SimConfig crg_advc = quick("pb-probe-crg", "advc", 0.3, 3);
  // Trimmed shape: 8 of 10 groups, so some global slots are dead.
  SimConfig trimmed = quick("pb-probe-crg", "advc", 0.3);
  trimmed.apply_kv("topology", "dfly:2,3,3,8");
  for (const SimConfig& cfg : {rrg_adv, crg_advc, trimmed}) {
    const std::string label = cfg.routing_name + "/" + cfg.traffic_name +
                              " h=" + std::to_string(cfg.topo.h) + " " +
                              cfg.topology;
    Network net(cfg);
    const auto& probe = dynamic_cast<const ProbeRouting&>(net.routing());
    for (int i = 0; i < 1'500; ++i) net.step();
    EXPECT_EQ(probe.refreshes, 1'500) << label;
    EXPECT_EQ(probe.mismatches, 0) << label;
    EXPECT_GT(probe.saturated_bits, 0) << label;
  }
  // The trimmed shape really has dead slots.
  Network net(trimmed);
  const Topology& topo = net.topology();
  int connected = 0;
  for (GroupId g = 0; g < topo.num_groups(); ++g) {
    connected += topo.group_link_count(g);
  }
  EXPECT_LT(connected, topo.num_routers() * topo.global_slots());
}

TEST(PiggybackRouting, RestoredSessionRebuildsTheBoard) {
  // The change marks are not checkpointed: a restored session must
  // rebuild the whole board on its first refresh and finish with the
  // uninterrupted run's result.
  const SimConfig cfg = quick("pb-crg", "advc", 0.3);
  const SimResult uninterrupted = run_simulation(cfg);

  Session original(cfg);
  original.advance_to(SessionPhase::kMeasure);
  original.step(cfg.measure_cycles / 2);
  ASSERT_EQ(original.phase(), SessionPhase::kMeasure);
  std::stringstream stream;
  original.checkpoint(stream);
  const SimResult restored = Session::restore(stream)->run();
  expect_identical(uninterrupted, restored);
}

TEST(PiggybackRouting, BehavesLikeMinimalUnderUniformLowLoad) {
  // With no saturated links, PB always picks MIN: same latency profile.
  const SimResult pb = run_checked(quick("pb-rrg", "uniform", 0.1));
  const SimResult min = run_checked(quick("min", "uniform", 0.1));
  EXPECT_NEAR(pb.avg_latency, min.avg_latency, 20.0);
  EXPECT_LT(pb.components.misroute, 15.0);
  EXPECT_NEAR(pb.avg_global_hops, min.avg_global_hops, 0.1);
}

TEST(PiggybackRouting, DivertsUnderAdversarialTraffic) {
  // ADV saturates the single minimal global link; the saturation bit
  // must fire and PB must route a large fraction through Valiant paths.
  const SimResult pb = run_checked(quick("pb-rrg", "adv", 0.35));
  EXPECT_GT(pb.avg_global_hops, 1.5);  // mostly 2-global-hop paths
  // And it must clearly beat MIN's 1/(a*p) cap.
  const SimConfig cfg = quick("min", "adv", 0.35);
  const double min_cap =
      1.0 / (static_cast<double>(cfg.topo.a) * static_cast<double>(cfg.topo.p));
  EXPECT_GT(pb.accepted_load, 2.0 * min_cap);
}

TEST(PiggybackRouting, CommitsAtInjectionNoMidRouteSwitch) {
  // Once injected, PB packets have exactly lgl (<=3 links) or lglgl
  // (<=5 links) shapes: global hops are 1 or 2, never more.
  const SimResult pb = run_checked(quick("pb-crg", "advc", 0.3));
  EXPECT_LE(pb.avg_global_hops, 2.0);
  EXPECT_GE(pb.avg_global_hops, 1.0);
}

TEST(PiggybackRouting, SaturationBitsComputedOnBoard) {
  // Build a network directly and inspect the board after refresh under
  // heavy adversarial load: the bottleneck router's minimal link should
  // be flagged; an idle network should have no flags.
  SimConfig cfg = quick("pb-rrg", "adv", /*load=*/0.4);
  Network net(cfg);
  auto& pb = dynamic_cast<PiggybackRouting&>(net.routing());

  // Idle network: no saturation anywhere.
  for (RouterId r = 0; r < net.num_routers(); ++r) {
    for (int k = 0; k < cfg.topo.h; ++k) {
      EXPECT_FALSE(pb.global_link_saturated(r, k));
    }
  }

  // ADV+1: the minimal exit link of group 0 towards group 1 must be
  // flagged a substantial share of the time. (The relative rule is
  // self-balancing — diversion raises the group mean back — so the bit
  // oscillates rather than latching.)
  const auto& topo = net.topology();
  const RouterId exit = topo.exit_router(0, 1);
  const int k = topo.global_index_of_port(topo.exit_port(0, 1));
  for (int i = 0; i < 1'000; ++i) net.step();
  int flagged = 0;
  for (int i = 0; i < 1'000; ++i) {
    net.step();
    flagged += pb.global_link_saturated(exit, k) ? 1 : 0;
  }
  EXPECT_GT(flagged, 20);
  EXPECT_LT(flagged, 1000);  // self-balancing: never latched permanently
}

TEST(PiggybackRouting, AdvcPartialFailureSendsTrafficMinimally) {
  // Paper Sec. V-A: under ADVc PB fails to flag the bottleneck links
  // reliably, so a sizable share still routes minimally: global hops
  // clearly below the all-Valiant value of oblivious routing.
  const SimResult pb = run_checked(quick("pb-rrg", "advc", 0.35));
  const SimResult obl = run_checked(quick("val-rrg", "advc", 0.35));
  EXPECT_LT(pb.avg_global_hops, obl.avg_global_hops - 0.1);
}

TEST(PiggybackRouting, NamesIdentifyPolicy) {
  const SimConfig cfg = quick("pb-rrg", "uniform", 0.1);
  const DragonflyTopology topo(cfg.topo, make_arrangement(cfg.arrangement));
  PiggybackRouting rrg(topo, cfg, MisroutePolicy::kRrg);
  PiggybackRouting crg(topo, cfg, MisroutePolicy::kCrg);
  EXPECT_EQ(rrg.name(), "Src-RRG");
  EXPECT_EQ(crg.name(), "Src-CRG");
}

TEST(PiggybackTwoGroups, RrgFallsBackToMinimalInsteadOfSpinning) {
  // G=2 (reachable through trimmed dragonflies and flatbfly:2,3): no
  // intermediate group exists, so a saturated minimal path must fall
  // back to MIN instead of looping over the group draw forever.
  SimConfig cfg;
  cfg.apply_kv("topology", "dfly:2,2,2,2");
  cfg.routing_name = "pb-rrg";
  cfg.traffic_name = "adv";
  cfg.load = 0.9;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1'200;
  cfg.apply_vc_defaults();
  SimResult r;
  ASSERT_NO_THROW(r = run_simulation(cfg));
  EXPECT_GT(r.delivered_packets, 0);
}

}  // namespace
}  // namespace dragonfly
