// In-transit adaptive routing (paper Sec. II-C): PAR-style global
// misrouting decided at injection or after hops inside the source group,
// plus OLM-style opportunistic local misrouting in the intermediate and
// destination groups.
//
// Every cycle the head packet attempts its minimal output; when that
// output's reserved occupancy exceeds the congestion threshold (Table I:
// 43%), the packet tries to commit a non-minimal path through one of the
// global links permitted by the misrouting policy:
//   In-Trns-RRG — any global link of the current group;
//   In-Trns-CRG — the current router's own global links;
//   In-Trns-MM  — CRG when deciding at the source router (injection),
//                 NRG for packets already in transit (Sec. II-B).
// A candidate is eligible only if the output it uses at this router is
// itself below the threshold; with no eligible candidate the packet keeps
// requesting the minimal output (this is what starves the ADVc bottleneck
// router: its minimal and permitted non-minimal global links coincide).
#pragma once

#include "routing/policy.hpp"
#include "routing/routing.hpp"

namespace dragonfly {

enum class InTransitVariant : std::uint8_t { kRrg, kCrg, kMm };

const char* to_string(InTransitVariant variant);

/// True when `name` (registry key or alias) selects one of the three
/// in-transit mechanisms: par-rrg, par-crg, par-mm. These run with 3
/// local VCs instead of 4 (Table I; SimConfig::apply_vc_defaults).
bool is_in_transit_routing(const std::string& name);

class InTransitRouting final : public RoutingAlgorithm {
 public:
  InTransitRouting(const Topology& topo, const SimConfig& cfg,
                   InTransitVariant variant)
      : RoutingAlgorithm(topo, cfg), variant_(variant) {}

  std::string name() const override {
    return std::string("In-Trns-") + to_string(variant_);
  }

  void on_inject(Router& source, Packet& pkt, Rng& rng) override;
  RoutingDecision route(Router& at, Packet& pkt) override;
  /// Congestion is read from local credit counters at route() time; no
  /// per-cycle global state, so the kernel skips refresh() entirely.
  bool wants_refresh() const override { return false; }

 private:
  /// Policy in force for a packet at `at` (MM switches on whether the
  /// packet is still in its injection queue).
  MisroutePolicy policy_for(const Router& at, const Packet& pkt) const;

  RoutingDecision source_flex(Router& at, Packet& pkt);
  RoutingDecision committed(Router& at, Packet& pkt);

  InTransitVariant variant_;
};

}  // namespace dragonfly
