// PiggyBack (PB) source-based adaptive routing (Jiang et al., ISCA 2009;
// paper Sec. II-C).
//
// At injection the source router chooses between MIN and a Valiant-style
// non-minimal path, based on the saturation state of the minimal path:
//  * the minimal *global* link's saturation bit, shared by all routers of
//    the group through an in-group broadcast (the "piggybacked" ECN);
//  * the occupancy of the local output towards the exit router, when the
//    minimal path starts with a local hop.
//
// Saturation rule (see DESIGN.md): a global link is saturated iff its
// occupancy (Router::output_occupancy) exceeds T times the mean occupancy
// over all connected global links of its router's GROUP (T =
// pb_threshold_global). The local leg is judged against the router's own
// local outputs instead (T = pb_threshold_local). The group-relative rule
// is self-balancing: under ADVc the bottleneck router's links stand out,
// PB diverts, the Valiant traffic raises the other links and so the mean,
// and the bits drop again; the bits oscillate, and a sizable share of the
// traffic keeps routing minimally, as in the paper.
//
// The broadcast is change-driven: a router marks a global port
// (HotState::port_marks) wherever its queue occupancy or credits change,
// and refresh() recomputes only the marked links and re-thresholds only
// the groups that hold one. Every occupancy, mean and bit equals what a
// from-scratch pass gives.
#pragma once

#include <vector>

#include "routing/policy.hpp"
#include "routing/routing.hpp"

namespace dragonfly {

class PiggybackRouting final : public RoutingAlgorithm {
 public:
  PiggybackRouting(const Topology& topo, const SimConfig& cfg,
                   MisroutePolicy policy);

  std::string name() const override {
    return std::string("Src-") + to_string(policy_);
  }

  void on_inject(Router& source, Packet& pkt, Rng& rng) override;
  RoutingDecision route(Router& at, Packet& pkt) override;
  void refresh(std::span<const std::unique_ptr<Router>> routers) override;
  /// The in-group broadcast really is per-cycle global state.
  bool wants_refresh() const override { return true; }

  /// Saturation bit of global link k of router `r` (for tests).
  bool global_link_saturated(RouterId r, int k) const {
    return saturated_[static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(topo_.global_slots()) +
                      static_cast<std::size_t>(k)] != 0;
  }

 private:
  /// Index of a global link in saturated_/occupancy_: router * h + k.
  std::size_t slot(const GlobalLinkRef& link) const {
    return static_cast<std::size_t>(link.router) *
               static_cast<std::size_t>(topo_.global_slots()) +
           static_cast<std::size_t>(topo_.global_index_of_port(link.port));
  }
  bool minimal_path_saturated(const Router& at, const Packet& pkt) const;
  RoutingDecision valiant_decision(Router& at, Packet& pkt);

  MisroutePolicy policy_;
  /// Saturation bits, indexed [router * h + k]; refresh() rewrites a
  /// group's bits in the cycles where one of its links changed (we model
  /// the in-group broadcast as instantaneous; the real mechanism
  /// piggybacks the bits on regular traffic).
  std::vector<char> saturated_;
  /// Cached per-link occupancy, same indexing; a link's entry is
  /// recomputed when its router marks it. Dead slots stay at zero.
  std::vector<double> occupancy_;
};

}  // namespace dragonfly
