#include "routing/piggyback.hpp"

#include "router/router.hpp"

namespace dragonfly {

PiggybackRouting::PiggybackRouting(const Topology& topo,
                                   const SimConfig& cfg,
                                   MisroutePolicy policy)
    : RoutingAlgorithm(topo, cfg),
      policy_(policy),
      saturated_(static_cast<std::size_t>(topo.num_routers()) *
                     static_cast<std::size_t>(topo.global_slots()),
                 0),
      occupancy_(saturated_.size(), 0.0) {}

void PiggybackRouting::refresh(
    std::span<const std::unique_ptr<Router>> routers) {
  const int a = topo_.routers_per_group();
  const int words = routers.front()->hot().layout().port_mask_words();
  // Only the connected global links are visited: dead slots of trimmed
  // shapes stay at zero and are never consulted (they appear in no
  // minimal route and no candidate set).
  for (GroupId g = 0; g < topo_.num_groups(); ++g) {
    // Pass 1: recompute the links whose router marked them (their queue
    // occupancy or credits moved since the last refresh).
    bool changed = false;
    const RouterId first = topo_.router_id(g, 0);
    for (RouterId r = first; r < first + a; ++r) {
      Router& router = *routers[static_cast<std::size_t>(r)];
      std::uint64_t* marks = router.port_marks();
      bool any = false;
      for (int w = 0; w < words; ++w) any = any || marks[w] != 0;
      if (!any) continue;
      for (int i = 0; i < topo_.router_link_count(r); ++i) {
        const GlobalLinkRef& link = topo_.router_link(r, i);
        if (((marks[link.port >> 6] >> (link.port & 63)) & 1) == 0) continue;
        occupancy_[slot(link)] = router.output_occupancy(link.port);
        changed = true;
      }
      for (int w = 0; w < words; ++w) marks[w] = 0;
    }
    // A group without a moved link keeps its mean and its bits.
    if (!changed) continue;
    // Pass 2: the group's mean over its connected links, summed in
    // enumeration (router, slot) order so the double is exactly that of
    // a from-scratch pass; a link is saturated when it exceeds T times
    // the mean. This is self-balancing (partial diversion raises the
    // mean back), which reproduces the paper's partial-failure
    // behaviour under ADVc.
    const int links = topo_.group_link_count(g);
    double mean = 0.0;
    for (int i = 0; i < links; ++i) {
      mean += occupancy_[slot(topo_.group_link(g, i))];
    }
    if (links > 0) mean /= static_cast<double>(links);
    const double threshold = cfg_.pb_threshold_global * mean;
    for (int i = 0; i < links; ++i) {
      const std::size_t s = slot(topo_.group_link(g, i));
      saturated_[s] = occupancy_[s] > threshold ? 1 : 0;
    }
  }
}

void PiggybackRouting::on_inject(Router& source, Packet& pkt, Rng& rng) {
  (void)source;
  (void)rng;
  // The MIN/VAL choice is made while the packet heads the injection
  // queue (route()), with up-to-date congestion state.
  pkt.phase = Phase::kSourceFlex;
}

bool PiggybackRouting::minimal_path_saturated(const Router& at,
                                              const Packet& pkt) const {
  // The global link the packet's own minimal route crosses (for
  // canonical dragonflies: the unique link between the two groups).
  const GlobalLinkRef link =
      topo_.minimal_global_link(at.id(), topo_.router_of_node(pkt.dst));
  const RouterId exit = link.router;

  // Saturation bit of the minimal global link (piggybacked in-group state).
  if (saturated_[slot(link)] != 0) return true;

  // Local leg towards the exit router, judged against this router's own
  // local outputs (T = pb_threshold_local).
  if (exit != at.id()) {
    const PortId local = topo_.local_port_to(at.id(), exit);
    const double mean = at.mean_local_occupancy();
    if (at.output_occupancy(local) > cfg_.pb_threshold_local * mean &&
        at.output_occupancy(local) > 0.0) {
      return true;
    }
  }
  return false;
}

RoutingDecision PiggybackRouting::valiant_decision(Router& at, Packet& pkt) {
  const GroupId src_group = at.group();
  const GroupId dst_group = topo_.group_of_node(pkt.dst);

  GlobalLinkRef chosen;
  if (policy_ == MisroutePolicy::kRrg) {
    // Random intermediate group anywhere (excluding source and
    // destination: those degenerate to the minimal path PB just
    // rejected). With fewer than 3 groups no such group exists — route
    // minimally (reachable since trimmed-G dragonflies and small
    // flattened butterflies joined the topology set).
    if (topo_.num_groups() < 3) return minimal_decision(at, pkt);
    GroupId g = dst_group;
    while (g == dst_group || g == src_group) {
      g = static_cast<GroupId>(
          at.rng().below(static_cast<std::uint64_t>(topo_.num_groups())));
    }
    const GlobalLinkRef link = topo_.exit_link(at.id(), g);
    chosen.target = g;
    chosen.router = link.router;
    chosen.port = link.port;
  } else {
    const auto picked =
        pick_candidate(topo_, at.id(), policy_, at.rng(), dst_group,
                       [](const GlobalLinkRef&) { return true; });
    if (!picked) return minimal_decision(at, pkt);  // h==1 corner case
    chosen = *picked;
  }

  RoutingDecision d = toward_link(at, pkt, chosen.router, chosen.port);
  d.commit_nonminimal = true;
  d.intermediate_group = chosen.target;
  d.nm_exit_router = chosen.router;
  d.nm_exit_port = chosen.port;
  return d;
}

RoutingDecision PiggybackRouting::route(Router& at, Packet& pkt) {
  switch (pkt.phase) {
    case Phase::kToIntermediate:
      return toward_link(at, pkt, pkt.nm_exit_router, pkt.nm_exit_port);
    case Phase::kCommitted:
      return minimal_decision(at, pkt);
    case Phase::kSourceFlex:
      break;
  }

  // Source-adaptive decision, taken at the injection port of the source
  // router (re-evaluated until granted; committed at grant).
  const GroupId dst_group = topo_.group_of_node(pkt.dst);
  if (dst_group == at.group() || !minimal_path_saturated(at, pkt)) {
    RoutingDecision d = minimal_decision(at, pkt);
    d.commit_minimal = true;
    return d;
  }
  return valiant_decision(at, pkt);
}

namespace {
RoutingRegistry::Factory piggyback_factory(MisroutePolicy policy) {
  return [policy](const Topology& topo, const SimConfig& cfg)
             -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<PiggybackRouting>(topo, cfg, policy);
  };
}
const RoutingRegistry::Registrar kRegisterPbRrg{
    routing_registry(), "pb-rrg", piggyback_factory(MisroutePolicy::kRrg),
    {"Src-RRG"}};
const RoutingRegistry::Registrar kRegisterPbCrg{
    routing_registry(), "pb-crg", piggyback_factory(MisroutePolicy::kCrg),
    {"Src-CRG"}};
}  // namespace

namespace detail {
void link_piggyback_routing() {}
}  // namespace detail

}  // namespace dragonfly
