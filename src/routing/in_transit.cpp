#include "routing/in_transit.hpp"

#include "router/router.hpp"

namespace dragonfly {

namespace {
/// Cycles a head packet must have been blocked before a credit-exhausted
/// minimal output is treated as congested rather than transiently busy.
constexpr std::uint16_t kMisrouteDwell = 4;
}  // namespace

const char* to_string(InTransitVariant variant) {
  switch (variant) {
    case InTransitVariant::kRrg: return "RRG";
    case InTransitVariant::kCrg: return "CRG";
    case InTransitVariant::kMm: return "MM";
  }
  return "?";
}

void InTransitRouting::on_inject(Router& source, Packet& pkt, Rng& rng) {
  (void)source;
  (void)rng;
  pkt.phase = topo_.group_of_node(pkt.src) == topo_.group_of_node(pkt.dst)
                  ? Phase::kCommitted  // intra-group: minimal (+OLM)
                  : Phase::kSourceFlex;
}

MisroutePolicy InTransitRouting::policy_for(const Router& at,
                                            const Packet& pkt) const {
  switch (variant_) {
    case InTransitVariant::kRrg: return MisroutePolicy::kRrg;
    case InTransitVariant::kCrg: return MisroutePolicy::kCrg;
    case InTransitVariant::kMm:
      // Mixed-mode: CRG at the source router (packet still sits in an
      // injection queue), NRG once in transit.
      return at.topology().input_port_kind(pkt.in_port) ==
                     PortKind::kInjection
                 ? MisroutePolicy::kCrg
                 : MisroutePolicy::kNrg;
  }
  return MisroutePolicy::kRrg;
}

RoutingDecision InTransitRouting::source_flex(Router& at, Packet& pkt) {
  const RoutingDecision min_d = minimal_decision(at, pkt);

  // Opportunistic misrouting trigger ("the selection relies on the number
  // of credits of the output ports", Sec. II-C): divert only when the
  // minimal output's downstream VC buffer is exhausted — i.e. the packet
  // *cannot* advance minimally. Waiting out a full output queue or a lost
  // allocation keeps requesting the minimal port instead. This keeps
  // minimal links saturated and builds the standing transit queues at the
  // ADVc bottleneck router, whose own injection — whose minimal credits
  // are rarely exhausted, since the next group drains — never diverts and
  // loses every allocation to prioritized transit.
  // A short dwell (denied_cycles) filters transient credit exhaustion:
  // a burst filling one 4-packet local VC recovers within a credit
  // round-trip, and diverting on it causes misroute avalanches under
  // high uniform load. Persistent exhaustion — the adversarial case —
  // passes the filter within a few cycles.
  if (!at.credits_exhausted(min_d.out_port, min_d.out_vc, pkt.size_phits) ||
      pkt.denied_cycles < kMisrouteDwell) {
    return min_d;
  }

  // Try to commit a global misroute through an uncongested permitted link
  // (PAR: allowed anywhere in the source group while no global hop has
  // been taken).
  const GroupId dst_group = topo_.group_of_node(pkt.dst);
  const auto cand = pick_candidate(
      topo_, at.id(), policy_for(at, pkt), at.rng(), dst_group,
      [&](const GlobalLinkRef& ref) {
        const PortId out = ref.router == at.id()
                               ? ref.port
                               : topo_.local_port_to(at.id(), ref.router);
        const VcId vc = vc_for_output(at, pkt, topo_.output_port_kind(out));
        return !at.output_congested(out, vc);
      });
  if (!cand) return min_d;  // keep trying minimally (possible starvation)

  RoutingDecision d = toward_link(at, pkt, cand->router, cand->port);
  d.commit_nonminimal = true;
  d.intermediate_group = cand->target;
  d.nm_exit_router = cand->router;
  d.nm_exit_port = cand->port;
  return d;
}

RoutingDecision InTransitRouting::committed(Router& at, Packet& pkt) {
  const RoutingDecision min_d = minimal_decision(at, pkt);
  if (pkt.local_misrouted_this_group) return min_d;
  if (topo_.output_port_kind(min_d.out_port) != PortKind::kLocal) return min_d;
  // Same credit-exhaustion trigger and dwell as the global decision.
  if (!at.credits_exhausted(min_d.out_port, min_d.out_vc, pkt.size_phits) ||
      pkt.denied_cycles < kMisrouteDwell) {
    return min_d;
  }

  // OLM: one opportunistic local misroute per group. Both hops of the
  // detour share the group's local VC, so an unrestricted misroute can
  // join a chain of waiting packets on that VC and close a same-VC cycle
  // (observed as congestion collapse at extreme uniform loads). The
  // opportunistic rule that keeps this safe: misroute only into a
  // *completely empty* downstream VC buffer — the packet can never wait
  // behind another packet on the misroute hop itself.
  const int first = topo_.first_local_port();
  const int count = topo_.local_ports_per_router();
  if (count <= 1) return min_d;
  const auto start =
      static_cast<int>(at.rng().below(static_cast<std::uint64_t>(count)));
  for (int step = 0; step < count; ++step) {
    const PortId port = first + (start + step) % count;
    if (port == min_d.out_port) continue;
    const VcId vc = vc_for_output(at, pkt, PortKind::kLocal);
    if (!at.vc_buffer_free(port, vc)) continue;
    RoutingDecision d;
    d.out_port = port;
    d.out_vc = vc_for_output(at, pkt, PortKind::kLocal);
    d.local_misroute = true;
    return d;
  }
  return min_d;
}

RoutingDecision InTransitRouting::route(Router& at, Packet& pkt) {
  switch (pkt.phase) {
    case Phase::kSourceFlex:
      return source_flex(at, pkt);
    case Phase::kToIntermediate:
      return toward_link(at, pkt, pkt.nm_exit_router, pkt.nm_exit_port);
    case Phase::kCommitted:
      return committed(at, pkt);
  }
  return minimal_decision(at, pkt);
}

namespace {
RoutingRegistry::Factory in_transit_factory(InTransitVariant variant) {
  return [variant](const Topology& topo, const SimConfig& cfg)
             -> std::unique_ptr<RoutingAlgorithm> {
    return std::make_unique<InTransitRouting>(topo, cfg, variant);
  };
}
const RoutingRegistry::Registrar kRegisterParRrg{
    routing_registry(), "par-rrg", in_transit_factory(InTransitVariant::kRrg),
    {"In-Trns-RRG"}};
const RoutingRegistry::Registrar kRegisterParCrg{
    routing_registry(), "par-crg", in_transit_factory(InTransitVariant::kCrg),
    {"In-Trns-CRG"}};
const RoutingRegistry::Registrar kRegisterParMm{
    routing_registry(), "par-mm", in_transit_factory(InTransitVariant::kMm),
    {"In-Trns-MM"}};
}  // namespace

bool is_in_transit_routing(const std::string& name) {
  const RoutingRegistry& registry = routing_registry();
  if (!registry.contains(name)) return false;
  const std::string key = registry.resolve(name);
  return key == "par-rrg" || key == "par-crg" || key == "par-mm";
}

namespace detail {
void link_in_transit_routing() {}
}  // namespace detail

}  // namespace dragonfly
