// Routing mechanism interface (paper Sec. II-C): oblivious, source-based
// adaptive, and in-transit adaptive mechanisms all implement this.
//
// Protocol between Router and RoutingAlgorithm:
//   * on_inject  — once per packet, at generation (oblivious mechanisms
//                  choose MIN/Valiant here; adaptive ones do nothing);
//   * route      — every cycle for every input-VC head packet: returns the
//                  requested (output port, VC) plus the state transition
//                  to apply if the request is granted;
//   * on_grant   — applies the decision's side effects to the packet;
//   * on_arrival — phase transitions when the packet reaches a new router;
//   * refresh    — once per cycle, global state (PiggyBack's in-group
//                  congestion broadcast).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/registry.hpp"
#include "router/packet.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

class Router;

struct RoutingDecision {
  PortId out_port = kInvalidPort;
  VcId out_vc = 0;

  /// At grant: commit a non-minimal path (phase -> kToIntermediate).
  bool commit_nonminimal = false;
  GroupId intermediate_group = kInvalidGroup;
  RouterId nm_exit_router = kInvalidRouter;
  PortId nm_exit_port = kInvalidPort;

  /// At grant: commit to the minimal path (phase -> kCommitted); used by
  /// source-adaptive routing when it picks MIN at injection.
  bool commit_minimal = false;

  /// At grant: this hop is an opportunistic local misroute (sets the
  /// once-per-group flag).
  bool local_misroute = false;

  bool valid() const { return out_port != kInvalidPort; }
};

class RoutingAlgorithm {
 public:
  RoutingAlgorithm(const Topology& topo, const SimConfig& cfg)
      : topo_(topo), cfg_(cfg) {}
  virtual ~RoutingAlgorithm() = default;

  virtual std::string name() const = 0;

  virtual void on_inject(Router& source, Packet& pkt, Rng& rng) = 0;
  virtual RoutingDecision route(Router& at, Packet& pkt) = 0;
  virtual void on_grant(Router& at, Packet& pkt, const RoutingDecision& d);
  virtual void on_arrival(Router& at, Packet& pkt, GroupId previous_group);
  virtual void refresh(std::span<const std::unique_ptr<Router>> routers);
  /// Whether refresh() must run every cycle. Defaults to true so a
  /// user-registered mechanism that overrides refresh() keeps working;
  /// built-ins without per-cycle global state override this to false and
  /// the kernel skips the call entirely.
  virtual bool wants_refresh() const { return true; }

  const Topology& topology() const { return topo_; }

 protected:
  /// Deadlock-avoiding VC ladder: local VC selected by the packet's group
  /// position (source/intermediate/destination), global VC by global-hop
  /// count, so the channel dependency graph is acyclic (Table I VC counts).
  VcId vc_for_output(const Router& at, const Packet& pkt, PortKind kind) const;

  /// Request the next minimal hop towards pkt.dst.
  RoutingDecision minimal_decision(const Router& at, const Packet& pkt) const;

  /// Request the next hop towards a specific global link of the current
  /// group (the committed non-minimal exit).
  RoutingDecision toward_link(const Router& at, const Packet& pkt,
                              RouterId exit_router, PortId exit_port) const;

  const Topology& topo_;
  const SimConfig& cfg_;
};

/// The open set of routing mechanisms, keyed by registry name. The
/// built-ins self-register from their own translation units under the
/// paper's names ("min", "val-rrg|crg|nrg", "pb-rrg|crg",
/// "par-rrg|crg|mm", "ugal-rrg|crg"; the paper's legend spellings
/// "MIN", "In-Trns-MM", ... resolve as aliases and label the bench
/// tables). User code registers new
/// policies here and selects them through SimConfig::routing_name — no
/// core edits needed.
using RoutingRegistry =
    Registry<RoutingAlgorithm, const Topology&, const SimConfig&>;
RoutingRegistry& routing_registry();

/// Build the mechanism selected by cfg.routing_name.
std::unique_ptr<RoutingAlgorithm> make_routing(const Topology& topo,
                                               const SimConfig& cfg);

}  // namespace dragonfly
