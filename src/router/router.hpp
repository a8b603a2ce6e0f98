// Input-output-buffered high-radix router model (paper Sec. IV-A):
// 5-cycle pipeline, iterative separable batch allocator, 2x internal
// speedup, virtual cut-through, credit-based flow control.
//
// Hot state (credits, queue occupancies, link deadlines, input-VC
// occupancy/heads and the non-empty-VC bitmask) lives in a HotState
// structure-of-arrays owned by the Network; the router binds its row at
// construction, and its statistics counters likewise live in the
// MetricsCollector's arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/allocator.hpp"
#include "router/buffer.hpp"
#include "router/packet.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/hot_state.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// Where routers push cross-router events; implemented by the Network's
/// router shards.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Packet head reaches `router`'s input (port, vc) at `when`.
  virtual void schedule_packet(RouterId router, PortId port, VcId vc,
                               PacketRef pkt, Cycle when) = 0;
  /// Credit for (out_port, vc) returns to `router` at `when`.
  virtual void schedule_credit(RouterId router, PortId out_port, VcId vc,
                               int phits, Cycle when) = 0;
  /// Packet tail reaches its destination node at `when`.
  virtual void schedule_delivery(PacketRef pkt, Cycle when) = 0;
  /// Event-driven transmit (sim.kernel=active): output (router, port)
  /// can put its queue head on the wire exactly at `when`. Only emitted
  /// after Router::set_event_driven_tx(true); the default ignores it so
  /// scan-kernel networks and test sinks need no handling.
  virtual void schedule_port_ready(RouterId router, PortId port, Cycle when) {
    (void)router;
    (void)port;
    (void)when;
  }
};

/// Where a router keeps its statistics counters (one int64 each; the
/// Network points them into the MetricsCollector's arrays).
struct RouterCounters {
  std::int64_t* injected_total = nullptr;
  std::int64_t* injected_measured = nullptr;
  std::int64_t* forwarded_total = nullptr;
};

/// Working storage of Router::allocate: the cycle's requests, the
/// routing decisions behind them and the allocator's arrays. Nothing in
/// it outlives one call, so all the routers one thread steps share an
/// instance (the Network keeps one per shard). Sized for a HotLayout:
/// at most one request per input VC.
struct RouterScratch {
  explicit RouterScratch(const HotLayout& layout);

  std::vector<AllocRequest> requests;
  std::vector<RoutingDecision> decisions;
  AllocatorScratch allocator;
};

class Router {
 public:
  /// `hot` is the Network-owned SoA; the router uses row `id`. `scratch`
  /// must be sized for hot's layout and used by one thread at a time.
  Router(const Topology& topo, const SimConfig& cfg, RouterId id,
         RoutingAlgorithm* routing, PacketStore* store, EventSink* sink,
         Rng rng, HotState& hot, RouterScratch& scratch,
         const RouterCounters& counters);
  /// Each InputPort::vcs views this router's own VcFifo array.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  RouterId id() const { return id_; }
  GroupId group() const { return topo_.group_of_router(id_); }
  const Topology& topology() const { return topo_; }
  const SimConfig& config() const { return cfg_; }
  Rng& rng() { return rng_; }
  PacketStore& packets() { return *store_; }

  // --- wiring (done once by Network) -------------------------------------
  void wire_output(PortId port, PortKind kind, RouterId peer, PortId peer_port,
                   Cycle link_latency);
  void wire_input(PortId port, PortKind kind, RouterId upstream,
                  PortId upstream_port, Cycle credit_latency);
  /// sim.kernel=active: emit schedule_port_ready() fire times instead of
  /// relying on the per-cycle transmit() poll.
  void set_event_driven_tx(bool on) { event_tx_ = on; }

  // --- event handlers ------------------------------------------------------
  void packet_arrival(PortId in_port, VcId vc, PacketRef pkt, Cycle now);
  void credit_arrival(PortId out_port, VcId vc, int phits);

  // --- node-side injection ---------------------------------------------------
  bool can_accept_injection(PortId inj_port, VcId vc, int phits) const;
  void inject(PortId inj_port, VcId vc, PacketRef pkt, Cycle now);

  // --- per-cycle steps (called by Network) -----------------------------------
  void allocate(Cycle now);
  /// Dense-scan link transfer: poll every output port (sim.kernel=scan
  /// and unit fixtures).
  void transmit(Cycle now);
  /// Event-driven link transfer: fire one output port whose
  /// schedule_port_ready() deadline is `now` (sim.kernel=active).
  void transmit_due(PortId port, Cycle now);
  /// Packets buffered in input VCs (the allocate active-set predicate).
  bool has_buffered() const { return buffered_packets_ > 0; }

  // --- congestion queries (used by adaptive routing) ---------------------------
  /// Combined (queue backlog + downstream reservation) congestion signal,
  /// used by PiggyBack's in-group link-state broadcast.
  double output_occupancy(PortId port) const {
    return outputs_[static_cast<std::size_t>(port)].occupancy_fraction();
  }
  /// Credit-count signal the in-transit adaptive mechanisms consult: the
  /// reserved fraction of the downstream buffer of one VC.
  double output_vc_occupancy(PortId port, VcId vc) const {
    return outputs_[static_cast<std::size_t>(port)].vc_occupancy_fraction(vc);
  }
  bool output_congested(PortId port, VcId vc) const {
    return output_vc_occupancy(port, vc) > cfg_.intransit_threshold;
  }
  /// True when the downstream VC buffer cannot take one more packet — the
  /// opportunistic misrouting trigger (the packet literally cannot
  /// advance minimally).
  bool credits_exhausted(PortId port, VcId vc, int phits) const {
    return outputs_[static_cast<std::size_t>(port)].credits(vc) < phits;
  }
  /// True when the downstream VC buffer is completely unreserved — the
  /// safety condition for opportunistic local misrouting.
  bool vc_buffer_free(PortId port, VcId vc) const {
    const OutputPort& out = outputs_[static_cast<std::size_t>(port)];
    return out.credits(vc) == out.credit_capacity(vc);
  }
  /// Mean reserved fraction over this router's local output ports.
  double mean_local_occupancy() const;
  /// This router's row of HotState::port_marks: the global output ports
  /// whose output_occupancy() inputs changed since the row was cleared.
  std::uint64_t* port_marks() { return hot_->port_marks(id_); }
  const OutputPort& output(PortId port) const {
    return outputs_[static_cast<std::size_t>(port)];
  }
  const InputPort& input(PortId port) const {
    return inputs_[static_cast<std::size_t>(port)];
  }
  /// The shared HotState; this router's row is id() (invariant sweeps).
  const HotState& hot() const { return *hot_; }
  /// Total buffered phits across one input port's VCs: a contiguous sum
  /// over the port's HotState occupancy span, where
  /// InputPort::total_occupancy chases per-VcFifo slot pointers. Same
  /// value either way; this is the injection hot path's form.
  int input_occupancy(PortId port) const {
    const HotLayout& l = hot_->layout();
    const std::int32_t* occ =
        hot_->in_occupancy(id_) +
        l.in_vc_off[static_cast<std::size_t>(port)];
    const int n = l.in_vc_off[static_cast<std::size_t>(port) + 1] -
                  l.in_vc_off[static_cast<std::size_t>(port)];
    int sum = 0;
    for (int i = 0; i < n; ++i) sum += occ[i];
    return sum;
  }

  // --- statistics ---------------------------------------------------------------
  void set_measuring(bool on) { measuring_ = on; }
  void reset_measured_counters() { *injected_measured_ = 0; }
  std::int64_t injected_packets_measured() const {
    return *injected_measured_;
  }
  std::int64_t injected_packets_total() const { return *injected_total_; }
  std::int64_t forwarded_packets_total() const { return *forwarded_total_; }

  // --- checkpoint -----------------------------------------------------------
  /// Serialize the cold mutable state (FIFO/queue orderings, arbiter
  /// pointers, RNG); the hot counters live in the HotState block and the
  /// per-router statistics in the collector's. load() re-derives the
  /// head/mask hot state from the restored FIFOs.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  void execute_grant(const AllocRequest& req, const RoutingDecision& d,
                     Cycle now);
  int input_buffer_capacity(PortKind kind) const;
  int num_vcs_for_input(PortKind kind) const;
  int num_vcs_for_output(PortKind kind) const;
  void set_in_mask(int flat_vc) {
    hot_->in_mask(id_)[flat_vc >> 6] |= 1ull << (flat_vc & 63);
  }
  void clear_in_mask(int flat_vc) {
    hot_->in_mask(id_)[flat_vc >> 6] &= ~(1ull << (flat_vc & 63));
  }
  /// Called wherever an output's queue occupancy or credits change; one
  /// OR for a global port, nothing for the others.
  void mark_port(PortId port) {
    if (port >= topo_.first_global_port()) {
      hot_->port_marks(id_)[port >> 6] |= 1ull << (port & 63);
    }
  }

  const Topology& topo_;
  const SimConfig& cfg_;
  RouterId id_;
  RoutingAlgorithm* routing_;
  PacketStore* store_;
  EventSink* sink_;
  Rng rng_;

  HotState* hot_ = nullptr;  ///< row id_ is this router's

  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  /// Every input VC's FIFO, indexed by HotLayout::in_vc_index; each
  /// InputPort::vcs is a span of it.
  std::vector<VcFifo> vcs_;
  SeparableAllocator allocator_;
  RouterScratch* scratch_;

  bool measuring_ = false;
  bool event_tx_ = false;
  /// Packets currently sitting in this router's input VC buffers; lets
  /// allocate() skip the whole port/VC scan on idle routers.
  int buffered_packets_ = 0;
  /// Packets in output queues not yet put on the wire; lets transmit()
  /// return immediately on idle routers.
  int pending_tx_ = 0;
  std::int64_t* injected_measured_ = nullptr;
  std::int64_t* injected_total_ = nullptr;
  std::int64_t* forwarded_total_ = nullptr;
};

}  // namespace dragonfly
