#include "router/router.hpp"

#include <bit>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace dragonfly {

namespace {
AllocatorConfig allocator_config(const SimConfig& cfg) {
  AllocatorConfig a;
  a.iterations = cfg.allocator_iterations;
  a.max_grants_per_input = cfg.max_grants_per_input;
  a.max_grants_per_output = cfg.max_grants_per_output;
  a.transit_priority = cfg.transit_priority;
  a.age_arbitration = cfg.age_arbitration;
  return a;
}
}  // namespace

RouterScratch::RouterScratch(const HotLayout& layout)
    : allocator(layout.ports, layout.ports, layout.in_stride()) {
  requests.reserve(static_cast<std::size_t>(layout.in_stride()));
  decisions.reserve(static_cast<std::size_t>(layout.in_stride()));
}

Router::Router(const Topology& topo, const SimConfig& cfg,
               RouterId id, RoutingAlgorithm* routing, PacketStore* store,
               EventSink* sink, Rng rng, HotState& hot,
               RouterScratch& scratch, const RouterCounters& counters)
    : topo_(topo),
      cfg_(cfg),
      id_(id),
      routing_(routing),
      store_(store),
      sink_(sink),
      rng_(rng),
      hot_(&hot),
      inputs_(static_cast<std::size_t>(topo.ports_per_router())),
      outputs_(static_cast<std::size_t>(topo.ports_per_router())),
      vcs_(static_cast<std::size_t>(hot.layout().in_stride())),
      allocator_(topo.ports_per_router(), topo.ports_per_router(),
                 allocator_config(cfg)),
      scratch_(&scratch),
      injected_measured_(counters.injected_measured),
      injected_total_(counters.injected_total),
      forwarded_total_(counters.forwarded_total) {}

// The VC-count / buffer-capacity rules live next to HotLayout::make
// (sim/hot_state.cpp) so the SoA slot spans and the wiring below can
// never drift apart.
int Router::input_buffer_capacity(PortKind kind) const {
  return input_buffer_capacity_for(cfg_, kind);
}

int Router::num_vcs_for_input(PortKind kind) const {
  return input_vcs_for(cfg_, kind);
}

int Router::num_vcs_for_output(PortKind kind) const {
  return output_vcs_for(cfg_, kind);
}

void Router::wire_output(PortId port, PortKind kind, RouterId peer,
                         PortId peer_port, Cycle link_latency) {
  // Ejection consumes at link rate with no backpressure: model as an
  // effectively unbounded credit pool.
  const int credits =
      kind == PortKind::kEjection ? 1 << 28 : input_buffer_capacity(kind);
  const HotLayout& l = hot_->layout();
  OutputHotSlots slots;
  slots.credits = hot_->credits(id_) + l.out_vc_index(port, 0);
  slots.credit_capacity =
      hot_->credit_capacity(id_) + l.out_vc_index(port, 0);
  slots.queue_occupancy = hot_->queue_occupancy(id_) + port;
  slots.link_free = hot_->link_free(id_) + port;
  slots.queue = hot_->queue_ring(id_, port, output_queue_packets_for(cfg_));
  outputs_[static_cast<std::size_t>(port)].configure(
      kind, peer, peer_port, link_latency, cfg_.output_queue_size,
      num_vcs_for_output(kind), credits, slots);
}

void Router::wire_input(PortId port, PortKind kind, RouterId upstream,
                        PortId upstream_port, Cycle credit_latency) {
  InputPort& in = inputs_[static_cast<std::size_t>(port)];
  in.kind = kind;
  in.upstream_router = upstream;
  in.upstream_port = upstream_port;
  in.credit_latency = credit_latency;
  const HotLayout& l = hot_->layout();
  const int first = l.in_vc_index(port, 0);
  const int vcs = num_vcs_for_input(kind);
  for (int flat = first; flat < first + vcs; ++flat) {
    vcs_[static_cast<std::size_t>(flat)] =
        VcFifo(input_buffer_capacity(kind), hot_->in_occupancy(id_) + flat,
               hot_->in_head(id_) + flat,
               hot_->fifo_ring(id_, flat, input_fifo_packets_for(cfg_, kind)));
  }
  in.vcs = std::span<const VcFifo>(vcs_).subspan(
      static_cast<std::size_t>(first), static_cast<std::size_t>(vcs));
}

void Router::packet_arrival(PortId in_port, VcId vc, PacketRef ref,
                            Cycle now) {
  Packet& pkt = (*store_)[ref];
  const GroupId prev_group = topo_.group_of_router(pkt.current_router);
  pkt.current_router = id_;
  pkt.in_port = in_port;
  pkt.in_vc = vc;
  pkt.t_arrival = now;
  routing_->on_arrival(*this, pkt, prev_group);
  const int flat = hot_->layout().in_vc_index(in_port, vc);
  vcs_[static_cast<std::size_t>(flat)].push(ref, pkt.size_phits);
  set_in_mask(flat);
  ++buffered_packets_;
}

void Router::credit_arrival(PortId out_port, VcId vc, int phits) {
  outputs_[static_cast<std::size_t>(out_port)].return_credits(vc, phits);
  mark_port(out_port);
}

bool Router::can_accept_injection(PortId inj_port, VcId vc, int phits) const {
  const InputPort& in = inputs_[static_cast<std::size_t>(inj_port)];
  return in.vcs[static_cast<std::size_t>(vc)].free_space() >= phits;
}

void Router::inject(PortId inj_port, VcId vc, PacketRef ref, Cycle now) {
  Packet& pkt = (*store_)[ref];
  pkt.current_router = id_;
  pkt.in_port = inj_port;
  pkt.in_vc = vc;
  // Sec. IV-B: the latency clock starts "the moment a flit is inserted
  // into the injection queue at the source router".
  pkt.t_net = now;
  pkt.t_arrival = now;
  const int flat = hot_->layout().in_vc_index(inj_port, vc);
  vcs_[static_cast<std::size_t>(flat)].push(ref, pkt.size_phits);
  set_in_mask(flat);
  ++buffered_packets_;
}

void Router::allocate(Cycle now) {
  if (buffered_packets_ == 0) return;  // nothing to arbitrate
  std::vector<AllocRequest>& requests = scratch_->requests;
  std::vector<RoutingDecision>& decisions = scratch_->decisions;
  requests.clear();
  decisions.clear();

  // Walk only the non-empty input VCs: the per-router bitmask visits
  // them in flat (port, vc) order — the exact order of the old dense
  // port/VC scan — so requests, routing calls and RNG draws are
  // bit-identical to the dense kernel.
  const HotLayout& l = hot_->layout();
  const std::uint64_t* mask = hot_->in_mask(id_);
  const PacketRef* heads = hot_->in_head(id_);
  const std::int32_t* credits = hot_->credits(id_);
  const std::int32_t* qocc = hot_->queue_occupancy(id_);
  const int words = l.in_mask_words();
  const int inj_end = topo_.first_local_port();
  for (int w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      const int flat = w * 64 + std::countr_zero(bits);
      bits &= bits - 1;
      const PortId in_port = l.port_of_in_vc[static_cast<std::size_t>(flat)];
      const VcId vc =
          static_cast<VcId>(flat - l.in_vc_off[static_cast<std::size_t>(
                                       in_port)]);
      const PacketRef head = heads[flat];
      Packet& pkt = (*store_)[head];
      const RoutingDecision d = routing_->route(*this, pkt);
      // Denial feedback for opportunistic misrouting: every considered
      // head accumulates a denial, and execute_grant zeroes the counters
      // of the heads that move. route() reads only its own head's
      // counter, so counting right after it is exact.
      ++pkt.denied_cycles;
      if (!d.valid()) continue;
      if (credits[l.out_vc_index(d.out_port, d.out_vc)] < pkt.size_phits) {
        continue;
      }
      if (qocc[d.out_port] + pkt.size_phits > cfg_.output_queue_size) continue;
      AllocRequest req;
      req.in_port = in_port;
      req.in_vc = vc;
      req.out_port = d.out_port;
      req.out_vc = d.out_vc;
      req.is_injection = in_port < inj_end;
      req.age = pkt.t_gen;
      requests.push_back(req);
      decisions.push_back(d);
    }
  }
  allocator_.allocate(requests, scratch_->allocator);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].granted) execute_grant(requests[i], decisions[i], now);
  }
}

void Router::execute_grant(const AllocRequest& req, const RoutingDecision& d,
                           Cycle now) {
  const InputPort& in = inputs_[static_cast<std::size_t>(req.in_port)];
  const int flat = hot_->layout().in_vc_index(req.in_port, req.in_vc);
  VcFifo& fifo = vcs_[static_cast<std::size_t>(flat)];
  const PacketRef ref = fifo.head();
  Packet& pkt = (*store_)[ref];

  // Requests are feasibility-checked when built, but two same-cycle grants
  // can race for the last credits / queue slot of one output. The loser
  // bounces and retries next cycle (speculative allocation).
  {
    const OutputPort& out = outputs_[static_cast<std::size_t>(d.out_port)];
    if (out.credits(d.out_vc) < pkt.size_phits ||
        !out.queue_has_space(pkt.size_phits)) {
      return;
    }
  }
  fifo.pop(pkt.size_phits);
  if (fifo.empty()) clear_in_mask(flat);
  --buffered_packets_;
  pkt.denied_cycles = 0;

  // Waiting time at this router's input, bucketed by queue class.
  const Cycle waited = now - pkt.t_arrival;
  switch (in.kind) {
    case PortKind::kInjection: pkt.wait_injection += waited; break;
    case PortKind::kLocal: pkt.wait_local += waited; break;
    case PortKind::kGlobal: pkt.wait_global += waited; break;
    case PortKind::kEjection: break;
  }

  // Return the freed buffer space upstream (injection has no credit loop:
  // the node observes free space directly).
  if (in.kind != PortKind::kInjection) {
    sink_->schedule_credit(in.upstream_router, in.upstream_port, req.in_vc,
                           pkt.size_phits, now + in.credit_latency);
  } else {
    ++*injected_total_;
    if (measuring_) ++*injected_measured_;
  }
  ++*forwarded_total_;

  routing_->on_grant(*this, pkt, d);

  OutputPort& out = outputs_[static_cast<std::size_t>(d.out_port)];
  pkt.structural += cfg_.pipeline_latency;
  switch (out.kind()) {
    case PortKind::kLocal:
      ++pkt.local_hops;
      pkt.structural += out.link_latency();
      break;
    case PortKind::kGlobal:
      ++pkt.global_hops;
      pkt.structural += out.link_latency();
      break;
    case PortKind::kEjection:
      break;
    case PortKind::kInjection:
      throw std::logic_error("granted to an injection output");
  }

  out.take_credits(d.out_vc, pkt.size_phits);
  out.enqueue(ref, d.out_vc, now + cfg_.pipeline_latency, pkt.size_phits);
  mark_port(d.out_port);
  ++pending_tx_;
  if (event_tx_ && out.pending().size() == 1) {
    // The queue was empty, so no fire is outstanding for this port. The
    // head's wire time is exact: the pipeline-ready cycle, or the link
    // becoming free, whichever is later.
    sink_->schedule_port_ready(id_, d.out_port, out.next_fire());
  }
}

void Router::transmit(Cycle now) {
  if (pending_tx_ == 0) return;  // all output queues empty
  const int ports = topo_.ports_per_router();
  for (PortId port = 0; port < ports; ++port) {
    OutputPort& out = outputs_[static_cast<std::size_t>(port)];
    if (!out.can_transmit(now)) continue;
    transmit_due(port, now);
  }
}

void Router::transmit_due(PortId port, Cycle now) {
  OutputPort& out = outputs_[static_cast<std::size_t>(port)];
  const PendingTx head = out.queue_head();
  Packet& pkt = (*store_)[head.pkt];
  const PendingTx tx = out.begin_transmission(now, pkt.size_phits);
  mark_port(port);
  --pending_tx_;

  // Waiting in the output queue for the link (serialization backlog):
  // congestion attributed to the link class being traversed.
  const Cycle qwait = now - tx.ready;
  switch (out.kind()) {
    case PortKind::kGlobal: pkt.wait_global += qwait; break;
    case PortKind::kLocal:
    case PortKind::kEjection: pkt.wait_local += qwait; break;
    case PortKind::kInjection: break;
  }

  if (out.kind() == PortKind::kEjection) {
    sink_->schedule_delivery(tx.pkt, now + pkt.size_phits);
  } else {
    sink_->schedule_packet(out.peer(), out.peer_port(), tx.out_vc, tx.pkt,
                           now + out.link_latency());
  }
  if (event_tx_ && !out.queue_empty()) {
    // Next head: ready is fixed since its grant, the link frees at
    // now + size — both known now, so the fire time is exact.
    sink_->schedule_port_ready(id_, port, out.next_fire());
  }
}

double Router::mean_local_occupancy() const {
  const int first = topo_.first_local_port();
  const int last = topo_.first_global_port();
  if (first == last) return 0.0;
  double sum = 0.0;
  for (PortId p = first; p < last; ++p) {
    sum += outputs_[static_cast<std::size_t>(p)].occupancy_fraction();
  }
  return sum / static_cast<double>(last - first);
}

template <class Self, class Archive>
void Router::walk(Self& self, Archive& ck) {
  ck.tag("Router");
  ck.rng(self.rng_);
  const HotLayout& l = self.hot_->layout();
  for (PortId port = 0; port < l.ports; ++port) {
    ck.fixed(std::span(self.vcs_).subspan(
                 static_cast<std::size_t>(l.in_vc_index(port, 0)),
                 self.inputs_[static_cast<std::size_t>(port)].vcs.size()),
             "input-port VC count");
  }
  for (auto& out : self.outputs_) ck.field(out);
  ck.field(self.allocator_);
  ck.field(self.measuring_);
  ck.field(self.buffered_packets_);
  ck.field(self.pending_tx_);
}

void Router::save(CheckpointWriter& ck) const { walk(*this, ck); }

void Router::load(CheckpointReader& ck) {
  walk(*this, ck);
  // Re-derive the non-empty-VC mask from the restored FIFOs (VcFifo::load
  // already refreshed the head slots).
  std::uint64_t* mask = hot_->in_mask(id_);
  for (int w = 0; w < hot_->layout().in_mask_words(); ++w) mask[w] = 0;
  for (std::size_t flat = 0; flat < vcs_.size(); ++flat) {
    if (!vcs_[flat].empty()) set_in_mask(static_cast<int>(flat));
  }
}

}  // namespace dragonfly
