#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>

#include "common/checkpoint.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "topology/topology_cache.hpp"
#include "workload/workload.hpp"

namespace dragonfly {

namespace {
/// Validate before any member construction: HotLayout/HotState sizing
/// depends on the VC-count knobs, and a malformed config must fail
/// with validate()'s diagnostic, not a length_error from a negative
/// prefix sum cast to an allocation size.
const SimConfig& validated(const SimConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// Use the injected shared topology, or acquire one from the process
/// cache (shared for the built-in families, private for user-registered
/// ones). An injected topology must match the shape the config selects:
/// a shared instance of the wrong shape would mis-wire every router
/// silently, so when the family exposes a cheap shape the dimensions
/// are cross-checked here.
std::shared_ptr<const Topology> adopt_topology(
    const SimConfig& cfg, std::shared_ptr<const Topology> topo) {
  if (topo == nullptr) return TopologyCache::process_cache().acquire(cfg);
  if (const auto shape = try_topology_shape(cfg)) {
    if (shape->num_routers() != topo->num_routers() ||
        shape->num_nodes() != topo->num_nodes()) {
      throw std::invalid_argument(
          "shared topology mismatch: config selects " +
          std::to_string(shape->num_routers()) + " routers / " +
          std::to_string(shape->num_nodes()) +
          " nodes but the injected topology has " +
          std::to_string(topo->num_routers()) + " / " +
          std::to_string(topo->num_nodes()));
    }
  }
  return topo;
}

/// Refuse a restored packet field outside [lo, end).
void check_packet_field(const char* what, int value, int lo, int end) {
  if (value < lo || value >= end) {
    throw std::runtime_error("checkpoint: packet " + std::string(what) + " " +
                             std::to_string(value) + " out of range [" +
                             std::to_string(lo) + ", " + std::to_string(end) +
                             ")");
  }
}
}  // namespace

Network::Network(const SimConfig& cfg) : Network(cfg, nullptr) {}

Network::Network(const SimConfig& cfg, std::shared_ptr<const Topology> topo)
    : cfg_(validated(cfg)),
      topo_(adopt_topology(cfg_, std::move(topo))),
      routing_(make_routing(*topo_, cfg_)),
      traffic_(make_traffic(*topo_, cfg_)),
      collector_(*topo_, cfg_),
      hot_(HotLayout::make(*topo_, cfg_), topo_->num_routers()) {
  active_kernel_ = cfg_.kernel == SimKernel::kActive;
  routing_wants_refresh_ = routing_->wants_refresh();
  build();
}

Network::~Network() = default;

void Network::build_shards() {
  const int R = topo_->num_routers();
  const int N = topo_->num_nodes();
  const int S = cfg_.shards;
  if (S > R) {
    // validate() already rejects this when the topology family exposes a
    // cheap shape; custom families land here.
    throw std::invalid_argument(
        "sim.shards is " + std::to_string(S) + " but the topology has only " +
        std::to_string(R) + " routers; valid values: 1.." +
        std::to_string(std::min(R, kMaxArenas)));
  }
  // The shard of a node is the shard of its router, and each shard's
  // slice of hot state, bitmaps and packet arena is addressed by
  // contiguous ranges — so the node->router map must be monotone. Every
  // topology in the registry lays nodes out router-major; a custom one
  // that does not cannot be sharded.
  for (NodeId n = 1; n < N; ++n) {
    if (topo_->router_of_node(n) < topo_->router_of_node(n - 1)) {
      throw std::invalid_argument(
          "sim.shards: topology assigns nodes to routers non-contiguously "
          "(router_of_node not monotone); sharding needs router-major node "
          "numbering");
    }
  }

  shards_.clear();
  shards_.resize(static_cast<std::size_t>(S));
  shard_of_router_.assign(static_cast<std::size_t>(R), 0);
  // Balanced contiguous partition: the first R%S shards get one extra
  // router.
  const int base = R / S;
  const int extra = R % S;
  RouterId r0 = 0;
  NodeId n0 = 0;
  // Calendar horizons: the largest delay each one is booked with. Link
  // and credit latencies for events; the router pipeline and packet
  // serialization for transmit fires; serialization for deliveries.
  const auto size = static_cast<Cycle>(cfg_.packet_size);
  const auto pipeline = static_cast<Cycle>(cfg_.pipeline_latency);
  const Cycle event_horizon = std::max(
      {cfg_.local_latency, cfg_.global_latency, size, pipeline, Cycle{1}});
  const Cycle fire_horizon = std::max({pipeline, size, Cycle{1}});
  for (int s = 0; s < S; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.net = this;
    sh.direct = S == 1;
    const int len = base + (s < extra ? 1 : 0);
    sh.r_begin = r0;
    sh.r_end = r0 + len;
    r0 = sh.r_end;
    for (RouterId r = sh.r_begin; r < sh.r_end; ++r) {
      shard_of_router_[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(s);
    }
    sh.n_begin = n0;
    while (n0 < N && topo_->router_of_node(n0) < sh.r_end) ++n0;
    sh.n_end = n0;
    sh.alloc_active.assign((static_cast<std::size_t>(len) + 63) / 64, 0);
    const auto nlen = static_cast<std::size_t>(sh.n_end - sh.n_begin);
    sh.gen_mask.assign((nlen + 63) / 64, 0);
    sh.queue_mask.assign((nlen + 63) / 64, 0);
    sh.hit_mask.assign((nlen + 63) / 64, 0);
    sh.tx_bitmap.assign(
        (static_cast<std::size_t>(len) *
             static_cast<std::size_t>(topo_->ports_per_router()) +
         63) /
            64,
        0);
    sh.out_credits.resize(static_cast<std::size_t>(S));
    sh.out_packets.resize(static_cast<std::size_t>(S));
    sh.scratch = std::make_unique<RouterScratch>(hot_.layout());
    sh.events = Calendar<Event>(event_horizon);
    sh.fires = Calendar<std::int32_t>(fire_horizon);
  }
  deliveries_ = Calendar<Delivery>(std::max(size, Cycle{1}));
  store_.configure(S);
  if (S > 1 && active_kernel_) {
    pool_ = std::make_unique<PoolRunner>(std::min(S, PoolRunner::resolve(0)));
  }
}

void Network::build() {
  build_shards();
  const Rng root(cfg_.seed);
  const int R = topo_->num_routers();
  const int N = topo_->num_nodes();
  const int p = topo_->concentration();

  collector_.attach_routers(R);
  routers_.reserve(static_cast<std::size_t>(R));
  for (RouterId r = 0; r < R; ++r) {
    Shard& sh = shard_of(r);
    routers_.push_back(std::make_unique<Router>(
        *topo_, cfg_, r, routing_.get(), &store_, &sh,
        root.child(0x1000000ull + static_cast<std::uint64_t>(r)), hot_,
        *sh.scratch,
        RouterCounters{collector_.router_injected_total(r),
                       collector_.router_injected_measured(r),
                       collector_.router_forwarded_total(r)}));
    routers_.back()->set_event_driven_tx(active_kernel_);
  }

  // Wiring. Input port X of a router mirrors output port X of its peer.
  for (RouterId r = 0; r < R; ++r) {
    Router& router = *routers_[static_cast<std::size_t>(r)];
    // Injection inputs / ejection outputs (one per attached node).
    for (int i = 0; i < p; ++i) {
      router.wire_input(topo_->injection_port(i), PortKind::kInjection,
                        kInvalidRouter, kInvalidPort, 0);
      router.wire_output(topo_->ejection_port(i), PortKind::kEjection,
                         kInvalidRouter, kInvalidPort, 0);
    }
    // Local links.
    for (PortId port = topo_->first_local_port();
         port < topo_->first_global_port(); ++port) {
      const RouterId peer = topo_->local_peer(r, port);
      const PortId peer_port = topo_->local_port_to(peer, r);
      router.wire_output(port, PortKind::kLocal, peer, peer_port,
                         cfg_.local_latency);
      router.wire_input(port, PortKind::kLocal, peer, peer_port,
                        cfg_.local_latency);
    }
    // Global links. Dead slots of trimmed shapes are wired with an
    // invalid peer: their buffers exist (occupancy queries return 0)
    // but no route or candidate set ever selects them.
    for (PortId port = topo_->first_global_port();
         port < topo_->ports_per_router(); ++port) {
      const bool connected = topo_->global_connected(r, port);
      const RouterId peer = connected ? topo_->global_peer(r, port)
                                      : kInvalidRouter;
      const PortId peer_port = connected ? topo_->global_peer_port(r, port)
                                         : kInvalidPort;
      router.wire_output(port, PortKind::kGlobal, peer, peer_port,
                         cfg_.global_latency);
      router.wire_input(port, PortKind::kGlobal, peer, peer_port,
                        cfg_.global_latency);
    }
  }

  node_hot_.init(N, source_queue_packets_for(cfg_));
  nodes_.reserve(static_cast<std::size_t>(N));
  router_of_node_.reserve(static_cast<std::size_t>(N));
  for (NodeId n = 0; n < N; ++n) {
    const RouterId r = topo_->router_of_node(n);
    nodes_.emplace_back(n, routers_[static_cast<std::size_t>(r)].get(),
                        traffic_.get(), routing_.get(), &store_, &cfg_,
                        root.child(static_cast<std::uint64_t>(n)),
                        node_hot_);
    nodes_.back().set_arena(shard_of_router_[static_cast<std::size_t>(r)]);
    router_of_node_.push_back(r);
  }

  rebuild_node_masks();

  if (cfg_.workload.enabled()) {
    workload_ = std::make_unique<WorkloadDriver>(*this, Rng(cfg_.seed));
    workload_->initialize();
  }
}

void Network::rebuild_node_masks() {
  generating_nodes_ = 0;
  for (Shard& sh : shards_) {
    std::fill(sh.gen_mask.begin(), sh.gen_mask.end(), 0);
    std::fill(sh.queue_mask.begin(), sh.queue_mask.end(), 0);
    for (NodeId n = sh.n_begin; n < sh.n_end; ++n) {
      const auto bit = static_cast<std::size_t>(n - sh.n_begin);
      if (nodes_[static_cast<std::size_t>(n)].generates()) {
        ++generating_nodes_;
        sh.gen_mask[bit >> 6] |= 1ull << (bit & 63);
      }
      if (nodes_[static_cast<std::size_t>(n)].queue_length() > 0) {
        sh.queue_mask[bit >> 6] |= 1ull << (bit & 63);
      }
    }
  }
}

void Network::rebuild_activation() {
  rebuild_node_masks();
  for (Shard& sh : shards_) {
    std::fill(sh.alloc_active.begin(), sh.alloc_active.end(), 0);
    sh.fires.reset(now_);
  }
  for (const auto& router : routers_) {
    if (router->has_buffered()) mark_alloc_active(router->id());
  }
  if (!active_kernel_) return;
  // Re-derive the transmit calendars: every non-empty output queue has
  // exactly one outstanding fire at its head's exact wire time. State
  // saved between cycles puts every fire inside the transmit window (the
  // transmit phase consumed any earlier one), so anything else is
  // corruption.
  const int ports = hot_.layout().ports;
  for (const auto& router : routers_) {
    Shard& sh = shard_of(router->id());
    for (PortId port = 0; port < ports; ++port) {
      const OutputPort& out = router->output(port);
      if (out.queue_empty()) continue;
      const Cycle fire = out.next_fire();
      if (!sh.fires.in_window(fire)) {
        throw std::runtime_error(
            "checkpoint: transmit deadline @" + std::to_string(fire) +
            " outside the transmit window of cycle " + std::to_string(now_));
      }
      sh.fires.push(fire, router->id() * ports + port);
    }
  }
}

// The cycle. The order fixes every RNG draw and every calendar
// tie-break, so it is written once, here:
//  - the invariant sweep sees the state between two cycles;
//  - deliveries drain serially first: the collector's floating-point
//    accumulation is order-sensitive, and delivery dispatch commutes
//    with packet/credit dispatch (disjoint state), so pulling it out of
//    the shard calendars keeps the order canonical for every shard count;
//  - the workload driver reacts to this cycle's deliveries (collective
//    dependency steps, bursty dwells, job churn) before injection;
//  - the routing refresh reads every router's occupancy and accumulates
//    floating-point group means in a fixed order, so it is serial and
//    splits the fan-out; without it dispatch fuses with inject-transmit
//    (dispatch writes only own-shard routers, and the later phases read
//    only own-shard state, so shards at different phases never conflict);
//  - at the barrier everything in the outboxes is due >= now + 1 (the
//    conservative lookahead), so nothing merged there was missed.
std::span<const Network::Phase> Network::phases() {
  static const Phase kPhases[] = {
      {.guard =
           [](const Network& n) {
             return n.cfg_.sim_paranoid > 0 &&
                    n.now_ % n.cfg_.sim_paranoid == 0;
           },
       .serial = [](Network& n) { n.check_invariants(); }},
      {.serial = [](Network& n) { n.drain_deliveries(); }},
      {.guard = [](const Network& n) { return n.workload_ != nullptr; },
       .serial =
           [](Network& n) {
             n.workload_->on_cycle(n.now_, n.collector_.measuring());
           }},
      {.shard = [](Network& n, Shard& sh) { n.shard_dispatch(sh); }},
      {.guard = [](const Network& n) { return n.routing_wants_refresh_; },
       .serial =
           [](Network& n) {
             n.routing_->refresh(
                 std::span<const std::unique_ptr<Router>>(n.routers_));
           }},
      {.shard = [](Network& n, Shard& sh) { n.shard_inject(sh); }},
      {.shard = [](Network& n, Shard& sh) { n.shard_allocate(sh); }},
      {.shard = [](Network& n, Shard& sh) { n.shard_transmit(sh); }},
      {.serial = [](Network& n) { n.merge_outboxes(); }},
  };
  return kPhases;
}

void Network::step() {
  // Serial entries run in place. A per-shard entry opens a fan-out that
  // takes every later entry up to the next serial entry that is on.
  const std::span<const Phase> list = phases();
  std::size_t i = 0;
  while (i < list.size()) {
    if (list[i].serial != nullptr) {
      if (list[i].on(*this)) list[i].serial(*this);
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < list.size() &&
           (list[end].shard != nullptr || !list[end].on(*this))) {
      ++end;
    }
    fan_out(list.subspan(i, end - i));
    i = end;
  }
  ++now_;
}

void Network::fan_out(std::span<const Phase> run) {
  auto body = [this, run](std::size_t s) {
    for (const Phase& ph : run) {
      if (ph.shard != nullptr && ph.on(*this)) ph.shard(*this, shards_[s]);
    }
  };
  // The scan kernel is the sequential reference: its shards step inline
  // in ascending order, still through the outboxes and the barrier merge.
  if (pool_) {
    pool_->run(shards_.size(), body);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) body(s);
  }
}

void Network::shard_dispatch(Shard& sh) {
  // Packet arrivals and credit returns due this cycle, in insertion
  // order (the deterministic tie-break). Packet arrivals activate their
  // router for the allocation phase.
  sh.dispatched += static_cast<std::int64_t>(
      sh.events.drain([this](const Event& ev) { dispatch(ev); }));
}

void Network::build_hit_masks(Shard& sh) {
  // Batched Bernoulli generation gates over the NodeHot SoA bank. The
  // gate a dense scan evaluates per node — generates_ (the gen_mask
  // bit), queue slack (the blocked byte), then the p<=0 / p>=1
  // short-circuits (the mode byte) and finally the draw itself — is
  // evaluated here for 64 nodes at a time; the draw advances exactly
  // the lanes the scan would have advanced, by exactly one step. Gates
  // are fixed at phase start: no node's injection can change another
  // node's gate, so hoisting them out of the per-node walk is exact.
  const auto nlen = static_cast<std::size_t>(sh.n_end - sh.n_begin);
  const bool lone = shards_.size() == 1;
  NodeHot& nh = node_hot_;
  for (std::size_t w = 0; w < sh.gen_mask.size(); ++w) {
    const std::uint64_t gen = sh.gen_mask[w];
    if (gen == 0) {
      sh.hit_mask[w] = 0;
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(sh.n_begin) + (w << 6);
    // The dispatched helpers load whole 64-lane windows. That is safe
    // when every lane of the window is this shard's (single-shard runs
    // may also touch the zero-padded tail); the last word of a
    // multi-shard range overlaps the next shard's lanes, so it takes
    // the per-lane scalar reference, which reads and writes only the
    // masked lanes.
    const bool whole = lone || (w + 1) * 64 <= nlen;
    std::uint64_t blocked, never, always;
    if (whole) {
      blocked = simd::nonzero_bytes_mask(nh.blocked() + base);
      never = simd::equal_bytes_mask(nh.mode() + base, 1);
      always = simd::equal_bytes_mask(nh.mode() + base, 2);
    } else {
      blocked = simd::nonzero_bytes_mask_scalar(nh.blocked() + base, gen);
      never = simd::equal_bytes_mask_scalar(nh.mode() + base, 1, gen);
      always = simd::equal_bytes_mask_scalar(nh.mode() + base, 2, gen);
    }
    const std::uint64_t eligible = gen & ~blocked;
    const std::uint64_t draw = eligible & ~never & ~always;
    std::uint64_t hits = eligible & always;
    if (draw != 0) {
      hits |= whole ? simd::bernoulli_word(nh.s0() + base, nh.s1() + base,
                                           nh.s2() + base, nh.s3() + base,
                                           nh.threshold() + base, draw)
                    : simd::bernoulli_word_scalar(
                          nh.s0() + base, nh.s1() + base, nh.s2() + base,
                          nh.s3() + base, nh.threshold() + base, draw);
    }
    sh.hit_mask[w] = hits;
  }
}

void Network::shard_inject(Shard& sh) {
  const bool measuring = collector_.measuring();
  if (!active_kernel_) {
    for (NodeId n = sh.n_begin; n < sh.n_end; ++n) {
      nodes_[static_cast<std::size_t>(n)].step(now_, measuring,
                                               generation_enabled_);
    }
    return;
  }
  // Traffic generation and injection. Phase A evaluates every
  // generator's Bernoulli gate with batched SoA draws (build_hit_masks);
  // phase B walks only the hits and the nodes with queued packets, in
  // ascending node order. A generator that missed its draw and has an
  // empty queue is the dense scan's exact no-op — its draw already
  // happened in the batch — so skipping its visit matches the scan bit
  // for bit.
  const bool gen_on = generation_enabled_;
  if (gen_on) build_hit_masks(sh);
  for (std::size_t w = 0; w < sh.queue_mask.size(); ++w) {
    const std::uint64_t hit = gen_on ? sh.hit_mask[w] : 0;
    std::uint64_t bits = hit | sh.queue_mask[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto n = static_cast<std::size_t>(sh.n_begin) + (w << 6) +
                     static_cast<std::size_t>(b);
      Node& node = nodes_[n];
      if (node.step_pregen(now_, measuring, ((hit >> b) & 1) != 0)) {
        mark_alloc_active(router_of_node_[n]);
      }
      const std::uint64_t bit = 1ull << b;
      if (node.queue_length() > 0) {
        sh.queue_mask[w] |= bit;
      } else {
        sh.queue_mask[w] &= ~bit;
      }
    }
  }
}

void Network::shard_allocate(Shard& sh) {
  if (!active_kernel_) {
    for (RouterId r = sh.r_begin; r < sh.r_end; ++r) {
      routers_[static_cast<std::size_t>(r)]->allocate(now_);
    }
    return;
  }
  // Switch allocation over the active routers, ascending id — the
  // dense-scan visit order, so per-router RNG draws and downstream
  // event insertion order are unchanged. A router leaves the set once
  // its input buffers drain.
  for (std::size_t w = 0; w < sh.alloc_active.size(); ++w) {
    std::uint64_t bits = sh.alloc_active[w];
    if (bits == 0) continue;
    std::uint64_t keep = bits;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto r = static_cast<RouterId>(
          static_cast<std::size_t>(sh.r_begin) + (w << 6) +
          static_cast<std::size_t>(b));
      Router& router = *routers_[static_cast<std::size_t>(r)];
      router.allocate(now_);
      if (!router.has_buffered()) keep &= ~(1ull << b);
    }
    sh.alloc_active[w] = keep;
  }
}

void Network::shard_transmit(Shard& sh) {
  if (!active_kernel_) {
    for (RouterId r = sh.r_begin; r < sh.r_end; ++r) {
      routers_[static_cast<std::size_t>(r)]->transmit(now_);
    }
    return;
  }
  // Link transfer, event-driven: every fire due now is an output port
  // whose head goes on the wire exactly now. Scattering the flat ids
  // into a bitmap over the shard's port space and walking its set bits
  // yields ascending (router, port) order — the dense scan's — at
  // O(ids + words), with no sort. Ids are unique (one outstanding fire
  // per non-empty output queue, checked by the invariant sweep), so the
  // bitmap loses nothing.
  const int ports = hot_.layout().ports;
  const std::int64_t base =
      static_cast<std::int64_t>(sh.r_begin) * static_cast<std::int64_t>(ports);
  const std::size_t due = sh.fires.drain([&sh, base](std::int32_t rp) {
    const auto i = static_cast<std::size_t>(rp - base);
    sh.tx_bitmap[i >> 6] |= 1ull << (i & 63);
  });
  if (due == 0) return;
  for (std::size_t w = 0; w < sh.tx_bitmap.size(); ++w) {
    std::uint64_t bits = sh.tx_bitmap[w];
    if (bits == 0) continue;
    sh.tx_bitmap[w] = 0;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto rp = base + static_cast<std::int64_t>((w << 6) +
                                                       static_cast<std::size_t>(b));
      routers_[static_cast<std::size_t>(rp / ports)]->transmit_due(
          static_cast<PortId>(rp % ports), now_);
    }
  }
}

void Network::drain_deliveries() {
  dispatched_events_ += static_cast<std::int64_t>(
      deliveries_.drain([this](const Delivery& d) {
        const Packet& pkt = store_[d.pkt];
        collector_.on_delivered(pkt, d.when);
        if (workload_ != nullptr) workload_->on_delivered(pkt, d.when);
        store_.destroy(d.pkt);
      }));
}

void Network::merge_outboxes() {
  for (Shard& sh : shards_) {
    dispatched_events_ += sh.dispatched;
    sh.dispatched = 0;
  }
  // Canonical merge: for every destination, all credit streams in
  // ascending source-shard order, then all packet streams. Shard ranges
  // are contiguous and ascending and each stream is appended in
  // emission order, so the concatenation is exactly the serial kernel's
  // bucket insertion order — all allocation-phase credits in ascending
  // router order, then all transmit-phase packets in ascending
  // (router, port) order. With one shard the sinks booked directly and
  // the outboxes are empty.
  const std::size_t S = shards_.size();
  for (std::size_t dst = 0; dst < S; ++dst) {
    Shard& d = shards_[dst];
    for (std::size_t src = 0; src < S; ++src) {
      auto& box = shards_[src].out_credits[dst];
      for (const Event& ev : box) d.events.push(ev.when, ev);
      box.clear();
    }
    for (std::size_t src = 0; src < S; ++src) {
      auto& box = shards_[src].out_packets[dst];
      for (const Event& ev : box) d.events.push(ev.when, ev);
      box.clear();
    }
  }
  for (Shard& sh : shards_) {
    for (const Delivery& d : sh.out_deliveries) deliveries_.push(d.when, d);
    sh.out_deliveries.clear();
  }
}

void Network::dispatch(const Event& ev) {
  switch (ev.type) {
    case Event::Type::kPacket:
      routers_[static_cast<std::size_t>(ev.router)]->packet_arrival(
          ev.port, ev.vc, ev.pkt, ev.when);
      mark_alloc_active(ev.router);
      break;
    case Event::Type::kCredit:
      routers_[static_cast<std::size_t>(ev.router)]->credit_arrival(
          ev.port, ev.vc, ev.phits);
      break;
  }
}

void Network::begin_measurement() {
  collector_.begin_measurement(now_);
  collector_.reset_measured_router_counters();
  for (auto& router : routers_) router->set_measuring(true);
  for (auto& node : nodes_) node.reset_measured_counters();
}

void Network::end_measurement() {
  collector_.end_measurement(now_);
  for (auto& router : routers_) router->set_measuring(false);
}

void Network::check_invariants() const {
  auto fail = [this](const std::string& what) {
    throw std::logic_error("check_invariants @" + std::to_string(now_) +
                           ": " + what);
  };
  const HotLayout& l = hot_.layout();
  const int ports = l.ports;
  const int R = topo_->num_routers();
  std::vector<int> refs(store_.dense_capacity(), 0);
  auto note = [&](PacketRef ref, const char* where) {
    if (ref < 0 || PacketStore::arena_of(ref) >= store_.arenas() ||
        PacketStore::slot_of(ref) >=
            store_.arena_size(PacketStore::arena_of(ref))) {
      fail(std::string(where) + " holds out-of-range packet ref " +
           std::to_string(ref));
    }
    ++refs[store_.dense_index(ref)];
  };
  auto alloc_bit = [this](RouterId r) {
    const Shard& sh = shards_[static_cast<std::size_t>(
        shard_of_router_[static_cast<std::size_t>(r)])];
    const auto bit = static_cast<std::size_t>(r - sh.r_begin);
    return (sh.alloc_active[bit >> 6] >> (bit & 63)) & 1;
  };

  // Credit accounting: every output VC within [0, capacity].
  const auto& credits = hot_.all_credits();
  const auto& caps = hot_.all_credit_capacity();
  for (std::size_t i = 0; i < credits.size(); ++i) {
    if (credits[i] < 0 || credits[i] > caps[i]) {
      fail("flat output VC " + std::to_string(i) + " credits " +
           std::to_string(credits[i]) + " outside [0, " +
           std::to_string(caps[i]) + "]");
    }
  }

  // Input FIFOs: occupancy array vs mask vs contents. Every VC's
  // occupancy must agree with its mask bit; only non-empty VCs (mask
  // bits) pay the object walk.
  for (RouterId r = 0; r < R; ++r) {
    const Router& router = *routers_[static_cast<std::size_t>(r)];
    const std::int32_t* occ = hot_.in_occupancy(r);
    const PacketRef* heads = hot_.in_head(r);
    const std::uint64_t* mask = hot_.in_mask(r);
    int buffered = 0;
    for (int flat = 0; flat < l.in_stride(); ++flat) {
      const bool bit = (mask[flat >> 6] >> (flat & 63)) & 1;
      if ((occ[flat] > 0) != bit) {
        fail("router " + std::to_string(r) + " flat input VC " +
             std::to_string(flat) + " occupancy " +
             std::to_string(occ[flat]) + " inconsistent with mask bit " +
             std::to_string(bit));
      }
      if (!bit) continue;
      const PortId port = l.port_of_in_vc[static_cast<std::size_t>(flat)];
      const VcId vc = static_cast<VcId>(
          flat - l.in_vc_off[static_cast<std::size_t>(port)]);
      const VcFifo& fifo =
          router.input(port).vcs[static_cast<std::size_t>(vc)];
      int phits = 0;
      for (const PacketRef ref : fifo.contents()) {
        note(ref, "input fifo");
        phits += store_[ref].size_phits;
      }
      buffered += static_cast<int>(fifo.packets());
      if (phits != occ[flat] || phits > fifo.capacity()) {
        fail("input fifo occupancy " + std::to_string(occ[flat]) +
             " != buffered phits " + std::to_string(phits) +
             " (capacity " + std::to_string(fifo.capacity()) + ")");
      }
      if (heads[flat] != fifo.contents().front()) {
        fail("router " + std::to_string(r) + " flat input VC " +
             std::to_string(flat) + " head slot " +
             std::to_string(heads[flat]) + " != FIFO front " +
             std::to_string(fifo.contents().front()));
      }
    }
    if (active_kernel_ && buffered > 0 && alloc_bit(r) == 0) {
      fail("router " + std::to_string(r) +
           " has buffered packets but is not in the allocation set");
    }
  }

  // Output queues: walk contents only where the occupancy counter says
  // there is a backlog.
  for (RouterId r = 0; r < R; ++r) {
    const Router& router = *routers_[static_cast<std::size_t>(r)];
    for (PortId port = 0; port < ports; ++port) {
      const OutputPort& out = router.output(port);
      if (out.queue_occupancy() == 0 && out.queue_empty()) continue;
      int phits = 0;
      for (const PendingTx& tx : out.pending()) {
        note(tx.pkt, "output queue");
        phits += store_[tx.pkt].size_phits;
      }
      if (phits != out.queue_occupancy()) {
        fail("router " + std::to_string(r) + " port " + std::to_string(port) +
             " queue occupancy " + std::to_string(out.queue_occupancy()) +
             " != queued phits " + std::to_string(phits));
      }
    }
  }

  // Node source queues.
  for (const Node& node : nodes_) {
    for (const PacketRef ref : node.source_queue()) note(ref, "node queue");
  }

  // Pending events: packets in flight, each booked in its router's
  // shard (the calendars themselves refuse anything outside their
  // window). Between cycles every outbox is empty.
  for (const Shard& sh : shards_) {
    sh.events.for_each([&](Cycle, const Event& ev) {
      if (ev.type == Event::Type::kPacket) note(ev.pkt, "event calendar");
      if (ev.router < sh.r_begin || ev.router >= sh.r_end) {
        fail("event for router " + std::to_string(ev.router) +
             " booked in a foreign shard's calendar");
      }
    });
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      if (!sh.out_credits[dst].empty() || !sh.out_packets[dst].empty()) {
        fail("non-empty outbox between cycles (merge missed)");
      }
    }
    if (!sh.out_deliveries.empty()) {
      fail("non-empty delivery outbox between cycles (merge missed)");
    }
  }
  deliveries_.for_each(
      [&](Cycle, const Delivery& d) { note(d.pkt, "delivery calendar"); });

  // Transmit calendars (active kernel): every non-empty output queue
  // has exactly one outstanding fire, booked at its head's exact wire
  // time.
  if (active_kernel_) {
    std::vector<std::uint8_t> fires(
        static_cast<std::size_t>(R) * static_cast<std::size_t>(ports), 0);
    for (const Shard& sh : shards_) {
      sh.fires.for_each([&](Cycle t, std::int32_t rp) {
        const auto r = static_cast<RouterId>(rp / ports);
        const auto port = static_cast<PortId>(rp % ports);
        const OutputPort& out =
            routers_[static_cast<std::size_t>(r)]->output(port);
        if (out.queue_empty()) {
          fail("transmit fire for empty queue (router " + std::to_string(r) +
               " port " + std::to_string(port) + ")");
        }
        if (out.next_fire() != t) {
          fail("transmit fire @" + std::to_string(t) + " but router " +
               std::to_string(r) + " port " + std::to_string(port) +
               " head is due @" + std::to_string(out.next_fire()));
        }
        ++fires[static_cast<std::size_t>(rp)];
      });
    }
    for (RouterId r = 0; r < R; ++r) {
      for (PortId port = 0; port < ports; ++port) {
        const OutputPort& out =
            routers_[static_cast<std::size_t>(r)]->output(port);
        const std::uint8_t n =
            fires[static_cast<std::size_t>(r) * static_cast<std::size_t>(ports) +
                  static_cast<std::size_t>(port)];
        if (!out.queue_empty() && n != 1) {
          fail("router " + std::to_string(r) + " port " +
               std::to_string(port) + " has " + std::to_string(n) +
               " outstanding transmit fires (want 1)");
        }
      }
    }
  }

  // Orphan sweep: every live arena slot referenced exactly once, every
  // dead slot unreferenced (dense arena-major enumeration).
  const std::vector<char> live = store_.live_mask();
  std::size_t d = 0;
  for (int a = 0; a < store_.arenas(); ++a) {
    for (std::uint32_t slot = 0; slot < store_.arena_size(a); ++slot, ++d) {
      if (live[d] && refs[d] != 1) {
        fail("live packet " +
             std::to_string(store_[PacketStore::make_ref(a, slot)].id) +
             " in arena " + std::to_string(a) + " slot " +
             std::to_string(slot) + " referenced " + std::to_string(refs[d]) +
             " times (orphaned or duplicated)");
      }
      if (!live[d] && refs[d] != 0) {
        fail("freed arena " + std::to_string(a) + " slot " +
             std::to_string(slot) + " still referenced " +
             std::to_string(refs[d]) + " times");
      }
    }
  }
}

// --- shard sinks (shard-owned storage only) --------------------------------

void Network::Shard::post(std::vector<std::vector<Event>>& boxes,
                          const Event& ev) {
  if (direct) {
    events.push(ev.when, ev);
  } else {
    boxes[static_cast<std::size_t>(
              net->shard_of_router_[static_cast<std::size_t>(ev.router)])]
        .push_back(ev);
  }
}

void Network::Shard::schedule_packet(RouterId router, PortId port, VcId vc,
                                     PacketRef pkt, Cycle when) {
  post(out_packets, Event{.when = when,
                          .type = Event::Type::kPacket,
                          .router = router,
                          .port = port,
                          .vc = vc,
                          .pkt = pkt});
}

void Network::Shard::schedule_credit(RouterId router, PortId out_port,
                                     VcId vc, int phits, Cycle when) {
  post(out_credits, Event{.when = when,
                          .type = Event::Type::kCredit,
                          .router = router,
                          .port = out_port,
                          .vc = vc,
                          .phits = phits});
}

void Network::Shard::schedule_delivery(PacketRef pkt, Cycle when) {
  if (direct) {
    net->deliveries_.push(when, Delivery{when, pkt});
  } else {
    out_deliveries.push_back(Delivery{when, pkt});
  }
}

void Network::Shard::schedule_port_ready(RouterId router, PortId port,
                                         Cycle when) {
  // Always the emitting router's own port (grant pipeline-ready and
  // next-transmission fires), so the calendar is shard-local. A fire due
  // now comes only from the allocation phase (pipeline latency 0 with a
  // free link), which the same cycle's transmit phase consumes.
  fires.push(when, router * net->hot_.layout().ports + port);
}

// --- statistics ------------------------------------------------------------

std::int64_t Network::generated_packets_total() const {
  std::int64_t sum = 0;
  for (const auto& node : nodes_) sum += node.generated_total();
  return sum;
}

std::int64_t Network::generated_packets_measured() const {
  std::int64_t sum = 0;
  for (const auto& node : nodes_) sum += node.generated_measured();
  return sum;
}

std::vector<std::int64_t> Network::injections_per_router() const {
  return collector_.injected_measured_per_router();
}

std::int64_t Network::total_forward_progress() const {
  return collector_.forwarded_total_sum();
}

std::vector<double> Network::measured_injection_counts() const {
  // Fairness over routers whose nodes generate traffic (all of them for
  // UN/ADV/ADVc; the placement pattern keeps outside routers silent).
  const std::vector<std::int64_t>& injected =
      collector_.injected_measured_per_router();
  std::vector<double> counts;
  counts.reserve(injected.size());
  for (RouterId r = 0; r < topo_->num_routers(); ++r) {
    bool any = false;
    for (int i = 0; i < topo_->concentration() && !any; ++i) {
      any = traffic_->generates(topo_->node_id(r, i));
    }
    if (any) {
      counts.push_back(
          static_cast<double>(injected[static_cast<std::size_t>(r)]));
    }
  }
  return counts;
}

void Network::set_offered_load(double load) {
  if (load < 0.0 || load > static_cast<double>(cfg_.packet_size)) {
    throw std::invalid_argument("set_offered_load: load out of range");
  }
  cfg_.load = load;
  for (auto& node : nodes_) node.set_offered_load(load, cfg_.packet_size);
}

void Network::set_traffic(const std::string& registry_name) {
  cfg_.traffic_name = traffic_registry().resolve(registry_name);
  traffic_ = make_traffic(*topo_, cfg_);
  for (auto& node : nodes_) node.set_pattern(traffic_.get());
  rebuild_node_masks();
}

int Network::generating_nodes() const {
  if (workload_ != nullptr) return workload_->accepted_denominator();
  return generating_nodes_;
}

bool Network::workload_post_send(NodeId src, NodeId dst, bool measuring,
                                 std::int32_t job) {
  Node& node = nodes_[static_cast<std::size_t>(src)];
  if (!node.post_send(dst, now_, measuring, job)) return false;
  // The sender is usually outside the generator mask (its Bernoulli
  // source is parked), so the injection phase only sees the new packet
  // through the queue bit.
  Shard& sh = shard_of(router_of_node_[static_cast<std::size_t>(src)]);
  const auto bit = static_cast<std::size_t>(src - sh.n_begin);
  sh.queue_mask[bit >> 6] |= 1ull << (bit & 63);
  return true;
}

void Network::refresh_node_activation(NodeId n) {
  Shard& sh = shard_of(router_of_node_[static_cast<std::size_t>(n)]);
  const auto bit = static_cast<std::size_t>(n - sh.n_begin);
  const std::uint64_t mask = 1ull << (bit & 63);
  std::uint64_t& word = sh.gen_mask[bit >> 6];
  const bool was = (word & mask) != 0;
  const bool gen = nodes_[static_cast<std::size_t>(n)].generates();
  if (gen && !was) {
    word |= mask;
    ++generating_nodes_;
  } else if (!gen && was) {
    word &= ~mask;
    --generating_nodes_;
  }
}

// --- checkpoint (format v4: partition-independent canonical form) ----------
//
// Packet references are serialized as canonical indices: a packet's
// position in the canonical traversal (sorted pending events, delivery
// calendar, routers ascending, nodes ascending), which depends only on
// the simulation state — not on arena layout, free-list history or
// shard count. Pending packet/credit events are written sorted by
// (when, type, router, port, vc, phits): dispatching a bucket in any
// order yields the same state, because same-bucket handlers touch
// disjoint state (a packet arrival writes one input VC; a credit return
// writes one output VC's counter) and the commutative accumulations
// (buffered counts, activation bits) are order-free — so a restore
// dispatching sorted buckets is bit-identical to the uninterrupted run.
// Delivery events are NOT sorted: their stored order IS the canonical
// collector accumulation order (it is partition-independent by the
// outbox merge rule).

void Network::save(CheckpointWriter& ck) const {
  ck.tag("Network");
  // Live scenario selection first: scripted phases may have moved it
  // away from the constructor config, and load() must re-apply it
  // before node state lands.
  ck.f64(cfg_.load);
  ck.str(cfg_.traffic_key());
  ck.boolean(generation_enabled_);
  ck.i64(now_);
  ck.i64(dispatched_events_);

  // Gather pending packet/credit events across all shard calendars and
  // sort them into the canonical order. Each calendar holds an event in
  // the bucket of its due cycle (`when`), so gathering one due cycle at
  // a time, shards in order, and stable-sorting each group by the rest
  // of the key gives exactly a global stable sort of the shard-order
  // gather. The transmit calendar is *not* serialized: it is derived
  // state, rebuilt from the output queues on load (rebuild_activation),
  // which also makes checkpoint streams kernel-independent.
  std::vector<Event> events;
  Cycle first_due = std::numeric_limits<Cycle>::max();
  Cycle last_due = std::numeric_limits<Cycle>::min();
  for (const Shard& sh : shards_) {
    first_due = std::min(first_due, sh.events.next());
    last_due = std::max(last_due, sh.events.next() + sh.events.horizon());
  }
  for (Cycle due = first_due; due <= last_due; ++due) {
    const std::size_t group = events.size();
    for (const Shard& sh : shards_) {
      sh.events.for_each_due(due,
                             [&](const Event& ev) { events.push_back(ev); });
    }
    if (events.size() - group < 2) continue;
    std::stable_sort(events.begin() + static_cast<std::ptrdiff_t>(group),
                     events.end(), [](const Event& a, const Event& b) {
                       return std::tie(a.type, a.router, a.port, a.vc,
                                       a.phits) <
                              std::tie(b.type, b.router, b.port, b.vc,
                                       b.phits);
                     });
  }
  // Delivery calendar in stored (canonical) order.
  std::vector<Delivery> deliveries;
  deliveries_.for_each(
      [&](Cycle, const Delivery& d) { deliveries.push_back(d); });

  // Canonical packet numbering: order of first (and only — the
  // invariant sweep enforces single ownership) appearance in the
  // canonical traversal.
  std::vector<std::int32_t> canon(store_.dense_capacity(), -1);
  std::vector<PacketRef> order;
  order.reserve(store_.live());
  auto visit = [&](PacketRef ref) {
    std::int32_t& c = canon[store_.dense_index(ref)];
    if (c < 0) {
      c = static_cast<std::int32_t>(order.size());
      order.push_back(ref);
    }
  };
  for (const Event& ev : events) {
    if (ev.type == Event::Type::kPacket) visit(ev.pkt);
  }
  for (const Delivery& d : deliveries) visit(d.pkt);
  const int ports = hot_.layout().ports;
  for (const auto& router : routers_) {
    for (PortId p = 0; p < ports; ++p) {
      for (const VcFifo& vcf : router->input(p).vcs) {
        for (const PacketRef ref : vcf.contents()) visit(ref);
      }
    }
    for (PortId p = 0; p < ports; ++p) {
      for (const PendingTx& tx : router->output(p).pending()) visit(tx.pkt);
    }
  }
  for (const Node& node : nodes_) {
    for (const PacketRef ref : node.source_queue()) visit(ref);
  }
  if (order.size() != store_.live()) {
    throw std::logic_error(
        "checkpoint: live packet not reachable from any holder (" +
        std::to_string(order.size()) + " reachable, " +
        std::to_string(store_.live()) + " live)");
  }

  // Live packets, in canonical order. Arena assignment on load is
  // re-derived from pkt.src under the restoring network's partition.
  ck.tag("Packets");
  ck.u64(order.size());
  for (const PacketRef ref : order) store_[ref].save(ck);

  ck.set_packet_xlat([&canon, this](std::int32_t ref) {
    return canon[store_.dense_index(ref)];
  });
  ck.tag("Events");
  ck.u64(events.size());
  for (const Event& ev : events) {
    ck.i64(ev.when);
    ck.u8(static_cast<std::uint8_t>(ev.type));
    ck.i32(ev.router);
    ck.i32(ev.port);
    ck.i32(ev.vc);
    ck.i32(ev.phits);
    ck.pkt(ev.pkt);
  }
  ck.tag("Deliveries");
  ck.u64(deliveries.size());
  for (const Delivery& d : deliveries) {
    ck.i64(d.when);
    ck.pkt(d.pkt);
  }

  collector_.save(ck);
  hot_.save(ck);
  for (const auto& router : routers_) router->save(ck);
  // v5: workload driver state precedes the nodes — Node::load re-derives
  // its generates() flag against the pattern pointers the driver's load
  // re-binds (churn jobs own their patterns).
  if (workload_ != nullptr) workload_->save(ck);
  for (const auto& node : nodes_) node.save(ck);
  ck.set_packet_xlat(nullptr);
}

void Network::load(CheckpointReader& ck) {
  ck.tag("Network");
  const double load = ck.f64();
  const std::string traffic = ck.str();
  if (traffic != cfg_.traffic_key()) set_traffic(traffic);
  set_offered_load(load);
  generation_enabled_ = ck.boolean();
  now_ = ck.i64();
  dispatched_events_ = ck.i64();

  // Recreate the live packets under *this* network's partition: each
  // packet goes into the arena of the shard owning its source node.
  ck.tag("Packets");
  store_.configure(static_cast<int>(shards_.size()));
  const std::uint64_t live = ck.u64();
  const int nodes = static_cast<int>(nodes_.size());
  const int routers = topo_->num_routers();
  std::vector<PacketRef> canon2ref;
  canon2ref.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(live, 1u << 20)));
  for (std::uint64_t i = 0; i < live; ++i) {
    Packet p;
    p.load(ck);
    // Every id the kernel uses as an index: refused here, not read out
    // of bounds later. The non-minimal path fields may be unset (-1)
    // except on the way to the intermediate group, where routing uses
    // them.
    check_packet_field("source node", p.src, 0, nodes);
    check_packet_field("destination node", p.dst, 0, nodes);
    check_packet_field("current router", p.current_router, 0, routers);
    check_packet_field("phase", static_cast<int>(p.phase), 0,
                       static_cast<int>(dragonfly::Phase::kCommitted) + 1);
    const int nm_lo = p.phase == dragonfly::Phase::kToIntermediate ? 0 : -1;
    check_packet_field("intermediate group", p.intermediate_group, nm_lo,
                       topo_->num_groups());
    check_packet_field("non-minimal exit router", p.nm_exit_router, nm_lo,
                       routers);
    check_packet_field("non-minimal exit port", p.nm_exit_port, nm_lo,
                       hot_.layout().ports);
    if (p.size_phits != cfg_.packet_size) {
      throw std::runtime_error("checkpoint: packet of " +
                               std::to_string(p.size_phits) +
                               " phits (packet_size is " +
                               std::to_string(cfg_.packet_size) + ")");
    }
    const int arena = shard_of_router_[static_cast<std::size_t>(
        router_of_node_[static_cast<std::size_t>(p.src)])];
    const PacketRef ref = store_.create(arena);
    store_[ref] = p;
    canon2ref.push_back(ref);
  }
  ck.set_packet_xlat([table = std::move(canon2ref)](std::int32_t c) {
    if (c < 0 || static_cast<std::size_t>(c) >= table.size()) {
      throw std::runtime_error(
          "checkpoint: canonical packet index out of range");
    }
    return table[static_cast<std::size_t>(c)];
  });

  // Pending events are booked only after they are checked against the
  // wiring and the calendar windows; the calendars were built for the
  // config's largest delay, and nothing saved between cycles lies
  // outside them.
  auto window = [](const char* what, Cycle due, const auto& calendar) {
    if (!calendar.in_window(due)) {
      throw std::runtime_error(
          std::string("checkpoint: ") + what + " due @" + std::to_string(due) +
          " outside the calendar window of " +
          std::to_string(calendar.horizon()) + " cycles from @" +
          std::to_string(calendar.next()));
    }
  };
  for (Shard& sh : shards_) sh.events.reset(now_);
  deliveries_.reset(now_);
  ck.tag("Events");
  const std::uint64_t pending = ck.u64();
  for (std::uint64_t i = 0; i < pending; ++i) {
    Event ev;
    ev.when = ck.i64();
    const std::uint8_t type = ck.u8();
    ev.type = static_cast<Event::Type>(type);
    ev.router = ck.i32();
    ev.port = ck.i32();
    ev.vc = ck.i32();
    ev.phits = ck.i32();
    ev.pkt = ck.pkt();
    if (type > static_cast<std::uint8_t>(Event::Type::kCredit)) {
      throw std::runtime_error("checkpoint: pending event of unknown type " +
                               std::to_string(type));
    }
    if (ev.router < 0 || ev.router >= topo_->num_routers() || ev.port < 0 ||
        ev.port >= hot_.layout().ports) {
      throw std::runtime_error("checkpoint: pending event for router " +
                               std::to_string(ev.router) + " port " +
                               std::to_string(ev.port) +
                               ", which does not exist");
    }
    // A packet lands on a linked input VC; a credit returns a packet's
    // phits to a linked output VC.
    const Router& router = *routers_[static_cast<std::size_t>(ev.router)];
    const bool packet = ev.type == Event::Type::kPacket;
    const bool linked =
        packet ? router.input(ev.port).upstream_router != kInvalidRouter
               : router.output(ev.port).peer() != kInvalidRouter;
    const int vcs =
        packet ? static_cast<int>(router.input(ev.port).vcs.size())
               : router.output(ev.port).num_vcs();
    if (!linked || ev.vc < 0 || ev.vc >= vcs ||
        (packet ? ev.pkt < 0
                : ev.pkt != kNoPacket || ev.phits != cfg_.packet_size)) {
      throw std::runtime_error(
          std::string("checkpoint: malformed pending ") +
          (packet ? "packet" : "credit") + " event at router " +
          std::to_string(ev.router) + " port " + std::to_string(ev.port) +
          " vc " + std::to_string(ev.vc));
    }
    Shard& sh = shard_of(ev.router);
    window("pending event", ev.when, sh.events);
    // Direct placement: the events arrive in canonical (sorted) order
    // and dispatch within a bucket is order-free (see the format note).
    sh.events.push(ev.when, ev);
  }
  ck.tag("Deliveries");
  const std::uint64_t n_deliveries = ck.u64();
  for (std::uint64_t i = 0; i < n_deliveries; ++i) {
    Delivery d;
    d.when = ck.i64();
    d.pkt = ck.pkt();
    if (d.pkt < 0) {
      throw std::runtime_error("checkpoint: delivery without a packet");
    }
    window("delivery", d.when, deliveries_);
    deliveries_.push(d.when, d);
  }

  collector_.load(ck);
  hot_.load(ck);
  for (auto& router : routers_) router->load(ck);
  if (workload_ != nullptr) workload_->load(ck);
  for (auto& node : nodes_) node.load(ck);
  ck.set_packet_xlat(nullptr);
  // Re-derive the activation caches (alloc set, node masks, transmit
  // calendar) from the restored authoritative state.
  rebuild_activation();
}

}  // namespace dragonfly
