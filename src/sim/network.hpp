// Network: builds the full dragonfly (topology, routers, nodes, wiring),
// owns the event calendars and advances the simulation cycle by cycle.
//
// Since the data-oriented kernel refactor the per-cycle work is split
// into explicit phases over *active* state (sim.kernel=active, the
// default):
//
//   0. event dispatch  — packet arrivals and credit returns due this
//                        cycle (the calendar ring feeds activations: a
//                        packet arrival marks its router allocatable);
//                        deliveries live on a separate calendar drained
//                        serially at the top of the cycle, so the
//                        order-sensitive collector accumulation never
//                        depends on the execution layout;
//   1. routing refresh — only when the mechanism has per-cycle global
//                        state (PiggyBack's in-group broadcast);
//   2. injection       — only nodes that generate traffic or hold queued
//                        packets step (skipped nodes draw no RNG);
//   3. allocation      — only routers with buffered packets arbitrate,
//                        visited in ascending id order (the dense-scan
//                        order, so RNG draws and event insertion order —
//                        the deterministic tie-breaks — are unchanged);
//   4. link transfer   — event-driven: a transmission's wire time is an
//                        exact function of its grant cycle and the link
//                        serialization deadline, so output ports fire
//                        from a transmit calendar instead of being
//                        polled; fires are processed in (router, port)
//                        order, again matching the dense scan.
//
// sim.kernel=scan keeps the dense reference path (walk every node,
// router and port each cycle) over the same structure-of-arrays state;
// both kernels are bit-identical, which the conformance tests assert.
//
// --- sharded stepping (sim.shards > 1) -----------------------------------
//
// The routers are partitioned into contiguous shards; each shard owns
// its range of routers, nodes, SoA hot-state rows, a private event and
// transmit calendar, a private packet arena, and per-destination-shard
// outboxes. Within a cycle the phases run shard-parallel through a
// ParallelRunner; this is conservative parallel discrete-event
// simulation with one cycle of lookahead — every cross-router effect
// (packet, credit, delivery) is due at least one cycle in the future
// because link latencies, credit latencies and packet serialization are
// all >= 1 — so shards never need each other's current-cycle state.
// At the cycle barrier the outboxes are merged in canonical order
// (per emission cycle: all credit streams in ascending source-shard
// order, then all packet streams — which, with contiguous ascending
// shard ranges, reproduces exactly the serial kernel's bucket insertion
// order), keeping results bit-identical for ANY shard count. See
// DESIGN.md "Parallel kernel & ParallelRunner".
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "metrics/collector.hpp"
#include "router/packet.hpp"
#include "router/router.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/hot_state.hpp"
#include "sim/node.hpp"
#include "topology/topology.hpp"
#include "traffic/pattern.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;
class ParallelRunner;
class WorkloadDriver;

class Network final : public EventSink {
 public:
  explicit Network(const SimConfig& cfg);

  /// Build over a pre-constructed shared topology. nullptr acquires
  /// one from TopologyCache::process_cache(): the shape's shared entry
  /// for the built-in families, a private build for a user-registered
  /// family. Topologies are immutable after finalize(),
  /// so one instance may back any number of concurrent networks — which
  /// amortizes the O(links²) construction over a sweep's sessions. The
  /// injected topology must describe the shape cfg selects (checked
  /// against try_topology_shape when the family provides one; mismatch
  /// throws).
  Network(const SimConfig& cfg, std::shared_ptr<const Topology> topo);
  ~Network() override;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advance one link-clock cycle (see the phase list above).
  void step();
  Cycle now() const { return now_; }

  void begin_measurement();
  void end_measurement();

  /// Cross-check the simulation state (paranoid mode, `sim.paranoid=N`):
  /// credit counters within [0, capacity], every live packet in the
  /// arena referenced exactly once (input VC FIFOs, output queues, node
  /// source queues, in-flight events), pending events within the ring
  /// horizon, and the active-set/hot-state caches (occupancy counters,
  /// head-of-line slots, non-empty masks, transmit calendar) consistent
  /// with the FIFO contents. Throws std::logic_error on the first
  /// violation. Cost scales with *active* state: idle ports and empty
  /// FIFOs are skipped via the hot-state masks, so `sim.paranoid=1` is
  /// usable on large shapes. Runs every N cycles from step() when the
  /// knob is set; free when it is 0.
  void check_invariants() const;

  // --- scripted-phase mutations (Session segment boundaries) --------------
  /// Change the offered load of every generating node mid-run.
  void set_offered_load(double load);
  /// Swap the traffic pattern mid-run (any traffic_registry() name);
  /// re-evaluates which nodes generate.
  void set_traffic(const std::string& registry_name);
  /// Gate packet generation (the Drain phase flushes with this off;
  /// injection of already-queued packets continues).
  void set_generation_enabled(bool on) { generation_enabled_ = on; }
  bool generation_enabled() const { return generation_enabled_; }

  // --- EventSink (the serial sink: shards=1 routers, rebuild paths) --------
  void schedule_packet(RouterId router, PortId port, VcId vc, PacketRef pkt,
                       Cycle when) override;
  void schedule_credit(RouterId router, PortId out_port, VcId vc, int phits,
                       Cycle when) override;
  void schedule_delivery(PacketRef pkt, Cycle when) override;
  void schedule_port_ready(RouterId router, PortId port, Cycle when) override;

  // --- execution ------------------------------------------------------------
  /// Inject the runner sharded stepping uses (non-owning; nullptr resets
  /// to the internally owned default). With sim.shards=1 the runner is
  /// never consulted. An injected runner must outlive the network or be
  /// reset before it is destroyed.
  void set_runner(ParallelRunner* runner) { runner_ = runner; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard owning a router (contiguous ascending ranges).
  int shard_of_router(RouterId r) const {
    return shard_of_router_[static_cast<std::size_t>(r)];
  }

  // --- accessors -------------------------------------------------------------
  const SimConfig& config() const { return cfg_; }
  const Topology& topology() const { return *topo_; }
  RoutingAlgorithm& routing() { return *routing_; }
  const TrafficPattern& traffic() const { return *traffic_; }
  MetricsCollector& collector() { return collector_; }
  const MetricsCollector& collector() const { return collector_; }
  PacketStore& packets() { return store_; }
  const HotState& hot() const { return hot_; }
  Router& router(RouterId id) { return *routers_[static_cast<std::size_t>(id)]; }
  const Router& router(RouterId id) const {
    return *routers_[static_cast<std::size_t>(id)];
  }
  Node& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }
  int num_routers() const { return topo_->num_routers(); }
  int num_nodes() const { return topo_->num_nodes(); }
  /// Accepted-load denominator: nodes that generate traffic under the
  /// configured pattern — or, with a workload driver attached, the
  /// driver's stable participant population (the instantaneous mask
  /// count fluctuates under bursty modulation and job churn).
  int generating_nodes() const;

  // --- workload-driver plumbing (serial call sites only) --------------------
  /// The workload subsystem driver (nullptr unless cfg.workload.mode is
  /// set); stepped serially at the top of every cycle.
  WorkloadDriver* workload() { return workload_.get(); }
  const WorkloadDriver* workload() const { return workload_.get(); }
  /// Directed collective send: Node::post_send plus the shard queue-mask
  /// update the injection phase needs to see the new packet (the node is
  /// typically not in the generator mask).
  bool workload_post_send(NodeId src, NodeId dst, bool measuring,
                          std::int32_t job);
  /// Incremental generator-mask update after a Node workload-gate flip
  /// (bursty toggles, job arrival/departure) — the O(1) alternative to a
  /// full rebuild_node_masks() sweep.
  void refresh_node_activation(NodeId n);
  /// Re-derive the per-shard generator/queue bitmaps and the generating-
  /// node count from node state (serial; also used at build and load).
  void rebuild_node_masks();

  std::int64_t generated_packets_total() const;
  std::int64_t generated_packets_measured() const;
  /// Per-router injected packets during the measured window.
  std::vector<std::int64_t> injections_per_router() const;
  /// Measured injections of routers whose nodes generate traffic — the
  /// fairness population (placement keeps outside routers silent).
  std::vector<double> measured_injection_counts() const;
  /// Sum of forwarded-packet counters, for deadlock detection.
  std::int64_t total_forward_progress() const;
  /// Monotone count of dispatched link events: an O(1) progress signal the
  /// watchdog consults before falling back to the exact per-router sum.
  std::int64_t dispatched_events() const { return dispatched_events_; }

  // --- checkpoint -----------------------------------------------------------
  /// Serialize all mutable network state (format v4): clock, live
  /// packets in canonical order, pending events in canonical order,
  /// collector, hot-state blocks, routers, nodes, plus the live
  /// load/traffic selection (scripted phases may have diverged from the
  /// constructor config). Packet references are written as canonical
  /// indices and events sorted by a partition-independent key, so the
  /// stream is identical for any sim.shards value and restores
  /// bit-exact into a network built with a *different* shard count.
  /// load() expects a network freshly built from the same config
  /// (sim.kernel and sim.shards may differ: the serialized state is
  /// kernel- and partition-independent; the active-set /
  /// transmit-calendar caches are re-derived on load).
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  struct Event {
    Cycle when = 0;
    enum class Type : std::uint8_t { kPacket, kCredit, kDelivery } type =
        Type::kPacket;
    RouterId router = kInvalidRouter;
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    int phits = 0;
    PacketRef pkt = kNoPacket;
  };

  /// Per-shard emission proxy: routers of shard `shard` push events
  /// through this sink during the parallel phases. Everything lands in
  /// shard-owned storage (outboxes, the shard's transmit calendar), so
  /// no locking is needed; nested class, so it reaches Network privates.
  struct ShardSink final : public EventSink {
    Network* net = nullptr;
    std::int32_t shard = 0;
    void schedule_packet(RouterId router, PortId port, VcId vc, PacketRef pkt,
                         Cycle when) override;
    void schedule_credit(RouterId router, PortId out_port, VcId vc, int phits,
                         Cycle when) override;
    void schedule_delivery(PacketRef pkt, Cycle when) override;
    void schedule_port_ready(RouterId router, PortId port,
                             Cycle when) override;
  };

  /// One router shard: a contiguous [r_begin, r_end) x [n_begin, n_end)
  /// slice of the network with private calendars, activation bitmaps
  /// (bit index is relative to the range start, so shards never share a
  /// bitmap word) and per-destination-shard outboxes.
  struct Shard {
    RouterId r_begin = 0, r_end = 0;
    NodeId n_begin = 0, n_end = 0;
    /// Calendar event queue: bucket `t & ring_mask` holds the
    /// packet/credit events due at cycle t in insertion order. Link and
    /// credit delays are small and bounded, so a power-of-two ring sized
    /// past the largest delay covers all pending events; it grows if a
    /// longer delay ever appears. Buckets are reused, so steady-state
    /// scheduling does no allocation.
    std::vector<std::vector<Event>> ring;
    /// The bucket being dispatched, swapped out of the ring for the
    /// duration of the drain (see step()).
    std::vector<Event> due_scratch;
    std::size_t ring_mask = 0;
    /// Transmit calendar: bucket `t & tx_ring_mask` holds the flat
    /// (router * ports + port) ids whose output queue head goes on the
    /// wire exactly at cycle t. Sorted before processing so fires happen
    /// in (router, port) order — the dense-scan order.
    std::vector<std::vector<std::int32_t>> tx_ring;
    std::vector<std::int32_t> tx_scratch;
    std::size_t tx_ring_mask = 0;
    /// Routers with buffered input packets (bit r - r_begin). Set on
    /// packet arrival / node injection, cleared when a router drains in
    /// the allocation phase.
    std::vector<std::uint64_t> alloc_active;
    /// Nodes whose traffic pattern generates (bit n - n_begin; gated on
    /// generation_enabled_ at use) and nodes with queued packets.
    std::vector<std::uint64_t> gen_mask;
    std::vector<std::uint64_t> queue_mask;
    /// Per-cycle Bernoulli verdicts for gen_mask's nodes, filled by the
    /// batched phase A (build_hit_masks) and consumed by phase B.
    std::vector<std::uint64_t> hit_mask;
    /// Scratch bitmap over the shard's flat (router, port) space: the
    /// transmit phase scatters this cycle's due ports into it and walks
    /// the set bits, which yields ascending (router, port) order — the
    /// dense-scan order — without a sort. Always left zeroed.
    std::vector<std::uint64_t> tx_bitmap;
    /// Cycle-boundary mailboxes, one per destination shard. Credits and
    /// packets are kept in separate streams: the canonical merge order
    /// is "every shard's credits, then every shard's packets", matching
    /// the serial kernel's phase-3-before-phase-4 emission order.
    std::vector<std::vector<Event>> out_credits;
    std::vector<std::vector<Event>> out_packets;
    std::vector<Event> out_deliveries;
    /// Events dispatched by this shard's phase 0 this cycle; summed into
    /// dispatched_events_ at the barrier.
    std::int64_t dispatched = 0;
    /// Router::allocate's working storage, shared by the shard's routers
    /// (one shard is stepped by one thread at a time).
    std::unique_ptr<RouterScratch> scratch;
  };

  void build();
  void build_shards();
  void dispatch(const Event& ev);

  // --- per-shard phase bodies (run under the ParallelRunner at S>1) -------
  void shard_dispatch(Shard& sh);
  void shard_inject(Shard& sh, bool measuring);
  void shard_allocate(Shard& sh);
  void shard_transmit(Shard& sh);
  /// Phase A of shard_inject: evaluate the Bernoulli generation gate
  /// for every generator in the shard with batched draws over the
  /// NodeHot SoA bank (common/simd.hpp), filling sh.hit_mask.
  void build_hit_masks(Shard& sh);
  /// Serial top-of-cycle delivery drain (order-sensitive collector).
  void drain_deliveries();
  /// Serial cycle barrier: move outbox contents into the destination
  /// shards' calendars in canonical order.
  void merge_outboxes();
  ParallelRunner& effective_runner();

  // --- calendar plumbing ---------------------------------------------------
  void push_shard_event(Shard& sh, Cycle when, const Event& ev);
  void grow_shard_ring(Shard& sh, Cycle min_horizon);
  void grow_shard_tx_ring(Shard& sh, Cycle min_horizon);
  void push_delivery(PacketRef pkt, Cycle when);
  void grow_delivery_ring(Cycle min_horizon);

  // --- ShardSink entry points (shard-owned storage only) -------------------
  void shard_schedule_packet(int src, RouterId router, PortId port, VcId vc,
                             PacketRef pkt, Cycle when);
  void shard_schedule_credit(int src, RouterId router, PortId out_port,
                             VcId vc, int phits, Cycle when);
  void shard_schedule_delivery(int src, PacketRef pkt, Cycle when);
  void shard_schedule_port_ready(int src, RouterId router, PortId port,
                                 Cycle when);

  /// Re-derive every activation cache from the authoritative state:
  /// alloc-active bitmaps from buffered packets, node masks from the
  /// traffic pattern and source queues, the transmit calendars from the
  /// output queues (checkpoint load; also used at build time).
  void rebuild_activation();
  void mark_alloc_active(RouterId r) {
    Shard& sh = shards_[static_cast<std::size_t>(
        shard_of_router_[static_cast<std::size_t>(r)])];
    const auto bit = static_cast<std::size_t>(r - sh.r_begin);
    sh.alloc_active[bit >> 6] |= 1ull << (bit & 63);
  }

  SimConfig cfg_;
  /// Shared and immutable: possibly co-owned by other networks (and the
  /// TopologyCache) in this process.
  std::shared_ptr<const Topology> topo_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  std::unique_ptr<TrafficPattern> traffic_;
  PacketStore store_;
  MetricsCollector collector_;
  /// Structure-of-arrays hot state; routers bind their rows at build.
  HotState hot_;
  /// SoA bank of per-node generation state (RNG lanes, Bernoulli
  /// thresholds, queue-full bytes); nodes bind their lanes at build.
  NodeHot node_hot_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<Node> nodes_;
  /// Node id -> router id (hot injection-path lookup).
  std::vector<RouterId> router_of_node_;
  /// Workload subsystem (src/workload): non-null only when
  /// cfg.workload.mode != "off". Stepped serially right after the
  /// delivery drain, so its effects are bit-identical for any kernel,
  /// thread or shard count.
  std::unique_ptr<WorkloadDriver> workload_;

  // --- sharding -------------------------------------------------------------
  std::vector<Shard> shards_;
  std::vector<ShardSink> shard_sinks_;
  std::vector<std::int32_t> shard_of_router_;
  /// Delivery calendar, global across shards (the collector's floating-
  /// point accumulation is order-sensitive, so deliveries are always
  /// drained serially in canonical order at the top of the cycle —
  /// regardless of kernel or shard count).
  std::vector<std::vector<Event>> delivery_ring_;
  std::vector<Event> delivery_scratch_;
  std::size_t delivery_mask_ = 0;

  /// Injected runner (set_runner) > lazily created PoolRunner (S>1) >
  /// unused (S=1).
  ParallelRunner* runner_ = nullptr;
  std::unique_ptr<ParallelRunner> owned_runner_;

  bool active_kernel_ = true;
  bool routing_wants_refresh_ = true;

  std::int64_t dispatched_events_ = 0;
  Cycle now_ = 0;
  int generating_nodes_ = 0;
  bool generation_enabled_ = true;
};

}  // namespace dragonfly
