// Compute node model: Bernoulli packet generation (Sec. IV-A) feeding a
// finite source queue, injected into the router at link rate.
#pragma once

#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/packet.hpp"
#include "router/router.hpp"
#include "sim/config.hpp"
#include "traffic/pattern.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;
class NodeHot;

class Node {
 public:
  /// `hot` (with this node's id as the lane index) holds the RNG lane,
  /// Bernoulli threshold/mode, queue-full byte and source-queue storage:
  /// the Network's NodeHot SoA bank, so the batched generation phase can
  /// read them contiguously. A standalone node binds a small NodeHot of
  /// its own.
  Node(NodeId id, Router* router, const TrafficPattern* pattern,
       RoutingAlgorithm* routing, PacketStore* store, const SimConfig* cfg,
       Rng rng, NodeHot& hot);

  NodeId id() const { return id_; }
  bool generates() const { return generates_; }

  /// One simulation cycle: possibly generate a packet (Bernoulli with
  /// probability load/packet_size, stalled while the source queue is
  /// full), then move the queue head into an injection VC buffer of the
  /// router (at most one packet every packet_size cycles: the node link
  /// carries one phit per cycle). With `generate` false only the
  /// injection half runs — the Session's Drain phase flushes in-flight
  /// traffic without admitting new packets. Returns true when a packet
  /// was injected into the router this cycle (the active-set kernel
  /// marks the router for allocation).
  ///
  /// Inline gate over out-of-line slow paths: the kernel calls this for
  /// every active node every cycle, and in the common case (no Bernoulli
  /// hit, nothing to inject) it is a handful of loads plus one inline
  /// RNG draw.
  bool step(Cycle now, bool measuring, bool generate = true) {
    if (generate && generates_ && queue_len_ < queue_cap_ &&
        rng_.bernoulli(gen_prob_)) {
      generate_packet(now, measuring);
    }
    if (queue_len_ == 0 || now < next_inject_allowed_) return false;
    return inject_head(now);
  }

  /// Active-kernel variant: the whole Bernoulli gate (generates_, queue
  /// slack, the draw itself) was evaluated for a 64-node window by the
  /// batched phase A of Network::shard_inject; `gen_hit` is this node's
  /// verdict. Bit-identical to step(): the batch advances exactly the
  /// lanes step() would have drawn, with the same per-lane sequence —
  /// only the cross-node draw order changes, and lanes are independent
  /// streams.
  bool step_pregen(Cycle now, bool measuring, bool gen_hit) {
    if (gen_hit) generate_packet(now, measuring);
    if (queue_len_ == 0 || now < next_inject_allowed_) return false;
    return inject_head(now);
  }
  std::int64_t generated_total() const { return generated_total_; }
  std::int64_t generated_measured() const { return generated_measured_; }
  std::size_t queue_length() const {
    return static_cast<std::size_t>(queue_len_);
  }
  /// Queued (generated, not yet injected) packets — the invariant sweep
  /// counts their arena references.
  const Ring<PacketRef>& source_queue() const { return queue_; }
  void reset_measured_counters() { generated_measured_ = 0; }

  // --- scripted-phase mutations (Network::set_* at cycle boundaries) -------
  /// Re-derive the per-cycle Bernoulli probability from a new offered
  /// load.
  void set_offered_load(double load, int packet_size) {
    gen_prob_ = load / static_cast<double>(packet_size);
    sync_gen_params();
  }
  /// Switch to a new pattern instance (re-evaluates generates()).
  void set_pattern(const TrafficPattern* pattern) {
    pattern_ = pattern;
    generates_ = workload_on_ && pattern->generates(id_);
  }
  /// PacketStore arena this node creates packets in (the owning shard's,
  /// set by Network at build time; defaults to arena 0).
  void set_arena(int arena) { arena_ = arena; }

  // --- workload-driver hooks (src/workload, serial call sites only) --------
  /// ON-OFF gate layered over the pattern's generates(): the bursty
  /// modulator and the churn job model park nodes without touching the
  /// pattern. OFF nodes fail the generates_ gate before the Bernoulli
  /// draw, so their RNG streams stay untouched (bit-identity with the
  /// workload off).
  void set_workload_on(bool on) {
    workload_on_ = on;
    generates_ = on && pattern_ != nullptr && pattern_->generates(id_);
  }
  bool workload_on() const { return workload_on_; }
  /// Job id stamped into every packet this node generates (-1 = none).
  void set_job(std::int32_t job) { job_ = job; }
  std::int32_t job() const { return job_; }
  /// Directed send for collective generators: enqueue one packet to
  /// `dst` (bypassing the Bernoulli gate and the pattern), stamped with
  /// `job`. Returns false when the finite source queue is full — the
  /// driver retries next cycle. Serial call sites only: uses this
  /// node's RNG for the routing injection decision.
  bool post_send(NodeId dst, Cycle now, bool measuring, std::int32_t job);

  /// Checkpoint mutable state (RNG, source queue, injection bookkeeping,
  /// counters); identity/wiring come from construction. load() rejects
  /// a stored source queue longer than node_queue_capacity.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  /// Bernoulli hit: create a packet towards the pattern's destination
  /// and append it to the source queue.
  void generate_packet(Cycle now, bool measuring);
  /// Move the queue head into an injection VC buffer if the router can
  /// take it; returns true on injection.
  bool inject_head(Cycle now);
  /// Re-derive the SoA threshold/mode slots from gen_prob_ (ctor,
  /// set_offered_load).
  void sync_gen_params() {
    if (gen_prob_ <= 0.0) {
      *mode_slot_ = 1;
      *threshold_slot_ = 0;
    } else if (gen_prob_ >= 1.0) {
      *mode_slot_ = 2;
      *threshold_slot_ = 0;
    } else {
      *mode_slot_ = 0;
      *threshold_slot_ = Rng::bernoulli_threshold(gen_prob_);
    }
  }
  /// Mirror the queue-full gate into the SoA blocked byte (every
  /// queue_len_ change).
  void sync_blocked() {
    *blocked_slot_ = queue_len_ >= queue_cap_ ? 1 : 0;
  }

  // Hot fields first: the step() gate runs for every active node every
  // cycle and should touch one cache line in the common case (no
  // Bernoulli hit, empty source queue). The RNG state itself lives in
  // the NodeHot lane rng_ points into.
  RngView rng_;
  /// Per-cycle Bernoulli generation probability load/packet_size, hoisted
  /// out of the hot step() loop.
  double gen_prob_;
  Cycle next_inject_allowed_ = 0;
  /// queue_.size(), mirrored as a plain int so the gate avoids the
  /// deque-iterator arithmetic (and the deque's cache lines).
  std::int32_t queue_len_ = 0;
  /// cfg_->node_queue_capacity, cached to skip the config pointer chase.
  std::int32_t queue_cap_;
  bool generates_;
  // This node's NodeHot slots.
  std::uint64_t* threshold_slot_;
  std::uint8_t* mode_slot_;
  std::uint8_t* blocked_slot_;

  // Cold fields: touched on generation hits, injections and bookkeeping.
  NodeId id_;
  PortId inj_port_;
  VcId next_vc_ = 0;
  int arena_ = 0;
  /// Workload-driver gate over generates_ (bursty OFF dwell, node not in
  /// any churn job). True (transparent) when the workload is off.
  bool workload_on_ = true;
  /// Job id stamped into generated packets (-1 outside any job).
  std::int32_t job_ = -1;
  Router* router_;
  const TrafficPattern* pattern_;
  RoutingAlgorithm* routing_;
  PacketStore* store_;
  const SimConfig* cfg_;
  Ring<PacketRef> queue_;
  std::int64_t generated_total_ = 0;
  std::int64_t generated_measured_ = 0;
};

}  // namespace dragonfly
