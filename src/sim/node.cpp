#include "sim/node.hpp"

#include <array>

#include "common/checkpoint.hpp"
#include "sim/hot_state.hpp"

namespace dragonfly {

Node::Node(NodeId id, Router* router, const TrafficPattern* pattern,
           RoutingAlgorithm* routing, PacketStore* store, const SimConfig* cfg,
           Rng rng, NodeHot& hot)
    : rng_(hot.s0() + id, hot.s1() + id, hot.s2() + id, hot.s3() + id),
      gen_prob_(cfg->load / static_cast<double>(cfg->packet_size)),
      queue_cap_(cfg->node_queue_capacity),
      generates_(pattern->generates(id)),
      threshold_slot_(hot.threshold() + id),
      mode_slot_(hot.mode() + id),
      blocked_slot_(hot.blocked() + id),
      id_(id),
      inj_port_(router->topology().injection_port(
          router->topology().node_index_in_router(id))),
      router_(router),
      pattern_(pattern),
      routing_(routing),
      store_(store),
      cfg_(cfg) {
  rng_.set_state(rng.state());
  sync_gen_params();
  sync_blocked();
}

void Node::generate_packet(Cycle now, bool measuring) {
  // Bernoulli hit (the step() gate or the batched phase A already drew
  // it). Destination and routing hooks take a value-type Rng&:
  // materialize the lane, write it back after — an exact round-trip.
  Rng rng = rng_.materialize();
  const NodeId dst = pattern_->destination(id_, rng);
  if (dst == kInvalidNode) {
    rng_.set_state(rng.state());
    return;
  }
  const PacketRef ref = store_->create(arena_);
  Packet& pkt = (*store_)[ref];
  pkt.id = (static_cast<PacketId>(id_) << 32) | generated_total_;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.size_phits = cfg_->packet_size;
  pkt.job = job_;
  pkt.t_gen = now;
  pkt.current_router = router_->id();
  routing_->on_inject(*router_, pkt, rng);
  rng_.set_state(rng.state());
  queue_.push_back(ref);
  ++queue_len_;
  sync_blocked();
  ++generated_total_;
  if (measuring) ++generated_measured_;
}

bool Node::post_send(NodeId dst, Cycle now, bool measuring,
                     std::int32_t job) {
  // Collective sends respect the same finite source queue as Bernoulli
  // generation; a full queue is backpressure the driver observes.
  if (queue_len_ >= queue_cap_ || dst == id_ || dst == kInvalidNode) {
    return false;
  }
  const PacketRef ref = store_->create(arena_);
  Packet& pkt = (*store_)[ref];
  pkt.id = (static_cast<PacketId>(id_) << 32) | generated_total_;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.size_phits = cfg_->packet_size;
  pkt.job = job;
  pkt.t_gen = now;
  pkt.current_router = router_->id();
  Rng rng = rng_.materialize();
  routing_->on_inject(*router_, pkt, rng);
  rng_.set_state(rng.state());
  queue_.push_back(ref);
  ++queue_len_;
  sync_blocked();
  ++generated_total_;
  if (measuring) ++generated_measured_;
  return true;
}

bool Node::inject_head(Cycle now) {
  // Injection into the router (1 phit/cycle node link).
  const PacketRef head = queue_.front();
  const int size = (*store_)[head].size_phits;
  // The injection port's VC buffers act as one logical injection queue:
  // keep the standing in-router backlog bounded to one buffer's worth so
  // saturation shows up as source backpressure, not as an ever-deeper
  // injection queue (FOGSim behaves the same way; see DESIGN.md).
  if (router_->input_occupancy(inj_port_) + size >
      cfg_->local_input_buffer) {
    return false;
  }
  // Spread packets over the injection VCs round-robin; take the first one
  // with room, starting from the rotating pointer.
  for (int probe = 0; probe < cfg_->injection_vcs; ++probe) {
    const VcId vc = static_cast<VcId>((next_vc_ + probe) % cfg_->injection_vcs);
    if (router_->can_accept_injection(inj_port_, vc, size)) {
      router_->inject(inj_port_, vc, head, now);
      queue_.pop_front();
      --queue_len_;
      sync_blocked();
      next_vc_ = static_cast<VcId>((vc + 1) % cfg_->injection_vcs);
      next_inject_allowed_ = now + size;
      return true;
    }
  }
  return false;
}

void Node::save(CheckpointWriter& ck) const {
  const auto rng_state = rng_.state();
  for (const std::uint64_t word : rng_state) ck.u64(word);
  ck.u64(queue_.size());
  for (const PacketRef ref : queue_) ck.pkt(ref);
  ck.i32(next_vc_);
  ck.i64(next_inject_allowed_);
  ck.i64(generated_total_);
  ck.i64(generated_measured_);
  // appended in checkpoint format v5
  ck.boolean(workload_on_);
  ck.i32(job_);
}

void Node::load(CheckpointReader& ck) {
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = ck.u64();
  rng_.set_state(rng_state);
  const std::uint64_t n = ck.u64();
  queue_.clear();
  for (std::uint64_t i = 0; i < n; ++i) queue_.push_back(ck.pkt());
  queue_len_ = static_cast<std::int32_t>(queue_.size());
  sync_blocked();
  next_vc_ = ck.i32();
  next_inject_allowed_ = ck.i64();
  generated_total_ = ck.i64();
  generated_measured_ = ck.i64();
  workload_on_ = ck.boolean();
  job_ = ck.i32();
  // generates_ is derived state: the pattern was bound at build time (or
  // re-bound by the workload driver just before nodes load — the v5
  // stream serializes the driver section first).
  generates_ =
      workload_on_ && pattern_ != nullptr && pattern_->generates(id_);
}

}  // namespace dragonfly
