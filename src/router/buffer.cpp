#include "router/buffer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace dragonfly {

void VcFifo::push(PacketRef pkt, int size_phits) {
  if (*occ_ + size_phits > capacity_) {
    throw std::logic_error("VcFifo overflow: credit accounting broken");
  }
  *occ_ += size_phits;
  fifo_.push_back(pkt);
  if (fifo_.size() == 1) *head_ = pkt;
}

int VcFifo::pop(int size_phits) {
  if (fifo_.empty()) throw std::logic_error("VcFifo::pop on empty FIFO");
  fifo_.pop_front();
  *occ_ -= size_phits;
  if (*occ_ < 0) throw std::logic_error("VcFifo negative occupancy");
  *head_ = fifo_.empty() ? kNoPacket : fifo_.front();
  return size_phits;
}

int InputPort::total_occupancy() const {
  int sum = 0;
  for (const auto& vc : vcs) sum += vc.occupancy();
  return sum;
}

void OutputPort::configure(PortKind kind, RouterId peer, PortId peer_port,
                           Cycle link_latency, int queue_capacity, int num_vcs,
                           int credits_per_vc, OutputHotSlots slots) {
  kind_ = kind;
  peer_ = peer;
  peer_port_ = peer_port;
  link_latency_ = link_latency;
  queue_capacity_ = queue_capacity;
  num_vcs_ = num_vcs;
  credits_ = slots.credits;
  credit_capacity_ = slots.credit_capacity;
  queue_occupancy_ = slots.queue_occupancy;
  link_free_ = slots.link_free;
  for (int v = 0; v < num_vcs_; ++v) {
    credits_[v] = credits_per_vc;
    credit_capacity_[v] = credits_per_vc;
  }
  *queue_occupancy_ = 0;
  *link_free_ = 0;
  queue_ = slots.queue;
}

void OutputPort::take_credits(VcId vc, int phits) {
  credits_[vc] -= phits;
  if (credits_[vc] < 0) {
    throw std::logic_error("OutputPort: negative credits");
  }
}

void OutputPort::return_credits(VcId vc, int phits) {
  credits_[vc] += phits;
  if (credits_[vc] > credit_capacity_[vc]) {
    throw std::logic_error("OutputPort: credit overflow");
  }
}

int OutputPort::reserved_phits() const {
  int reserved = 0;
  for (int v = 0; v < num_vcs_; ++v) reserved += credit_capacity_[v] - credits_[v];
  return reserved;
}

double OutputPort::occupancy_fraction() const {
  if (kind_ == PortKind::kEjection) return 0.0;
  int cap = 0;
  for (int v = 0; v < num_vcs_; ++v) cap += credit_capacity_[v];
  if (cap == 0 || queue_capacity_ == 0) return 0.0;
  // Two congestion signatures, whichever is stronger:
  //  - backlog in this router's output queue (serialization-bound link:
  //    grants outpace the 1 phit/cycle drain);
  //  - downstream buffer reservation (credit loop: the next router is not
  //    draining its input VC buffers).
  const double queue_frac = static_cast<double>(*queue_occupancy_) /
                            static_cast<double>(queue_capacity_);
  const double reserved_frac =
      static_cast<double>(reserved_phits()) / static_cast<double>(cap);
  return std::max(queue_frac, reserved_frac);
}

double OutputPort::vc_occupancy_fraction(VcId vc) const {
  if (kind_ == PortKind::kEjection) return 0.0;
  const int cap = credit_capacity_[vc];
  if (cap == 0) return 0.0;
  return static_cast<double>(cap - credits_[vc]) / static_cast<double>(cap);
}

void OutputPort::enqueue(PacketRef pkt, VcId out_vc, Cycle ready,
                         int size_phits) {
  if (!queue_has_space(size_phits)) {
    throw std::logic_error("OutputPort queue overflow: allocator must check");
  }
  *queue_occupancy_ += size_phits;
  queue_.push_back(PendingTx{pkt, out_vc, ready});
}

bool OutputPort::can_transmit(Cycle now) const {
  return !queue_.empty() && queue_.front().ready <= now && *link_free_ <= now;
}

PendingTx OutputPort::begin_transmission(Cycle now, int size_phits) {
  PendingTx tx = queue_.front();
  queue_.pop_front();
  *queue_occupancy_ -= size_phits;
  *link_free_ = now + size_phits;  // serialization: 1 phit/cycle
  return tx;
}

void VcFifo::save(CheckpointWriter& ck) const {
  ck.u64(fifo_.size());
  for (const PacketRef ref : fifo_) ck.pkt(ref);
}

void VcFifo::load(CheckpointReader& ck) {
  const std::uint64_t n = ck.count(fifo_.capacity(), "input VC");
  fifo_.clear();
  for (std::uint64_t i = 0; i < n; ++i) fifo_.push_back(ck.pkt());
  refresh_head();
}

void OutputPort::save(CheckpointWriter& ck) const {
  ck.u64(queue_.size());
  for (const PendingTx& tx : queue_) {
    ck.pkt(tx.pkt);
    ck.i32(tx.out_vc);
    ck.i64(tx.ready);
  }
}

void OutputPort::load(CheckpointReader& ck) {
  const std::uint64_t n = ck.count(queue_.capacity(), "output queue");
  queue_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    const PacketRef pkt = ck.pkt();
    const VcId out_vc = ck.i32();
    const Cycle ready = ck.i64();
    queue_.push_back(PendingTx{pkt, out_vc, ready});
  }
}

}  // namespace dragonfly
