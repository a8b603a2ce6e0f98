// Input-port VC buffers, output-port queues and credit bookkeeping.
//
// Flow control is virtual cut-through at packet granularity: a grant
// reserves the whole packet in the downstream input VC buffer (credits
// decrement at grant time); the credit returns when the packet is in turn
// granted out of that buffer, delayed by the upstream link latency.
//
// The *hot* counters (credits, queue occupancy, link busy-until, FIFO
// occupancy, head-of-line packet) and the FIFO/queue storage itself live
// in a HotState structure-of-arrays (sim/hot_state.hpp); VcFifo and
// OutputPort hold pointers into it, bound at wiring time. Copies share
// those slots, so a container of them may relocate but each slot has
// exactly one live owner.
#pragma once

#include <span>

#include "common/ring.hpp"
#include "common/types.hpp"
#include "router/packet.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// FIFO of arrived packets for one virtual channel of an input port.
class VcFifo {
 public:
  /// Unbound; Router wiring assigns a bound one.
  VcFifo() = default;
  /// Occupancy, head and the packet storage (`fifo`, sized to the most
  /// packets `capacity_phits` can hold) live in the HotState slots
  /// passed here.
  VcFifo(int capacity_phits, std::int32_t* occupancy_slot,
         PacketRef* head_slot, Ring<PacketRef> fifo)
      : capacity_(capacity_phits),
        occ_(occupancy_slot),
        head_(head_slot),
        fifo_(fifo) {
    *occ_ = 0;
    *head_ = kNoPacket;
  }

  int capacity() const { return capacity_; }
  int occupancy() const { return *occ_; }
  int free_space() const { return capacity_ - *occ_; }
  bool empty() const { return fifo_.empty(); }
  std::size_t packets() const { return fifo_.size(); }

  PacketRef head() const { return *head_; }
  /// Buffered packets in arrival order (invariant sweeps, tests).
  const Ring<PacketRef>& contents() const { return fifo_; }

  void push(PacketRef pkt, int size_phits);
  /// Pop the head; returns the freed phit count.
  int pop(int size_phits);

  /// Checkpoint the FIFO ordering only; the occupancy counter lives in
  /// the HotState arrays and is serialized there. load() rejects a
  /// stored length above the FIFO's packet bound.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);
  /// Re-derive the head slot from the FIFO contents (checkpoint load).
  void refresh_head() { *head_ = fifo_.empty() ? kNoPacket : fifo_.front(); }

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  int capacity_ = 0;
  std::int32_t* occ_ = nullptr;
  PacketRef* head_ = nullptr;
  Ring<PacketRef> fifo_;
};

/// One input port: its VC FIFOs (a span of the router's flat VcFifo
/// array, indexed like HotLayout::in_vc_index) plus the upstream
/// endpoint needed to return credits (invalid for injection ports, where
/// the node observes buffer space directly).
struct InputPort {
  PortKind kind = PortKind::kLocal;
  RouterId upstream_router = kInvalidRouter;
  PortId upstream_port = kInvalidPort;
  Cycle credit_latency = 0;
  std::span<const VcFifo> vcs;

  int total_occupancy() const;
};

/// A packet sitting in an output queue, not yet on the wire. `ready`
/// models the router pipeline: the packet may start transmission only
/// pipeline_latency cycles after its grant. Trivial (no member
/// initializers), so HotState can carve queue storage without writing
/// it.
struct PendingTx {
  PacketRef pkt;
  VcId out_vc;
  Cycle ready;
};

/// Hot-state slots of one output port (see HotState).
struct OutputHotSlots {
  std::int32_t* credits = nullptr;          ///< [num_vcs]
  std::int32_t* credit_capacity = nullptr;  ///< [num_vcs]
  std::int32_t* queue_occupancy = nullptr;
  Cycle* link_free = nullptr;
  /// Queue storage, sized to the most packets the queue can hold.
  Ring<PendingTx> queue;
};

/// One output port: downstream credit counters, the post-crossbar output
/// queue and link serialization state.
class OutputPort {
 public:
  /// Bind the port to `slots` and reset them: `credits_per_vc` on each
  /// of `num_vcs` VCs, an empty queue, an idle link.
  void configure(PortKind kind, RouterId peer, PortId peer_port,
                 Cycle link_latency, int queue_capacity, int num_vcs,
                 int credits_per_vc, OutputHotSlots slots);

  PortKind kind() const { return kind_; }
  RouterId peer() const { return peer_; }
  PortId peer_port() const { return peer_port_; }
  Cycle link_latency() const { return link_latency_; }

  int num_vcs() const { return num_vcs_; }
  int credits(VcId vc) const { return credits_[vc]; }
  int credit_capacity(VcId vc) const { return credit_capacity_[vc]; }
  void take_credits(VcId vc, int phits);
  void return_credits(VcId vc, int phits);

  /// Fraction of downstream buffering already reserved, over all VCs,
  /// combined with this router's output-queue backlog. Used by
  /// PiggyBack's link-state broadcast (ejection ports report 0).
  double occupancy_fraction() const;
  /// Reserved fraction of one downstream VC buffer — the credit count the
  /// in-transit adaptive mechanisms consult (Table I's 43% threshold).
  double vc_occupancy_fraction(VcId vc) const;
  /// Reserved phits (capacity - credits) summed over VCs.
  int reserved_phits() const;

  bool queue_has_space(int phits) const {
    return *queue_occupancy_ + phits <= queue_capacity_;
  }
  int queue_occupancy() const { return *queue_occupancy_; }
  void enqueue(PacketRef pkt, VcId out_vc, Cycle ready, int size_phits);

  bool can_transmit(Cycle now) const;
  /// Pop the head for transmission at `now`; marks the link busy for
  /// `size_phits` cycles (serialization at 1 phit/cycle).
  PendingTx begin_transmission(Cycle now, int size_phits);
  Cycle link_free_at() const { return *link_free_; }
  const PendingTx& queue_head() const { return queue_.front(); }
  bool queue_empty() const { return queue_.empty(); }
  /// Earliest cycle the current head can go on the wire (meaningless on
  /// an empty queue) — the event-driven kernel's exact fire time.
  Cycle next_fire() const {
    const Cycle ready = queue_.front().ready;
    return ready > *link_free_ ? ready : *link_free_;
  }
  /// Queued transmissions in grant order (invariant sweeps, tests).
  const Ring<PendingTx>& pending() const { return queue_; }

  /// Checkpoint the queue ordering only; the hot counters (credits,
  /// queue occupancy, link deadline) live in the HotState arrays and
  /// are serialized there. load() rejects a stored length above the
  /// queue's packet bound.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  PortKind kind_ = PortKind::kLocal;
  RouterId peer_ = kInvalidRouter;
  PortId peer_port_ = kInvalidPort;
  Cycle link_latency_ = 0;
  int queue_capacity_ = 0;
  int num_vcs_ = 0;
  // HotState slots; configure() binds them.
  std::int32_t* credits_ = nullptr;
  std::int32_t* credit_capacity_ = nullptr;
  std::int32_t* queue_occupancy_ = nullptr;
  Cycle* link_free_ = nullptr;
  Ring<PendingTx> queue_;
};

}  // namespace dragonfly
