// Structure-of-arrays hot state for the cycle kernel.
//
// The per-cycle inner loops (allocation feasibility, transmit scheduling,
// congestion queries, the paranoid invariant sweep) read and write a
// handful of small counters per (router, port, vc): downstream credits,
// output-queue occupancancy, link busy-until cycles, input-VC occupancy and
// the head-of-line packet of every input VC. Keeping them inside
// per-object `Router`/`OutputPort`/`VcFifo` members spreads that state
// over the heap; `HotState` hoists it into contiguous arrays owned by
// `Network` and indexed by a flat (router, port, vc) id derived from the
// `Topology` port tables, so the kernel walks cache-dense memory and the
// checkpoint writer serializes it in a few block writes.
//
// The storage of every input-VC FIFO and output queue lives here too:
// each has a fixed packet bound derived from the config, so its ring is
// a slice carved out of one array at build time and the kernel never
// allocates. The cold state (wiring, arbiter pointers, the ring
// head/size indices) stays in the owning objects; `VcFifo`/`OutputPort`
// receive pointers into these arrays at wiring time (unit fixtures bind
// a small HotState of their own the same way).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "router/buffer.hpp"
#include "router/packet.hpp"

namespace dragonfly {

class Topology;
struct SimConfig;
class CheckpointWriter;
class CheckpointReader;

/// Canonical port-kind -> VC-count / buffer-capacity rules, shared by
/// the HotState layout and Router wiring so the SoA slot spans and the
/// per-port configuration can never drift apart.
int input_vcs_for(const SimConfig& cfg, PortKind kind);
int output_vcs_for(const SimConfig& cfg, PortKind kind);
int input_buffer_capacity_for(const SimConfig& cfg, PortKind kind);

/// Packet bounds of the fixed-capacity queues (validate() makes every
/// buffer hold at least one packet, so each is >= 1):
///  - an input VC holds at most its buffer's phits / packet_size
///    packets (VcFifo::push throws past the phits);
///  - an output queue at most output_queue_size / packet_size
///    (OutputPort::enqueue throws past it);
///  - a node's source queue at most node_queue_capacity (the blocked
///    gate and Node::post_send enforce it).
int input_fifo_packets_for(const SimConfig& cfg, PortKind kind);
int output_queue_packets_for(const SimConfig& cfg);
int source_queue_packets_for(const SimConfig& cfg);

/// Flat-index layout shared by every router of one network: per-port VC
/// offsets for the input and output directions (VC counts differ by port
/// kind), plus reverse tables for mask iteration. Derived once from
/// (Topology, SimConfig); identical for all routers.
struct HotLayout {
  int ports = 0;
  /// Prefix sums over ports: input/output flat-VC offset of each port
  /// (size ports+1; the last entry is the per-router stride).
  std::vector<int> in_vc_off;
  std::vector<int> out_vc_off;
  /// Reverse map: flat input-VC index within a router -> port id.
  std::vector<PortId> port_of_in_vc;
  /// Ring storage: offset of each flat input VC's FIFO slice within the
  /// router's PacketRef row (size in_stride()+1; the last entry is the
  /// row length), and the slice length of every output queue.
  std::vector<int> fifo_off;
  int queue_slots = 0;

  int in_stride() const { return in_vc_off.empty() ? 0 : in_vc_off.back(); }
  int out_stride() const { return out_vc_off.empty() ? 0 : out_vc_off.back(); }
  /// 64-bit words per router in the non-empty input-VC bitmask.
  int in_mask_words() const { return (in_stride() + 63) / 64; }
  /// 64-bit words per router in the output-port change marks.
  int port_mask_words() const { return (ports + 63) / 64; }

  int in_vc_index(PortId port, VcId vc) const {
    return in_vc_off[static_cast<std::size_t>(port)] + vc;
  }
  int out_vc_index(PortId port, VcId vc) const {
    return out_vc_off[static_cast<std::size_t>(port)] + vc;
  }
  /// PacketRef elements per router in the FIFO storage.
  int fifo_stride() const { return fifo_off.empty() ? 0 : fifo_off.back(); }

  static HotLayout make(const Topology& topo, const SimConfig& cfg);
};

/// The arrays. One instance per Network (routers bind spans of it); unit
/// fixtures build a small one for the routers or ports they test.
class HotState {
 public:
  HotState(HotLayout layout, int num_routers);

  const HotLayout& layout() const { return layout_; }
  int num_routers() const { return num_routers_; }

  // --- output side, per (router, out-vc) ---------------------------------
  std::int32_t* credits(RouterId r) {
    return credits_.data() + static_cast<std::size_t>(r) * out_stride_;
  }
  const std::int32_t* credits(RouterId r) const {
    return credits_.data() + static_cast<std::size_t>(r) * out_stride_;
  }
  std::int32_t* credit_capacity(RouterId r) {
    return credit_capacity_.data() + static_cast<std::size_t>(r) * out_stride_;
  }
  const std::int32_t* credit_capacity(RouterId r) const {
    return credit_capacity_.data() + static_cast<std::size_t>(r) * out_stride_;
  }

  // --- output side, per (router, port) -----------------------------------
  std::int32_t* queue_occupancy(RouterId r) {
    return queue_occupancy_.data() + static_cast<std::size_t>(r) * ports_;
  }
  Cycle* link_free(RouterId r) {
    return link_free_.data() + static_cast<std::size_t>(r) * ports_;
  }

  // --- input side, per (router, in-vc) ------------------------------------
  std::int32_t* in_occupancy(RouterId r) {
    return in_occupancy_.data() + static_cast<std::size_t>(r) * in_stride_;
  }
  const std::int32_t* in_occupancy(RouterId r) const {
    return in_occupancy_.data() + static_cast<std::size_t>(r) * in_stride_;
  }
  PacketRef* in_head(RouterId r) {
    return in_head_.data() + static_cast<std::size_t>(r) * in_stride_;
  }
  const PacketRef* in_head(RouterId r) const {
    return in_head_.data() + static_cast<std::size_t>(r) * in_stride_;
  }
  /// Non-empty input-VC bitmask words of one router; bit k of word w is
  /// flat input VC w*64+k. Maintained by Router push/pop sites.
  std::uint64_t* in_mask(RouterId r) {
    return in_mask_.data() + static_cast<std::size_t>(r) * mask_words_;
  }
  const std::uint64_t* in_mask(RouterId r) const {
    return in_mask_.data() + static_cast<std::size_t>(r) * mask_words_;
  }

  /// Change marks of one router's output ports, laid out like in_mask
  /// (bit k of word w is port w*64+k). The router sets a global port's
  /// bit wherever that port's queue occupancy or credits change;
  /// PiggyBack's serial refresh recomputes the marked links and clears
  /// the row. Not checkpointed: construction and load() set every bit,
  /// so the first refresh after either rebuilds the whole board.
  std::uint64_t* port_marks(RouterId r) {
    return port_marks_.data() + static_cast<std::size_t>(r) * port_words_;
  }

  // --- queue storage (carved into fixed rings at wiring) -------------------
  /// The FIFO ring of one flat input VC of router `r`, holding at most
  /// `packets` (at most the slice HotLayout::fifo_off gave it).
  Ring<PacketRef> fifo_ring(RouterId r, int flat_vc, int packets);
  /// The output-queue ring of (router `r`, `port`), holding at most
  /// `packets` (at most HotLayout::queue_slots).
  Ring<PendingTx> queue_ring(RouterId r, PortId port, int packets);

  /// Whole-array views for contiguous scans (invariants, checkpoint).
  const std::vector<std::int32_t>& all_credits() const { return credits_; }
  const std::vector<std::int32_t>& all_credit_capacity() const {
    return credit_capacity_;
  }
  const std::vector<std::int32_t>& all_queue_occupancy() const {
    return queue_occupancy_;
  }
  const std::vector<Cycle>& all_link_free() const { return link_free_; }
  const std::vector<std::int32_t>& all_in_occupancy() const {
    return in_occupancy_;
  }

  /// Checkpoint the mutable arrays (credits, occupancies, link deadlines)
  /// as contiguous blocks. Capacities, heads and masks are derived state:
  /// capacities come from wiring, heads/masks are rebuilt from the FIFO
  /// contents after the owning routers load, and load() sets every
  /// port mark.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  HotLayout layout_;
  int num_routers_ = 0;
  // Cached strides (hot-loop friendly copies of layout_ sums).
  std::size_t ports_ = 0;
  std::size_t in_stride_ = 0;
  std::size_t out_stride_ = 0;
  std::size_t mask_words_ = 0;
  std::size_t port_words_ = 0;
  std::size_t fifo_stride_ = 0;

  std::vector<std::int32_t> credits_;
  std::vector<std::int32_t> credit_capacity_;
  std::vector<std::int32_t> queue_occupancy_;
  std::vector<Cycle> link_free_;
  std::vector<std::int32_t> in_occupancy_;
  std::vector<PacketRef> in_head_;
  std::vector<std::uint64_t> in_mask_;
  std::vector<std::uint64_t> port_marks_;
  // Ring storage. Left uninitialized: a slot is read only after its
  // ring wrote it, so a page the run never reaches is never touched.
  std::unique_ptr<PacketRef[]> fifo_slots_;
  std::unique_ptr<PendingTx[]> queue_slots_;
};

/// SoA bank of per-node generation state for the batched Bernoulli
/// phase (Network::shard_inject phase A): xoshiro256** lanes — one per
/// node, the four state words split across four arrays so
/// common/simd.hpp can advance a 64-node window with vector loads —
/// plus the integer Bernoulli threshold ceil(p * 2^53) (`uniform() < p`
/// iff `(next() >> 11) < threshold`; see Rng::bernoulli_threshold), a
/// generation-mode byte (0 = draw against the threshold; 1 = never,
/// p <= 0 consumes no draw; 2 = always, p >= 1 hits without a draw —
/// mirroring Rng::bernoulli's short-circuits) and a
/// source-queue-full byte. Arrays are padded to a whole 64-lane window
/// so whole-word vector loads never run off the end (pad lanes carry
/// mode 1 and never enter a draw mask). It also holds every node's
/// source-queue storage, one fixed ring slice per node. Nodes bind
/// per-lane pointers at build time (see Node); a standalone node binds
/// a small NodeHot of its own.
class NodeHot {
 public:
  NodeHot() = default;

  /// Size the bank for `nodes` nodes whose source queues hold at most
  /// `queue_packets` packets each.
  void init(int nodes, int queue_packets) {
    const auto padded =
        (static_cast<std::size_t>(nodes) + 63) / 64 * 64;
    s0_.assign(padded, 0);
    s1_.assign(padded, 0);
    s2_.assign(padded, 0);
    s3_.assign(padded, 0);
    threshold_.assign(padded, 0);
    mode_.assign(padded, 1);
    blocked_.assign(padded, 0);
    queue_packets_ = queue_packets;
    queue_stride_ = Ring<PacketRef>::slots(
        static_cast<std::size_t>(queue_packets));
    // Uninitialized, as HotState's ring storage.
    queue_slots_ = std::make_unique_for_overwrite<PacketRef[]>(
        static_cast<std::size_t>(nodes) * queue_stride_);
  }

  std::uint64_t* s0() { return s0_.data(); }
  std::uint64_t* s1() { return s1_.data(); }
  std::uint64_t* s2() { return s2_.data(); }
  std::uint64_t* s3() { return s3_.data(); }
  std::uint64_t* threshold() { return threshold_.data(); }
  std::uint8_t* mode() { return mode_.data(); }
  std::uint8_t* blocked() { return blocked_.data(); }
  /// Node `n`'s source-queue ring (empty, at most init's queue_packets).
  Ring<PacketRef> source_queue(NodeId n) {
    return Ring<PacketRef>(
        queue_slots_.get() + static_cast<std::size_t>(n) * queue_stride_,
        static_cast<std::size_t>(queue_packets_));
  }

 private:
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_, threshold_;
  std::vector<std::uint8_t> mode_, blocked_;
  std::unique_ptr<PacketRef[]> queue_slots_;
  int queue_packets_ = 0;
  std::size_t queue_stride_ = 0;
};

}  // namespace dragonfly
