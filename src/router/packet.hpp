// Packet state: routing progress, VC bookkeeping and the timestamps that
// feed the latency-component breakdown of Figure 3.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// Routing phase of a packet. Transitions:
///   kSourceFlex --(commit global misroute)--> kToIntermediate
///   kSourceFlex --(traverse minimal global link)--> kCommitted
///   kToIntermediate --(arrive intermediate group)--> kCommitted
/// Oblivious/source-adaptive mechanisms decide at injection and start
/// directly in kToIntermediate (Valiant) or kCommitted (minimal).
enum class Phase : std::uint8_t {
  kSourceFlex,      ///< in source group; in-transit mechanisms may still misroute globally
  kToIntermediate,  ///< committed to a non-minimal path, heading to the intermediate group
  kCommitted,       ///< routing minimally to the destination
};

struct Packet {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int32_t size_phits = 8;
  /// Owning workload job (-1 = none). Stamped at generation, carried to
  /// delivery so MetricsCollector can attribute accepted load and
  /// latency per tenant (checkpoint format v5).
  std::int32_t job = -1;

  // --- routing state ----------------------------------------------------
  Phase phase = Phase::kSourceFlex;
  /// Intermediate group of a committed non-minimal path.
  GroupId intermediate_group = kInvalidGroup;
  /// Chosen exit global link for the non-minimal path (router owning it
  /// and its global port); used while still in the source group.
  RouterId nm_exit_router = kInvalidRouter;
  PortId nm_exit_port = kInvalidPort;
  /// One opportunistic local misroute allowed per group (OLM). The
  /// detour is a single hop, so no target needs to be remembered:
  /// minimal routing resumes from the misroute router.
  bool local_misrouted_this_group = false;

  // --- hop / VC bookkeeping ----------------------------------------------
  std::uint8_t local_hops = 0;
  std::uint8_t global_hops = 0;
  /// Consecutive allocation denials at the current router head-of-queue.
  /// In-transit adaptive routing alternates minimal/candidate requests on
  /// this counter (opportunistic misrouting: try minimal first, divert
  /// after observing a block). Reset on every grant.
  std::uint16_t denied_cycles = 0;

  // --- position -----------------------------------------------------------
  RouterId current_router = kInvalidRouter;
  PortId in_port = kInvalidPort;
  VcId in_vc = kInvalidVc;

  // --- latency accounting --------------------------------------------------
  Cycle t_gen = 0;             ///< generated at the node (age arbitration)
  /// Entered the injection queue at the source router — the paper's
  /// latency clock start (Sec. IV-B). Waiting in the node's finite source
  /// queue before this point is generation backpressure, not latency.
  Cycle t_net = 0;
  Cycle t_arrival = 0;         ///< head arrival at the current router
  Cycle wait_injection = 0;    ///< cycles spent waiting in injection queues
  Cycle wait_local = 0;        ///< cycles waiting in local transit queues
  Cycle wait_global = 0;       ///< cycles waiting in global transit queues
  /// Structural delay accumulated so far: router pipelines + link
  /// traversals (+ final serialization, added at delivery). The delivery
  /// identity `latency == structural + waits` is asserted in tests.
  Cycle structural = 0;

  void reset_group_state() { local_misrouted_this_group = false; }

  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields
};

/// Index-based packet arena with per-arena free lists. Queues hold
/// `PacketRef` (int32) indices; the store keeps packets in chunked blocks
/// and recycles slots so steady-state simulation does no allocation.
///
/// A ref encodes (arena, slot): the high bits select the owning arena,
/// the low kArenaShift bits the slot inside it. A sharded Network gives
/// every shard its own arena so concurrent packet creation never
/// contends; arena 0 is the default for unsharded use, and a
/// default-constructed store has exactly one arena.
using PacketRef = std::int32_t;
inline constexpr PacketRef kNoPacket = -1;

/// Bits reserved for the slot index within an arena (4M slots/arena).
inline constexpr int kArenaShift = 22;
inline constexpr PacketRef kArenaSlotMask = (PacketRef{1} << kArenaShift) - 1;
/// Keeps every encoded ref a positive int32 (bit 31 clear).
inline constexpr int kMaxArenas = 1 << (31 - kArenaShift);

class PacketStore {
 public:
  PacketStore() { configure(1); }
  PacketStore(PacketStore&&) = default;
  PacketStore& operator=(PacketStore&&) = default;

  /// Reset the store to `arenas` empty arenas (1..kMaxArenas). Every
  /// outstanding ref is invalidated; the Network calls this once at build
  /// time with its shard count.
  void configure(int arenas);
  int arenas() const { return static_cast<int>(arenas_.size()); }

  static constexpr PacketRef make_ref(int arena, std::uint32_t slot) {
    return (static_cast<PacketRef>(arena) << kArenaShift) |
           static_cast<PacketRef>(slot);
  }
  static constexpr int arena_of(PacketRef ref) { return ref >> kArenaShift; }
  static constexpr std::uint32_t slot_of(PacketRef ref) {
    return static_cast<std::uint32_t>(ref & kArenaSlotMask);
  }

  PacketRef create(int arena = 0);
  void destroy(PacketRef ref);

  /// Thread-safety of concurrent access while one shard creates packets
  /// in its own arena: the outer block vector is reserved up front
  /// (kMaxBlocks), so appending a block never moves existing block
  /// pointers, and lookup never reads the vector's size — other shards
  /// can safely dereference refs to packets that already existed.
  Packet& operator[](PacketRef ref) {
    return arenas_[static_cast<std::size_t>(arena_of(ref))]
        .blocks.data()[slot_of(ref) >> kBlockShift][slot_of(ref) & kBlockMask];
  }
  const Packet& operator[](PacketRef ref) const {
    return arenas_[static_cast<std::size_t>(arena_of(ref))]
        .blocks.data()[slot_of(ref) >> kBlockShift][slot_of(ref) & kBlockMask];
  }

  /// Number of live (created, not destroyed) packets, over all arenas.
  std::size_t live() const;
  /// Total slots ever materialized, over all arenas.
  std::size_t capacity() const;

  /// Slots materialized in one arena (dense traversals iterate arenas in
  /// ascending order, slots ascending within each).
  std::uint32_t arena_size(int arena) const {
    return arenas_[static_cast<std::size_t>(arena)].size;
  }

  /// Position of `ref` in the dense (arena-ascending, slot-ascending)
  /// enumeration of materialized slots. dense_capacity() == capacity().
  std::size_t dense_index(PacketRef ref) const;
  std::size_t dense_capacity() const { return capacity(); }

  /// Per-slot liveness (1 = created and not destroyed) in dense order,
  /// for the orphaned-flit invariant sweep.
  std::vector<char> live_mask() const;

 private:
  /// 256 packets (~30 KB) per block: blocks are value-initialized as
  /// they materialize, so a small network (a few hundred live packets)
  /// pays for a few of them instead of one 4,096-slot block.
  static constexpr int kBlockShift = 8;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
  static constexpr std::uint32_t kBlockMask = kBlockSize - 1;
  static constexpr std::size_t kMaxBlocks = std::size_t{1}
                                            << (kArenaShift - kBlockShift);

  struct Arena {
    std::vector<std::unique_ptr<Packet[]>> blocks;
    std::uint32_t size = 0;  ///< slots materialized (blocks may hold more)
    std::vector<std::uint32_t> free;
  };

  std::vector<Arena> arenas_;
};

}  // namespace dragonfly
