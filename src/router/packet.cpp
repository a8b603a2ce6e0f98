#include "router/packet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/checkpoint.hpp"

namespace dragonfly {

void Packet::save(CheckpointWriter& ck) const {
  ck.i64(id);
  ck.i32(src);
  ck.i32(dst);
  ck.i32(size_phits);
  ck.u8(static_cast<std::uint8_t>(phase));
  ck.i32(intermediate_group);
  ck.i32(nm_exit_router);
  ck.i32(nm_exit_port);
  ck.boolean(local_misrouted_this_group);
  ck.u8(local_hops);
  ck.u8(global_hops);
  ck.u32(denied_cycles);
  ck.i32(current_router);
  ck.i32(in_port);
  ck.i32(in_vc);
  ck.i64(t_gen);
  ck.i64(t_net);
  ck.i64(t_arrival);
  ck.i64(wait_injection);
  ck.i64(wait_local);
  ck.i64(wait_global);
  ck.i64(structural);
  ck.i32(job);  // appended in checkpoint format v5
}

void Packet::load(CheckpointReader& ck) {
  id = ck.i64();
  src = ck.i32();
  dst = ck.i32();
  size_phits = ck.i32();
  phase = static_cast<Phase>(ck.u8());
  intermediate_group = ck.i32();
  nm_exit_router = ck.i32();
  nm_exit_port = ck.i32();
  local_misrouted_this_group = ck.boolean();
  local_hops = static_cast<std::uint8_t>(ck.u8());
  global_hops = static_cast<std::uint8_t>(ck.u8());
  denied_cycles = static_cast<std::uint16_t>(ck.u32());
  current_router = ck.i32();
  in_port = ck.i32();
  in_vc = ck.i32();
  t_gen = ck.i64();
  t_net = ck.i64();
  t_arrival = ck.i64();
  wait_injection = ck.i64();
  wait_local = ck.i64();
  wait_global = ck.i64();
  structural = ck.i64();
  job = ck.i32();
}

void PacketStore::configure(int arenas) {
  if (arenas < 1 || arenas > kMaxArenas) {
    throw std::invalid_argument("PacketStore: arena count " +
                                std::to_string(arenas) + " out of range [1, " +
                                std::to_string(kMaxArenas) + "]");
  }
  arenas_.clear();
  arenas_.resize(static_cast<std::size_t>(arenas));
  // Reserving the outer block vector up front is what makes cross-arena
  // reads safe while an arena's owner appends a block: push_back below
  // never reallocates, so block pointers other threads chase stay valid.
  for (Arena& a : arenas_) a.blocks.reserve(kMaxBlocks);
}

std::size_t PacketStore::live() const {
  std::size_t n = 0;
  for (const Arena& a : arenas_) n += a.size - a.free.size();
  return n;
}

std::size_t PacketStore::capacity() const {
  std::size_t n = 0;
  for (const Arena& a : arenas_) n += a.size;
  return n;
}

std::size_t PacketStore::dense_index(PacketRef ref) const {
  std::size_t base = 0;
  const int arena = arena_of(ref);
  for (int a = 0; a < arena; ++a) {
    base += arenas_[static_cast<std::size_t>(a)].size;
  }
  return base + slot_of(ref);
}

std::vector<char> PacketStore::live_mask() const {
  std::vector<char> live(capacity(), 1);
  std::size_t base = 0;
  for (const Arena& a : arenas_) {
    for (const std::uint32_t slot : a.free) {
      live[base + slot] = 0;
    }
    base += a.size;
  }
  return live;
}

void PacketStore::save(CheckpointWriter& ck) const {
  ck.tag("PacketStore");
  ck.u32(static_cast<std::uint32_t>(arenas_.size()));
  for (const Arena& a : arenas_) {
    ck.u32(a.size);
    for (std::uint32_t s = 0; s < a.size; ++s) {
      a.blocks[s >> kBlockShift][s & kBlockMask].save(ck);
    }
    ck.u64(a.free.size());
    for (const std::uint32_t slot : a.free) ck.u32(slot);
  }
}

void PacketStore::load(CheckpointReader& ck) {
  ck.tag("PacketStore");
  const int arenas = static_cast<int>(ck.u32());
  configure(arenas);
  for (Arena& a : arenas_) {
    const std::uint32_t size = ck.u32();
    for (std::uint32_t s = 0; s < size; ++s) {
      if ((a.size & kBlockMask) == 0) {
        a.blocks.push_back(std::make_unique<Packet[]>(kBlockSize));
      }
      a.blocks[s >> kBlockShift][s & kBlockMask].load(ck);
      ++a.size;
    }
    const std::uint64_t frees = ck.u64();
    a.free.clear();
    // A free list never outgrows its arena; a corrupt count must not
    // size the reservation.
    a.free.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(frees, a.size)));
    for (std::uint64_t i = 0; i < frees; ++i) a.free.push_back(ck.u32());
  }
}

PacketRef PacketStore::create(int arena) {
  Arena& a = arenas_[static_cast<std::size_t>(arena)];
  if (!a.free.empty()) {
    const std::uint32_t slot = a.free.back();
    a.free.pop_back();
    a.blocks[slot >> kBlockShift][slot & kBlockMask] = Packet{};
    return make_ref(arena, slot);
  }
  if ((a.size & kBlockMask) == 0) {
    a.blocks.push_back(std::make_unique<Packet[]>(kBlockSize));
  }
  const std::uint32_t slot = a.size++;
  return make_ref(arena, slot);
}

void PacketStore::destroy(PacketRef ref) {
  arenas_[static_cast<std::size_t>(arena_of(ref))].free.push_back(slot_of(ref));
}

}  // namespace dragonfly
