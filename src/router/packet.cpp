#include "router/packet.hpp"

#include <stdexcept>
#include <string>

#include "common/checkpoint.hpp"

namespace dragonfly {

template <class Self, class Archive>
void Packet::walk(Self& self, Archive& ck) {
  ck.field(self.id);
  ck.field(self.src);
  ck.field(self.dst);
  ck.field(self.size_phits);
  ck.field(self.phase, wire<std::uint8_t>);
  ck.field(self.intermediate_group);
  ck.field(self.nm_exit_router);
  ck.field(self.nm_exit_port);
  ck.field(self.local_misrouted_this_group);
  ck.field(self.local_hops);
  ck.field(self.global_hops);
  ck.field(self.denied_cycles, wire<std::uint32_t>);
  ck.field(self.current_router);
  ck.field(self.in_port);
  ck.field(self.in_vc);
  ck.field(self.t_gen);
  ck.field(self.t_net);
  ck.field(self.t_arrival);
  ck.field(self.wait_injection);
  ck.field(self.wait_local);
  ck.field(self.wait_global);
  ck.field(self.structural);
  ck.field(self.job);  // appended in checkpoint format v5
}

void Packet::save(CheckpointWriter& ck) const { walk(*this, ck); }
void Packet::load(CheckpointReader& ck) { walk(*this, ck); }

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
