#include "sim/hot_state.hpp"

#include <stdexcept>

#include "common/checkpoint.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

int input_vcs_for(const SimConfig& cfg, PortKind kind) {
  switch (kind) {
    case PortKind::kInjection: return cfg.injection_vcs;
    case PortKind::kLocal: return cfg.local_vcs;
    case PortKind::kGlobal: return cfg.global_vcs;
    case PortKind::kEjection: break;
  }
  throw std::logic_error("ejection is not an input kind");
}

int output_vcs_for(const SimConfig& cfg, PortKind kind) {
  switch (kind) {
    case PortKind::kEjection: return 1;
    case PortKind::kLocal: return cfg.local_vcs;
    case PortKind::kGlobal: return cfg.global_vcs;
    case PortKind::kInjection: break;
  }
  throw std::logic_error("injection is not an output kind");
}

int input_buffer_capacity_for(const SimConfig& cfg, PortKind kind) {
  return kind == PortKind::kGlobal ? cfg.global_input_buffer
                                   : cfg.local_input_buffer;
}

int input_fifo_packets_for(const SimConfig& cfg, PortKind kind) {
  return input_buffer_capacity_for(cfg, kind) / cfg.packet_size;
}

int output_queue_packets_for(const SimConfig& cfg) {
  return cfg.output_queue_size / cfg.packet_size;
}

int source_queue_packets_for(const SimConfig& cfg) {
  return cfg.node_queue_capacity;
}

HotLayout HotLayout::make(const Topology& topo, const SimConfig& cfg) {
  HotLayout l;
  l.ports = topo.ports_per_router();
  l.in_vc_off.resize(static_cast<std::size_t>(l.ports) + 1, 0);
  l.out_vc_off.resize(static_cast<std::size_t>(l.ports) + 1, 0);
  for (PortId port = 0; port < l.ports; ++port) {
    const int in_vcs = input_vcs_for(cfg, topo.input_port_kind(port));
    const int out_vcs = output_vcs_for(cfg, topo.output_port_kind(port));
    l.in_vc_off[static_cast<std::size_t>(port) + 1] =
        l.in_vc_off[static_cast<std::size_t>(port)] + in_vcs;
    l.out_vc_off[static_cast<std::size_t>(port) + 1] =
        l.out_vc_off[static_cast<std::size_t>(port)] + out_vcs;
    for (int v = 0; v < in_vcs; ++v) l.port_of_in_vc.push_back(port);
  }
  l.fifo_off.assign(1, 0);
  for (const PortId port : l.port_of_in_vc) {
    const auto slots = Ring<PacketRef>::slots(static_cast<std::size_t>(
        input_fifo_packets_for(cfg, topo.input_port_kind(port))));
    l.fifo_off.push_back(l.fifo_off.back() + static_cast<int>(slots));
  }
  l.queue_slots = static_cast<int>(Ring<PendingTx>::slots(
      static_cast<std::size_t>(output_queue_packets_for(cfg))));
  return l;
}

HotState::HotState(HotLayout layout, int num_routers)
    : layout_(std::move(layout)),
      num_routers_(num_routers),
      ports_(static_cast<std::size_t>(layout_.ports)),
      in_stride_(static_cast<std::size_t>(layout_.in_stride())),
      out_stride_(static_cast<std::size_t>(layout_.out_stride())),
      mask_words_(static_cast<std::size_t>(layout_.in_mask_words())),
      port_words_(static_cast<std::size_t>(layout_.port_mask_words())),
      fifo_stride_(static_cast<std::size_t>(layout_.fifo_stride())) {
  const auto R = static_cast<std::size_t>(num_routers);
  credits_.assign(R * out_stride_, 0);
  credit_capacity_.assign(R * out_stride_, 0);
  queue_occupancy_.assign(R * ports_, 0);
  link_free_.assign(R * ports_, 0);
  in_occupancy_.assign(R * in_stride_, 0);
  in_head_.assign(R * in_stride_, kNoPacket);
  in_mask_.assign(R * mask_words_, 0);
  port_marks_.assign(R * port_words_, ~std::uint64_t{0});
  fifo_slots_ = std::make_unique_for_overwrite<PacketRef[]>(R * fifo_stride_);
  queue_slots_ = std::make_unique_for_overwrite<PendingTx[]>(
      R * ports_ * static_cast<std::size_t>(layout_.queue_slots));
}

Ring<PacketRef> HotState::fifo_ring(RouterId r, int flat_vc, int packets) {
  const auto f = static_cast<std::size_t>(flat_vc);
  const auto slots = static_cast<std::size_t>(layout_.fifo_off[f + 1] -
                                              layout_.fifo_off[f]);
  if (Ring<PacketRef>::slots(static_cast<std::size_t>(packets)) > slots) {
    throw std::logic_error("HotState: FIFO bound exceeds its storage slice");
  }
  return Ring<PacketRef>(fifo_slots_.get() +
                             static_cast<std::size_t>(r) * fifo_stride_ +
                             static_cast<std::size_t>(layout_.fifo_off[f]),
                         static_cast<std::size_t>(packets));
}

Ring<PendingTx> HotState::queue_ring(RouterId r, PortId port, int packets) {
  const auto slots = static_cast<std::size_t>(layout_.queue_slots);
  if (Ring<PendingTx>::slots(static_cast<std::size_t>(packets)) > slots) {
    throw std::logic_error("HotState: queue bound exceeds its storage slice");
  }
  return Ring<PendingTx>(
      queue_slots_.get() +
          (static_cast<std::size_t>(r) * ports_ +
           static_cast<std::size_t>(port)) *
              slots,
      static_cast<std::size_t>(packets));
}

template <class Self, class Archive>
void HotState::walk(Self& self, Archive& ck) {
  ck.tag("HotState");
  ck.fixed(self.credits_, "hot-state array size");
  ck.fixed(self.queue_occupancy_, "hot-state array size");
  ck.fixed(self.link_free_, "hot-state array size");
  ck.fixed(self.in_occupancy_, "hot-state array size");
}

void HotState::save(CheckpointWriter& ck) const { walk(*this, ck); }

void HotState::load(CheckpointReader& ck) {
  walk(*this, ck);
  port_marks_.assign(port_marks_.size(), ~std::uint64_t{0});
}

}  // namespace dragonfly
