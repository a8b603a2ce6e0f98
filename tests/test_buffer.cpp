#include "router/buffer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/checkpoint.hpp"
#include "sim/hot_state.hpp"

namespace dragonfly {
namespace {

/// A one-router HotState of kPorts ports with kVcs VCs each way; fifos
/// and output ports bind its slots the way Router wiring binds a
/// Network's HotState. Packets are kPacketPhits long, so a FIFO or queue
/// of N phits holds N / kPacketPhits packets (at most kSlots).
class HotSlots {
 public:
  static constexpr int kPorts = 2;
  static constexpr int kVcs = 3;
  static constexpr int kPacketPhits = 8;
  static constexpr int kSlots = 4;

  HotSlots() : hot_(layout(), /*num_routers=*/1) {}

  VcFifo fifo(int capacity_phits, PortId port = 0, VcId vc = 0) {
    const int flat = hot_.layout().in_vc_index(port, vc);
    return VcFifo(capacity_phits, hot_.in_occupancy(0) + flat,
                  hot_.in_head(0) + flat,
                  hot_.fifo_ring(0, flat, capacity_phits / kPacketPhits));
  }

  OutputHotSlots output(PortId port, int queue_phits = 32) {
    const int first = hot_.layout().out_vc_index(port, 0);
    return {hot_.credits(0) + first, hot_.credit_capacity(0) + first,
            hot_.queue_occupancy(0) + port, hot_.link_free(0) + port,
            hot_.queue_ring(0, port, queue_phits / kPacketPhits)};
  }

 private:
  static HotLayout layout() {
    HotLayout l;
    l.ports = kPorts;
    for (int port = 0; port <= kPorts; ++port) {
      l.in_vc_off.push_back(port * kVcs);
      l.out_vc_off.push_back(port * kVcs);
    }
    for (int port = 0; port < kPorts; ++port) {
      l.port_of_in_vc.insert(l.port_of_in_vc.end(), kVcs, port);
    }
    for (int flat = 0; flat <= kPorts * kVcs; ++flat) {
      l.fifo_off.push_back(flat * kSlots);
    }
    l.queue_slots = kSlots;
    return l;
  }

  HotState hot_;
};

TEST(VcFifo, PushPopTracksOccupancy) {
  HotSlots slots;
  VcFifo fifo = slots.fifo(32);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.free_space(), 32);
  fifo.push(1, 8);
  fifo.push(2, 8);
  EXPECT_EQ(fifo.occupancy(), 16);
  EXPECT_EQ(fifo.packets(), 2u);
  EXPECT_EQ(fifo.head(), 1);
  fifo.pop(8);
  EXPECT_EQ(fifo.head(), 2);
  EXPECT_EQ(fifo.occupancy(), 8);
}

TEST(VcFifo, OverflowThrows) {
  HotSlots slots;
  VcFifo fifo = slots.fifo(16);
  fifo.push(1, 8);
  fifo.push(2, 8);
  EXPECT_THROW(fifo.push(3, 8), std::logic_error);
}

TEST(VcFifo, PopEmptyThrows) {
  HotSlots slots;
  VcFifo fifo = slots.fifo(16);
  EXPECT_THROW(fifo.pop(8), std::logic_error);
}

TEST(VcFifo, HeadOfEmptyIsNoPacket) {
  HotSlots slots;
  VcFifo fifo = slots.fifo(16);
  EXPECT_EQ(fifo.head(), kNoPacket);
}

/// A stored FIFO of `n` packet references (VcFifo::save's layout).
std::string fifo_stream(int n) {
  CheckpointWriter ck;
  ck.u64(static_cast<std::uint64_t>(n));
  for (PacketRef ref = 0; ref < n; ++ref) ck.pkt(ref);
  return ck.take();
}

TEST(VcFifo, LoadAcceptsItsBoundAndRejectsOneMore) {
  // 16 phits of 8-phit packets: the bound is two.
  HotSlots slots;
  VcFifo fifo = slots.fifo(16);
  const std::string full = fifo_stream(2);
  CheckpointReader ok(full);
  fifo.load(ok);
  EXPECT_EQ(fifo.packets(), 2u);
  EXPECT_EQ(fifo.head(), 0);

  const std::string over = fifo_stream(3);
  CheckpointReader bad(over);
  EXPECT_THROW(fifo.load(bad), std::runtime_error);
}

class OutputPortFixture : public ::testing::Test {
 protected:
  OutputPortFixture() {
    port_.configure(PortKind::kLocal, 3, 7, 10, 32, /*num_vcs=*/3,
                    /*credits_per_vc=*/32, slots_.output(0));
  }
  HotSlots slots_;
  OutputPort port_;
};

TEST_F(OutputPortFixture, ConfigureExposesWiring) {
  EXPECT_EQ(port_.kind(), PortKind::kLocal);
  EXPECT_EQ(port_.peer(), 3);
  EXPECT_EQ(port_.peer_port(), 7);
  EXPECT_EQ(port_.link_latency(), 10);
  EXPECT_EQ(port_.num_vcs(), 3);
  EXPECT_EQ(port_.credits(0), 32);
  EXPECT_EQ(port_.credit_capacity(0), 32);
}

TEST_F(OutputPortFixture, CreditLifecycle) {
  port_.take_credits(0, 8);
  EXPECT_EQ(port_.credits(0), 24);
  EXPECT_EQ(port_.reserved_phits(), 8);
  port_.return_credits(0, 8);
  EXPECT_EQ(port_.credits(0), 32);
  EXPECT_THROW(port_.return_credits(0, 8), std::logic_error);  // overflow
}

TEST_F(OutputPortFixture, NegativeCreditsThrow) {
  port_.take_credits(1, 32);
  EXPECT_THROW(port_.take_credits(1, 1), std::logic_error);
}

TEST_F(OutputPortFixture, VcOccupancyFraction) {
  EXPECT_DOUBLE_EQ(port_.vc_occupancy_fraction(0), 0.0);
  port_.take_credits(0, 16);
  EXPECT_DOUBLE_EQ(port_.vc_occupancy_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(port_.vc_occupancy_fraction(1), 0.0);
}

TEST_F(OutputPortFixture, OccupancyCombinesQueueAndReservation) {
  EXPECT_DOUBLE_EQ(port_.occupancy_fraction(), 0.0);
  // Reservation only: 24 of 96 reserved = 0.25.
  port_.take_credits(0, 24);
  EXPECT_DOUBLE_EQ(port_.occupancy_fraction(), 0.25);
  // Queue backlog dominates: 16 of 32 queued = 0.5.
  port_.enqueue(1, 0, 5, 8);
  port_.enqueue(2, 0, 5, 8);
  EXPECT_DOUBLE_EQ(port_.occupancy_fraction(), 0.5);
}

TEST_F(OutputPortFixture, EjectionReportsZeroOccupancy) {
  OutputPort ej;
  ej.configure(PortKind::kEjection, kInvalidRouter, kInvalidPort, 0, 32,
               /*num_vcs=*/1, /*credits_per_vc=*/1 << 20, slots_.output(1));
  ej.take_credits(0, 8);
  EXPECT_DOUBLE_EQ(ej.occupancy_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(ej.vc_occupancy_fraction(0), 0.0);
}

TEST_F(OutputPortFixture, QueueSpaceAccounting) {
  EXPECT_TRUE(port_.queue_has_space(32));
  port_.enqueue(1, 0, 0, 24);
  EXPECT_TRUE(port_.queue_has_space(8));
  EXPECT_FALSE(port_.queue_has_space(9));
  EXPECT_THROW(port_.enqueue(2, 0, 0, 9), std::logic_error);
}

TEST_F(OutputPortFixture, TransmissionWaitsForPipelineReadiness) {
  port_.enqueue(1, 0, /*ready=*/5, 8);
  EXPECT_FALSE(port_.can_transmit(4));
  EXPECT_TRUE(port_.can_transmit(5));
}

TEST_F(OutputPortFixture, SerializationSpacesTransmissions) {
  port_.enqueue(1, 0, 0, 8);
  port_.enqueue(2, 1, 0, 8);
  ASSERT_TRUE(port_.can_transmit(0));
  const PendingTx tx = port_.begin_transmission(0, 8);
  EXPECT_EQ(tx.pkt, 1);
  EXPECT_EQ(tx.out_vc, 0);
  EXPECT_EQ(port_.link_free_at(), 8);  // 8 phits at 1 phit/cycle
  // Second packet is ready but the link is busy until cycle 8.
  EXPECT_FALSE(port_.can_transmit(7));
  EXPECT_TRUE(port_.can_transmit(8));
  const PendingTx tx2 = port_.begin_transmission(8, 8);
  EXPECT_EQ(tx2.pkt, 2);
  EXPECT_EQ(port_.queue_occupancy(), 0);
}

TEST_F(OutputPortFixture, LoadAcceptsItsBoundAndRejectsOneMore) {
  // A 32-phit queue of 8-phit packets holds four (OutputPort::save's
  // layout: count, then packet, VC and ready cycle per entry).
  auto stream = [](int n) {
    CheckpointWriter ck;
    ck.u64(static_cast<std::uint64_t>(n));
    for (PacketRef ref = 0; ref < n; ++ref) {
      ck.pkt(ref);
      ck.i32(0);
      ck.i64(ref);
    }
    return ck.take();
  };
  const std::string full = stream(4);
  CheckpointReader ok(full);
  port_.load(ok);
  EXPECT_EQ(port_.pending().size(), 4u);
  EXPECT_EQ(port_.queue_head().pkt, 0);

  const std::string over = stream(5);
  CheckpointReader bad(over);
  EXPECT_THROW(port_.load(bad), std::runtime_error);
}

TEST(InputPort, TotalOccupancySumsVcs) {
  HotSlots slots;
  std::vector<VcFifo> fifos{slots.fifo(32, 0, 0), slots.fifo(32, 0, 1)};
  fifos[0].push(1, 8);
  fifos[1].push(2, 8);
  fifos[1].push(3, 8);
  InputPort in;
  in.vcs = fifos;
  EXPECT_EQ(in.total_occupancy(), 24);
}

}  // namespace
}  // namespace dragonfly
