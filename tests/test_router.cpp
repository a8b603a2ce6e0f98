// Unit tests of the router model, driven through a mock event sink.
#include "router/router.hpp"

#include "topology/dragonfly.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/checkpoint.hpp"
#include "routing/minimal.hpp"

namespace dragonfly {
namespace {

struct RecordedEvent {
  enum class Type { kPacket, kCredit, kDelivery } type;
  RouterId router = kInvalidRouter;
  PortId port = kInvalidPort;
  VcId vc = kInvalidVc;
  int phits = 0;
  PacketRef pkt = kNoPacket;
  Cycle when = 0;
};

class MockSink final : public EventSink {
 public:
  void schedule_packet(RouterId router, PortId port, VcId vc, PacketRef pkt,
                       Cycle when) override {
    events.push_back({RecordedEvent::Type::kPacket, router, port, vc, 0, pkt,
                      when});
  }
  void schedule_credit(RouterId router, PortId out_port, VcId vc, int phits,
                       Cycle when) override {
    events.push_back({RecordedEvent::Type::kCredit, router, out_port, vc,
                      phits, kNoPacket, when});
  }
  void schedule_delivery(PacketRef pkt, Cycle when) override {
    events.push_back({RecordedEvent::Type::kDelivery, kInvalidRouter,
                      kInvalidPort, kInvalidVc, 0, pkt, when});
  }
  std::vector<RecordedEvent> events;
};

/// What a Network owns for router 0: its HotState row, its shard's
/// allocation scratch and its statistics counters.
struct RouterStorage {
  RouterStorage(const Topology& topo, const SimConfig& cfg)
      : hot(HotLayout::make(topo, cfg), /*num_routers=*/1),
        scratch(hot.layout()) {}

  RouterCounters counters() {
    return {&injected_total, &injected_measured, &forwarded_total};
  }

  HotState hot;
  RouterScratch scratch;
  std::int64_t injected_total = 0;
  std::int64_t injected_measured = 0;
  std::int64_t forwarded_total = 0;
};

/// One fully wired router of a tiny dragonfly, with minimal routing.
class RouterFixture : public ::testing::Test {
 protected:
  RouterFixture()
      : topo_(DragonflyTopology::balanced_palmtree(2)),
        cfg_(make_config()),
        routing_(topo_, cfg_),
        storage_(topo_, cfg_),
        router_(topo_, cfg_, /*id=*/0, &routing_, &store_, &sink_, Rng(1),
                storage_.hot, storage_.scratch, storage_.counters()) {
    wire_like_network(router_);
  }

  /// Wire like Network does, but without peers (the mock records events).
  void wire_like_network(Router& router) {
    const auto& p = topo_.params();
    for (int i = 0; i < p.p; ++i) {
      router.wire_input(i, PortKind::kInjection, kInvalidRouter, kInvalidPort,
                        0);
      router.wire_output(i, PortKind::kEjection, kInvalidRouter, kInvalidPort,
                         0);
    }
    for (PortId port = topo_.first_local_port();
         port < topo_.first_global_port(); ++port) {
      router.wire_output(port, PortKind::kLocal, topo_.local_peer(0, port),
                         port, cfg_.local_latency);
      router.wire_input(port, PortKind::kLocal, topo_.local_peer(0, port),
                        port, cfg_.local_latency);
    }
    for (PortId port = topo_.first_global_port();
         port < topo_.ports_per_router(); ++port) {
      router.wire_output(port, PortKind::kGlobal, topo_.global_peer(0, port),
                         topo_.global_peer_port(0, port),
                         cfg_.global_latency);
      router.wire_input(port, PortKind::kGlobal, topo_.global_peer(0, port),
                        topo_.global_peer_port(0, port), cfg_.global_latency);
    }
  }

  static SimConfig make_config() {
    SimConfig cfg = SimConfig::small(2);
    cfg.routing_name = "min";
    cfg.apply_vc_defaults();
    return cfg;
  }

  PacketRef make_packet(NodeId src, NodeId dst, Cycle t_gen = 0) {
    const PacketRef ref = store_.create();
    Packet& pkt = store_[ref];
    pkt.src = src;
    pkt.dst = dst;
    pkt.size_phits = cfg_.packet_size;
    pkt.t_gen = t_gen;
    pkt.current_router = topo_.router_of_node(src);
    pkt.phase = Phase::kCommitted;
    return ref;
  }

  DragonflyTopology topo_;
  SimConfig cfg_;
  MinimalRouting routing_;
  PacketStore store_;
  MockSink sink_;
  RouterStorage storage_;
  Router router_;
};

TEST_F(RouterFixture, InjectionAcceptanceTracksBufferSpace) {
  // Injection VC buffer holds 32 phits = 4 packets.
  EXPECT_TRUE(router_.can_accept_injection(0, 0, 8));
  for (int i = 0; i < 4; ++i) {
    router_.inject(0, 0, make_packet(0, 1), 0);
  }
  EXPECT_FALSE(router_.can_accept_injection(0, 0, 8));
  EXPECT_TRUE(router_.can_accept_injection(0, 1, 8));  // other VC free
}

TEST_F(RouterFixture, GrantMovesPacketToEjection) {
  // Node 0 -> node 1: both on router 0; output = ejection port 1.
  const PacketRef ref = make_packet(0, 1, /*t_gen=*/0);
  router_.inject(0, 0, ref, 0);
  router_.allocate(/*now=*/3);
  // Pipeline delay: ready at 3+5=8; nothing transmitted before.
  router_.transmit(7);
  EXPECT_TRUE(sink_.events.empty());
  router_.transmit(8);
  ASSERT_EQ(sink_.events.size(), 1u);
  EXPECT_EQ(sink_.events[0].type, RecordedEvent::Type::kDelivery);
  // Tail arrives after 8 phits of serialization.
  EXPECT_EQ(sink_.events[0].when, 8 + 8);
  // Injection wait recorded from generation to grant.
  EXPECT_EQ(store_[ref].wait_injection, 3);
  // Structural: one pipeline traversal (ejection has no link latency).
  EXPECT_EQ(store_[ref].structural, cfg_.pipeline_latency);
}

TEST_F(RouterFixture, LocalHopSchedulesArrivalAndCountsHops) {
  // Node 0 -> node on router 1 (same group): local output.
  const NodeId dst = topo_.node_id(1, 0);
  const PacketRef ref = make_packet(0, dst);
  router_.inject(0, 0, ref, 0);
  router_.allocate(0);
  router_.transmit(5);  // ready at 0+5
  ASSERT_EQ(sink_.events.size(), 1u);
  const RecordedEvent& ev = sink_.events[0];
  EXPECT_EQ(ev.type, RecordedEvent::Type::kPacket);
  EXPECT_EQ(ev.router, 1);
  EXPECT_EQ(ev.when, 5 + cfg_.local_latency);
  EXPECT_EQ(ev.vc, 0);  // source-group local hop uses VC0
  EXPECT_EQ(store_[ref].local_hops, 1);
  EXPECT_EQ(store_[ref].global_hops, 0);
  EXPECT_EQ(store_[ref].structural,
            cfg_.pipeline_latency + cfg_.local_latency);
}

TEST_F(RouterFixture, TransitGrantReturnsCreditUpstream) {
  // A packet arriving on a local input and leaving via ejection must
  // produce a credit event for the upstream router, delayed by the link
  // latency.
  const PacketRef ref = make_packet(topo_.node_id(1, 0), 0);
  store_[ref].current_router = 1;
  const PortId in_port = topo_.first_local_port();
  router_.packet_arrival(in_port, 0, ref, /*now=*/20);
  EXPECT_EQ(store_[ref].current_router, 0);
  router_.allocate(22);
  bool saw_credit = false;
  for (const auto& ev : sink_.events) {
    if (ev.type == RecordedEvent::Type::kCredit) {
      saw_credit = true;
      EXPECT_EQ(ev.router, topo_.local_peer(0, in_port));
      EXPECT_EQ(ev.vc, 0);
      EXPECT_EQ(ev.phits, 8);
      EXPECT_EQ(ev.when, 22 + cfg_.local_latency);
    }
  }
  EXPECT_TRUE(saw_credit);
  // Waiting 2 cycles at a local input -> local bucket.
  EXPECT_EQ(store_[ref].wait_local, 2);
}

TEST_F(RouterFixture, CreditsBlockOverSubscription) {
  // Local output VC0 capacity is 32 phits = 4 packets. A fifth packet
  // must wait until a credit returns, even with the output queue free.
  const NodeId dst = topo_.node_id(1, 0);
  std::vector<PacketRef> refs;
  for (int i = 0; i < 5; ++i) {
    const PacketRef ref = make_packet(topo_.node_id(0, i % 2), dst);
    refs.push_back(ref);
    router_.inject(i % 2, i / 2 % cfg_.injection_vcs, ref, 0);
  }
  // Run allocation and transmission without any credit returns: exactly
  // 4 packets can depart.
  const PortId out = topo_.local_port_to(0, 1);
  for (Cycle t = 0; t < 60; ++t) {
    router_.allocate(t);
    router_.transmit(t);
  }
  int packets_sent = 0;
  for (const auto& ev : sink_.events) {
    packets_sent += ev.type == RecordedEvent::Type::kPacket ? 1 : 0;
  }
  EXPECT_EQ(packets_sent, 4);
  EXPECT_EQ(router_.output(out).credits(0), 0);
  EXPECT_TRUE(router_.credits_exhausted(out, 0, 8));
  // Returning one packet's credits unblocks the fifth.
  router_.credit_arrival(out, 0, 8);
  for (Cycle t = 60; t < 80; ++t) {
    router_.allocate(t);
    router_.transmit(t);
  }
  packets_sent = 0;
  for (const auto& ev : sink_.events) {
    packets_sent += ev.type == RecordedEvent::Type::kPacket ? 1 : 0;
  }
  EXPECT_EQ(packets_sent, 5);
  EXPECT_EQ(router_.output(out).credits(0), 0);  // taken again
}

TEST_F(RouterFixture, SpeedupGrantsTwoPacketsPerOutputPerCycle) {
  // Two nodes inject to the same destination router; with 2x speedup both
  // can be granted to the same local output in one cycle.
  const NodeId dst = topo_.node_id(1, 0);
  router_.inject(0, 0, make_packet(0, dst), 0);
  router_.inject(1, 0, make_packet(1, dst), 0);
  router_.allocate(0);
  router_.transmit(5);
  router_.transmit(13);  // second packet after 8-cycle serialization
  int packet_events = 0;
  for (const auto& ev : sink_.events) {
    packet_events += ev.type == RecordedEvent::Type::kPacket ? 1 : 0;
  }
  EXPECT_EQ(packet_events, 2);
}

TEST_F(RouterFixture, MeasuredInjectionCounter) {
  router_.set_measuring(true);
  router_.inject(0, 0, make_packet(0, 1), 0);
  router_.allocate(0);
  EXPECT_EQ(router_.injected_packets_measured(), 1);
  EXPECT_EQ(router_.injected_packets_total(), 1);
  router_.reset_measured_counters();
  EXPECT_EQ(router_.injected_packets_measured(), 0);
  EXPECT_EQ(router_.injected_packets_total(), 1);
  router_.set_measuring(false);
  router_.inject(1, 0, make_packet(1, 0), 10);
  router_.allocate(10);
  EXPECT_EQ(router_.injected_packets_measured(), 0);
  EXPECT_EQ(router_.injected_packets_total(), 2);
}

TEST_F(RouterFixture, OccupancyQueries) {
  EXPECT_DOUBLE_EQ(router_.mean_local_occupancy(), 0.0);
  const PortId out = topo_.local_port_to(0, 1);
  EXPECT_FALSE(router_.output_congested(out, 0));
  EXPECT_FALSE(router_.credits_exhausted(out, 0, 8));
}

TEST_F(RouterFixture, CheckpointRoundTripsWithItsHotState) {
  // The router serializes its cold state (FIFO and queue orderings,
  // arbiters, RNG); its hot counters travel in the HotState block, as
  // in a Network checkpoint.
  router_.set_measuring(true);
  router_.inject(0, 0, make_packet(0, 1), 0);
  router_.allocate(0);
  router_.inject(1, 0, make_packet(1, 9), 1);  // left buffered
  ASSERT_TRUE(router_.has_buffered());

  CheckpointWriter writer;
  router_.save(writer);
  storage_.hot.save(writer);

  RouterStorage storage(topo_, cfg_);
  Router fresh(topo_, cfg_, /*id=*/0, &routing_, &store_, &sink_, Rng(99),
               storage.hot, storage.scratch, storage.counters());
  // Wire identically (the fixture's wiring), then restore.
  wire_like_network(fresh);
  CheckpointReader reader(writer.bytes());
  fresh.load(reader);
  storage.hot.load(reader);
  EXPECT_TRUE(fresh.has_buffered());
  EXPECT_EQ(fresh.input(1).vcs[0].head(), router_.input(1).vcs[0].head());
  EXPECT_EQ(fresh.input_occupancy(1), router_.input_occupancy(1));
  const PortId out = topo_.local_port_to(0, 1);
  EXPECT_EQ(fresh.output(out).credits(0), router_.output(out).credits(0));
  EXPECT_EQ(fresh.output(1).queue_occupancy(),
            router_.output(1).queue_occupancy());
  EXPECT_EQ(storage.hot.all_in_occupancy(), storage_.hot.all_in_occupancy());
  EXPECT_EQ(fresh.hot().in_mask(0)[0], router_.hot().in_mask(0)[0]);
}

}  // namespace
}  // namespace dragonfly
