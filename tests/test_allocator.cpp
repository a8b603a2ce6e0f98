#include "router/allocator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace dragonfly {
namespace {

/// Working arrays for every allocator below (at most 4x4 ports and a
/// few requests); allocate() leaves them as it found them.
AllocatorScratch& scratch() {
  static AllocatorScratch s(/*num_inputs=*/4, /*num_outputs=*/4,
                            /*max_requests=*/8);
  return s;
}

AllocRequest make_request(PortId in, VcId vc, PortId out, bool injection = false,
                          Cycle age = 0) {
  AllocRequest r;
  r.in_port = in;
  r.in_vc = vc;
  r.out_port = out;
  r.out_vc = 0;
  r.is_injection = injection;
  r.age = age;
  return r;
}

int granted_count(const std::vector<AllocRequest>& reqs) {
  int n = 0;
  for (const auto& r : reqs) n += r.granted ? 1 : 0;
  return n;
}

TEST(Allocator, SingleRequestGranted) {
  SeparableAllocator alloc(4, 4, {});
  std::vector<AllocRequest> reqs{make_request(0, 0, 2)};
  alloc.allocate(reqs, scratch());
  EXPECT_TRUE(reqs[0].granted);
}

TEST(Allocator, ConflictingRequestsGetBounded) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  SeparableAllocator alloc(4, 4, cfg);
  std::vector<AllocRequest> reqs{make_request(0, 0, 2), make_request(1, 0, 2),
                                 make_request(2, 0, 2)};
  alloc.allocate(reqs, scratch());
  EXPECT_EQ(granted_count(reqs), 1);
}

TEST(Allocator, SpeedupAllowsTwoGrantsPerOutput) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 2;
  SeparableAllocator alloc(4, 4, cfg);
  std::vector<AllocRequest> reqs{make_request(0, 0, 2), make_request(1, 0, 2),
                                 make_request(2, 0, 2)};
  alloc.allocate(reqs, scratch());
  EXPECT_EQ(granted_count(reqs), 2);
}

TEST(Allocator, MaxGrantsPerInputRespected) {
  AllocatorConfig cfg;
  cfg.max_grants_per_input = 2;
  cfg.iterations = 4;
  SeparableAllocator alloc(2, 4, cfg);
  // One input port with 3 VCs requesting 3 distinct outputs.
  std::vector<AllocRequest> reqs{make_request(0, 0, 0), make_request(0, 1, 1),
                                 make_request(0, 2, 2)};
  alloc.allocate(reqs, scratch());
  EXPECT_EQ(granted_count(reqs), 2);
}

TEST(Allocator, DisjointRequestsAllGranted) {
  SeparableAllocator alloc(4, 4, {});
  std::vector<AllocRequest> reqs{make_request(0, 0, 0), make_request(1, 0, 1),
                                 make_request(2, 0, 2), make_request(3, 0, 3)};
  alloc.allocate(reqs, scratch());
  EXPECT_EQ(granted_count(reqs), 4);
}

TEST(Allocator, TransitPriorityBeatsInjection) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  cfg.transit_priority = true;
  SeparableAllocator alloc(4, 4, cfg);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<AllocRequest> reqs{
        make_request(0, 0, 2, /*injection=*/true),
        make_request(1, 0, 2, /*injection=*/false),
    };
    alloc.allocate(reqs, scratch());
    EXPECT_FALSE(reqs[0].granted) << "trial " << trial;
    EXPECT_TRUE(reqs[1].granted) << "trial " << trial;
  }
}

TEST(Allocator, InjectionWinsWhenNoTransit) {
  AllocatorConfig cfg;
  cfg.transit_priority = true;
  SeparableAllocator alloc(4, 4, cfg);
  std::vector<AllocRequest> reqs{make_request(0, 0, 2, /*injection=*/true)};
  alloc.allocate(reqs, scratch());
  EXPECT_TRUE(reqs[0].granted);
}

TEST(Allocator, WithoutPriorityInjectionGetsRoundRobinShare) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  cfg.transit_priority = false;
  SeparableAllocator alloc(4, 4, cfg);
  int injection_wins = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<AllocRequest> reqs{
        make_request(0, 0, 2, /*injection=*/true),
        make_request(1, 0, 2, /*injection=*/false),
    };
    alloc.allocate(reqs, scratch());
    injection_wins += reqs[0].granted ? 1 : 0;
  }
  EXPECT_NEAR(injection_wins, 50, 10);
}

TEST(Allocator, AgeArbitrationPicksOldest) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  cfg.age_arbitration = true;
  cfg.transit_priority = false;
  SeparableAllocator alloc(4, 4, cfg);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<AllocRequest> reqs{
        make_request(0, 0, 2, false, /*age=*/100),
        make_request(1, 0, 2, false, /*age=*/5),  // oldest
        make_request(2, 0, 2, false, /*age=*/50),
    };
    alloc.allocate(reqs, scratch());
    EXPECT_FALSE(reqs[0].granted);
    EXPECT_TRUE(reqs[1].granted);
    EXPECT_FALSE(reqs[2].granted);
  }
}

TEST(Allocator, AgeArbitrationSupersedesTransitPriority) {
  // Age arbitration is the explicit fairness mechanism: the oldest packet
  // wins even against prioritized transit (otherwise a starved injection
  // port could never recover).
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  cfg.age_arbitration = true;
  cfg.transit_priority = true;
  SeparableAllocator alloc(4, 4, cfg);
  std::vector<AllocRequest> reqs{
      make_request(0, 0, 2, /*injection=*/true, /*age=*/1),   // older
      make_request(1, 0, 2, /*injection=*/false, /*age=*/99),  // transit
  };
  alloc.allocate(reqs, scratch());
  EXPECT_TRUE(reqs[0].granted);
  EXPECT_FALSE(reqs[1].granted);
}

TEST(Allocator, RoundRobinIsFairOverTime) {
  AllocatorConfig cfg;
  cfg.max_grants_per_output = 1;
  cfg.iterations = 1;
  SeparableAllocator alloc(3, 1, cfg);
  std::map<PortId, int> wins;
  for (int cycle = 0; cycle < 300; ++cycle) {
    std::vector<AllocRequest> reqs{make_request(0, 0, 0), make_request(1, 0, 0),
                                   make_request(2, 0, 0)};
    alloc.allocate(reqs, scratch());
    for (const auto& r : reqs) {
      if (r.granted) ++wins[r.in_port];
    }
  }
  for (PortId p = 0; p < 3; ++p) {
    EXPECT_NEAR(wins[p], 100, 5) << "port " << p;
  }
}

TEST(Allocator, MoreIterationsImproveMatching) {
  // Input 0 requests outputs {0,1}; input 1 requests output 0 only. A
  // single iteration can leave output 1 unmatched when input 0 proposes
  // output 0 and loses; more iterations recover the full matching.
  AllocatorConfig one;
  one.iterations = 1;
  one.max_grants_per_output = 1;
  AllocatorConfig three;
  three.iterations = 3;
  three.max_grants_per_output = 1;

  int total_one = 0;
  int total_three = 0;
  SeparableAllocator a1(2, 2, one);
  SeparableAllocator a3(2, 2, three);
  for (int cycle = 0; cycle < 50; ++cycle) {
    std::vector<AllocRequest> reqs{make_request(0, 0, 0), make_request(0, 1, 1),
                                   make_request(1, 0, 0)};
    auto copy = reqs;
    a1.allocate(copy, scratch());
    total_one += granted_count(copy);
    a3.allocate(reqs, scratch());
    total_three += granted_count(reqs);
  }
  EXPECT_GE(total_three, total_one);
  EXPECT_EQ(total_three, 100);  // perfect matching every cycle
}

TEST(Allocator, NoDoubleGrantPerVc) {
  SeparableAllocator alloc(2, 4, {});
  std::vector<AllocRequest> reqs{make_request(0, 0, 1), make_request(0, 0, 2)};
  // Two requests from the same (port, vc) would mean the router built a
  // bad request list; the allocator must still never grant both.
  alloc.allocate(reqs, scratch());
  EXPECT_LE(granted_count(reqs), 2);  // bounded by max grants
}

}  // namespace
}  // namespace dragonfly
