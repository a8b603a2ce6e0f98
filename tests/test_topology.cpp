#include "topology/dragonfly.hpp"

#include "common/rng.hpp"
#include "service/engine.hpp"
#include "sim/config.hpp"
#include "sim/session.hpp"
#include "topology/flatbfly.hpp"
#include "topology/topology_cache.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace dragonfly {
namespace {

class TopologyParam : public ::testing::TestWithParam<int> {
 protected:
  DragonflyTopology topo_ = DragonflyTopology::balanced_palmtree(GetParam());
};

TEST_P(TopologyParam, ValidatePasses) { EXPECT_NO_THROW(topo_.validate()); }

TEST_P(TopologyParam, IdentifierRoundTrips) {
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const RouterId r = topo_.router_of_node(n);
    const int idx = topo_.node_index_in_router(n);
    EXPECT_EQ(topo_.node_id(r, idx), n);
    const GroupId g = topo_.group_of_router(r);
    const int rig = topo_.router_in_group(r);
    EXPECT_EQ(topo_.router_id(g, rig), r);
    EXPECT_EQ(topo_.group_of_node(n), g);
  }
}

TEST_P(TopologyParam, PortLayout) {
  const auto& p = topo_.params();
  EXPECT_EQ(topo_.ports_per_router(), p.p + p.a - 1 + p.h);
  for (PortId port = 0; port < topo_.ports_per_router(); ++port) {
    if (port < p.p) {
      EXPECT_EQ(topo_.input_port_kind(port), PortKind::kInjection);
      EXPECT_EQ(topo_.output_port_kind(port), PortKind::kEjection);
    } else if (port < p.p + p.a - 1) {
      EXPECT_EQ(topo_.input_port_kind(port), PortKind::kLocal);
      EXPECT_EQ(topo_.output_port_kind(port), PortKind::kLocal);
    } else {
      EXPECT_EQ(topo_.input_port_kind(port), PortKind::kGlobal);
      EXPECT_EQ(topo_.output_port_kind(port), PortKind::kGlobal);
    }
  }
}

TEST_P(TopologyParam, LocalPortsAreSymmetric) {
  const auto& p = topo_.params();
  if (p.a < 2) return;
  for (GroupId g = 0; g < std::min(3, topo_.num_groups()); ++g) {
    for (int i = 0; i < p.a; ++i) {
      for (int j = 0; j < p.a; ++j) {
        if (i == j) continue;
        const RouterId ri = topo_.router_id(g, i);
        const RouterId rj = topo_.router_id(g, j);
        const PortId port = topo_.local_port_to(ri, rj);
        EXPECT_EQ(topo_.local_peer(ri, port), rj);
        // The reverse port must map back.
        EXPECT_EQ(topo_.local_peer(rj, topo_.local_port_to(rj, ri)), ri);
      }
    }
  }
}

TEST_P(TopologyParam, GlobalPeersAreMutual) {
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId port = topo_.first_global_port();
         port < topo_.ports_per_router(); ++port) {
      const RouterId peer = topo_.global_peer(r, port);
      const PortId peer_port = topo_.global_peer_port(r, port);
      EXPECT_EQ(topo_.global_peer(peer, peer_port), r);
      EXPECT_EQ(topo_.global_peer_port(peer, peer_port), port);
      EXPECT_EQ(topo_.global_target_group(r, port),
                topo_.group_of_router(peer));
    }
  }
}

TEST_P(TopologyParam, MinimalPathsHaveAtMostThreeLinks) {
  // Canonical dragonfly: worst case lgl (local + global + local).
  const int stride = std::max(1, topo_.num_nodes() / 64);
  for (NodeId s = 0; s < topo_.num_nodes(); s += stride) {
    for (NodeId d = 0; d < topo_.num_nodes(); d += stride) {
      const PathLengths len = topo_.minimal_lengths(s, d);
      EXPECT_LE(len.local, 2);
      EXPECT_LE(len.global, 1);
      if (topo_.group_of_node(s) != topo_.group_of_node(d)) {
        EXPECT_EQ(len.global, 1);
      } else {
        EXPECT_EQ(len.global, 0);
        EXPECT_LE(len.local, 1);
      }
    }
  }
}

TEST_P(TopologyParam, MinimalOutputWalkReachesDestination) {
  // Follow minimal_output hop by hop from every sampled source; the walk
  // must terminate at the destination within 3 link hops.
  const int stride = std::max(1, topo_.num_nodes() / 32);
  for (NodeId s = 0; s < topo_.num_nodes(); s += stride) {
    for (NodeId d = 0; d < topo_.num_nodes(); d += stride + 1) {
      RouterId at = topo_.router_of_node(s);
      int hops = 0;
      while (true) {
        const PortId out = topo_.minimal_output(at, d);
        if (topo_.output_port_kind(out) == PortKind::kEjection) {
          EXPECT_EQ(at, topo_.router_of_node(d));
          EXPECT_EQ(out, topo_.ejection_port(topo_.node_index_in_router(d)));
          break;
        }
        at = topo_.output_port_kind(out) == PortKind::kLocal
                 ? topo_.local_peer(at, out)
                 : topo_.global_peer(at, out);
        ASSERT_LE(++hops, 3) << "minimal walk too long";
      }
      EXPECT_EQ(hops, topo_.minimal_lengths(s, d).total());
    }
  }
}

TEST_P(TopologyParam, ExitRouterOwnsTheLink) {
  const int G = topo_.num_groups();
  for (GroupId g = 0; g < std::min(G, 8); ++g) {
    for (GroupId t = 0; t < G; ++t) {
      if (g == t) continue;
      const RouterId exit = topo_.exit_router(g, t);
      const PortId port = topo_.exit_port(g, t);
      EXPECT_EQ(topo_.group_of_router(exit), g);
      EXPECT_EQ(topo_.global_target_group(exit, port), t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radix, TopologyParam, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "h" + std::to_string(info.param);
                         });

TEST(Topology, RejectsInvalidParams) {
  EXPECT_THROW(DragonflyTopology({0, 1, 1}, make_palmtree()),
               std::invalid_argument);
  EXPECT_THROW(DragonflyTopology({1, 1, 1}, nullptr), std::invalid_argument);
}

TEST(Topology, LocalPortToRejectsNonLocalPairs) {
  const DragonflyTopology topo = DragonflyTopology::balanced_palmtree(2);
  EXPECT_THROW(topo.local_port_to(0, 0), std::invalid_argument);
  // Routers in different groups.
  EXPECT_THROW(topo.local_port_to(0, topo.params().a), std::invalid_argument);
}

TEST(Topology, TrimmedDragonflyShapesAndDeadSlots) {
  // p=1, a=3, h=3 (L=9, odd), trimmed to 5 groups: the offset-pair
  // wiring leaves the last slot of every router... only the unpaired
  // trailing slot per group is dead; every group pair stays covered.
  const DragonflyTopology topo({1, 3, 3, 5}, make_palmtree());
  EXPECT_EQ(topo.num_groups(), 5);
  EXPECT_EQ(topo.name(), "dfly:1,3,3,5");
  EXPECT_NO_THROW(topo.validate());
  int dead = 0;
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (int k = 0; k < topo.global_slots(); ++k) {
      if (!topo.global_connected(r, topo.global_port(k))) ++dead;
    }
  }
  EXPECT_EQ(dead, topo.num_groups());  // one unpaired slot per group
  for (GroupId g = 0; g < topo.num_groups(); ++g) {
    for (GroupId t2 = 0; t2 < topo.num_groups(); ++t2) {
      if (g == t2) continue;
      EXPECT_EQ(topo.group_of_router(topo.exit_router(g, t2)), g);
    }
  }
}

TEST(Topology, ExitLinkPrefersTheRoutersOwnPort) {
  // Trimmed shape with parallel group links: when `at` owns a link to
  // the target group, exit_link must take it (saving the local hop) and
  // the minimal oracle must agree.
  const DragonflyTopology topo({1, 2, 2, 3}, make_palmtree());
  for (RouterId at = 0; at < topo.num_routers(); ++at) {
    for (GroupId tgt = 0; tgt < topo.num_groups(); ++tgt) {
      if (tgt == topo.group_of_router(at)) continue;
      const GlobalLinkRef link = topo.exit_link(at, tgt);
      EXPECT_EQ(link.target, tgt);
      bool owns = false;
      for (int i = 0; i < topo.router_link_count(at); ++i) {
        owns = owns || topo.router_link(at, i).target == tgt;
      }
      EXPECT_EQ(owns, link.router == at);
      // minimal_global_link walks the oracle and must land on a link of
      // the same group, aimed at the same target.
      const RouterId dst = topo.router_id(tgt, 0);
      const GlobalLinkRef min_link = topo.minimal_global_link(at, dst);
      EXPECT_EQ(topo.group_of_router(min_link.router),
                topo.group_of_router(at));
      EXPECT_EQ(min_link.target, tgt);
    }
  }
}

TEST(Topology, FlattenedButterflyShape) {
  const FlatButterflyTopology topo({4, 3, 0});
  EXPECT_EQ(topo.name(), "flatbfly:4,3");
  EXPECT_EQ(topo.family(), "flatbfly");
  EXPECT_EQ(topo.num_groups(), 4);
  EXPECT_EQ(topo.num_routers(), 16);
  EXPECT_EQ(topo.num_nodes(), 64);         // concentration defaults to k
  EXPECT_EQ(topo.ports_per_router(), 10);  // 4 + 3 + 3
  EXPECT_EQ(topo.max_minimal_hops(), 2);   // dimension-order: l then g
  EXPECT_NO_THROW(topo.validate());
  // Every group pair is joined by k parallel links, one per column.
  for (GroupId g = 0; g < topo.num_groups(); ++g) {
    EXPECT_EQ(topo.group_link_count(g),
              topo.routers_per_group() * (topo.num_groups() - 1));
  }
  // Same-column routers reach each other with one global hop.
  const PathLengths len = topo.minimal_lengths_router(
      topo.router_id(0, 2), topo.router_id(3, 2));
  EXPECT_EQ(len.local, 0);
  EXPECT_EQ(len.global, 1);
}

TEST(Topology, SingleDimensionFlattenedButterflyHasNoGlobalLinks) {
  const FlatButterflyTopology topo({8, 2, 0});
  EXPECT_EQ(topo.num_groups(), 1);
  EXPECT_EQ(topo.global_slots(), 0);
  EXPECT_EQ(topo.max_minimal_hops(), 1);
  EXPECT_NO_THROW(topo.validate());
}

TEST(Topology, RegistryBuildsFamiliesFromConfig) {
  SimConfig cfg;
  cfg.topology = "flatbfly:3,3";
  const auto flat = make_topology(cfg);
  EXPECT_EQ(flat->family(), "flatbfly");
  EXPECT_EQ(flat->num_routers(), 9);

  cfg.topology.clear();
  cfg.topo = DragonflyParams::balanced(2);
  const auto dfly = make_topology(cfg);
  EXPECT_EQ(dfly->family(), "dfly");
  EXPECT_EQ(dfly->name(), "dfly:2,4,2");
  EXPECT_EQ(dfly->num_nodes(), DragonflyParams::balanced(2).num_nodes());

  const auto shape = try_topology_shape(cfg);
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->num_nodes(), dfly->num_nodes());
}

TEST(Topology, PaperScaleTableI) {
  const DragonflyTopology topo = DragonflyTopology::balanced_palmtree(6);
  EXPECT_EQ(topo.ports_per_router(), 23);  // Table I: 23-port routers
  EXPECT_EQ(topo.num_nodes(), 5256);
  EXPECT_EQ(topo.num_routers(), 876);
  EXPECT_EQ(topo.num_groups(), 73);
}

TEST(Topology, CacheBuildsAShapeOnceUnderConcurrentFirstUse) {
  // Sweep points start together; each shape must still be built once,
  // with the other acquirers waiting for that build.
  TopologyCache cache;
  const SimConfig cfg = SimConfig::small(4);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Topology>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = cache.acquire(cfg);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& topo : got) EXPECT_EQ(topo, got[0]);
  const TopologyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.live, 1u);
}

// A user-registered family whose wiring reads a knob outside
// topology_cache_key: the seed picks the global arrangement (odd:
// consecutive, even: palmtree). Every build records its seed.
std::mutex g_seeded_mu;
std::vector<std::uint64_t> g_seeded_builds;

const TopologyRegistry::Registrar kRegisterSeededDfly{
    topology_registry(), "seeded-dfly",
    [](const std::string& args,
       const SimConfig& cfg) -> std::unique_ptr<Topology> {
      {
        std::lock_guard<std::mutex> lock(g_seeded_mu);
        g_seeded_builds.push_back(cfg.seed);
      }
      return std::make_unique<DragonflyTopology>(
          parse_dragonfly_args(args, cfg.topo),
          make_arrangement(cfg.seed % 2 == 1 ? "consecutive" : "palmtree"));
    }};

/// Every global port's peer router, in (router, port) order.
std::vector<RouterId> global_wiring(const Topology& topo) {
  std::vector<RouterId> peers;
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (PortId port = topo.first_global_port();
         port < topo.ports_per_router(); ++port) {
      peers.push_back(topo.global_connected(r, port)
                          ? topo.global_peer(r, port)
                          : kInvalidRouter);
    }
  }
  return peers;
}

SimConfig seeded_config(std::uint64_t seed) {
  SimConfig cfg = SimConfig::small(2);
  cfg.topology = "seeded-dfly:2,4,2";
  cfg.seed = seed;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 100;
  return cfg;
}

TEST(Topology, RegisteredFamilyIsNotSharedAcrossSeeds) {
  // Sharing keys on the six topology knobs only, so a family whose
  // factory reads the seed must build per session.
  Session odd(seeded_config(1));
  Session even(seeded_config(2));
  EXPECT_NE(&odd.network().topology(), &even.network().topology());
  EXPECT_NE(global_wiring(odd.network().topology()),
            global_wiring(even.network().topology()));
  EXPECT_EQ(global_wiring(odd.network().topology()),
            global_wiring(*make_topology(seeded_config(1))));
}

TEST(Topology, ServiceBuildsARegisteredFamilyPerRun) {
  // Two requests whose runs draw seeds of different parity: the service
  // must hand each run the wiring of its own seed, not the first
  // request's cached one.
  std::uint64_t seeds[2] = {1, 0};
  for (std::uint64_t s = 2; seeds[1] == 0; ++s) {
    if (derive_seed(s, 0) % 2 != derive_seed(seeds[0], 0) % 2) seeds[1] = s;
  }
  SweepService service(ServiceOptions{.workers = 1});
  {
    std::lock_guard<std::mutex> lock(g_seeded_mu);
    g_seeded_builds.clear();
  }
  for (const std::uint64_t seed : seeds) {
    const RequestReport rep = service.execute(
        {"topology=seeded-dfly:2,4,2", "routing=min", "traffic=uniform",
         "load=0.2", "warmup_cycles=100", "measure_cycles=100",
         "seed=" + std::to_string(seed)});
    ASSERT_TRUE(rep.ok()) << rep.error;
  }
  std::set<std::uint64_t> arrangements;
  std::set<std::uint64_t> built;
  {
    std::lock_guard<std::mutex> lock(g_seeded_mu);
    for (const std::uint64_t seed : g_seeded_builds) {
      built.insert(seed);
      arrangements.insert(seed % 2);
    }
  }
  EXPECT_TRUE(built.count(derive_seed(seeds[0], 0)));
  EXPECT_TRUE(built.count(derive_seed(seeds[1], 0)));
  EXPECT_EQ(arrangements.size(), 2u);
  EXPECT_EQ(service.stats().topologies.live, 0u);
}

}  // namespace
}  // namespace dragonfly
