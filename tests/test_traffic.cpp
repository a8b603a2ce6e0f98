#include "traffic/pattern.hpp"

#include "topology/dragonfly.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace dragonfly {
namespace {

class TrafficFixture : public ::testing::Test {
 protected:
  DragonflyTopology topo_ = DragonflyTopology::balanced_palmtree(3);
  Rng rng_{123};
};

TEST_F(TrafficFixture, UniformNeverSelfAndCoversAll) {
  const auto pattern = make_uniform(topo_);
  const NodeId src = 17;
  std::set<NodeId> seen;
  for (int i = 0; i < 20'000; ++i) {
    const NodeId dst = pattern->destination(src, rng_);
    ASSERT_NE(dst, src);
    ASSERT_GE(dst, 0);
    ASSERT_LT(dst, topo_.num_nodes());
    seen.insert(dst);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), topo_.num_nodes() - 1);
}

TEST_F(TrafficFixture, UniformIsApproximatelyUniform) {
  const auto pattern = make_uniform(topo_);
  std::map<GroupId, int> per_group;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    per_group[topo_.group_of_node(pattern->destination(0, rng_))]++;
  }
  const double expect = static_cast<double>(n) / topo_.num_groups();
  for (const auto& [g, count] : per_group) {
    EXPECT_NEAR(count, expect, expect * 0.2) << "group " << g;
  }
}

TEST_F(TrafficFixture, AdversarialTargetsOffsetGroup) {
  for (int offset : {1, 2, 5}) {
    const auto pattern = make_adversarial(topo_, offset);
    for (NodeId src : {0, 100, 341}) {
      for (int i = 0; i < 200; ++i) {
        const NodeId dst = pattern->destination(src, rng_);
        EXPECT_EQ(topo_.group_of_node(dst),
                  (topo_.group_of_node(src) + offset) % topo_.num_groups());
      }
    }
  }
}

TEST_F(TrafficFixture, AdversarialCoversWholeTargetGroup) {
  const auto pattern = make_adversarial(topo_, 1);
  std::set<NodeId> seen;
  for (int i = 0; i < 10'000; ++i) seen.insert(pattern->destination(0, rng_));
  EXPECT_EQ(static_cast<int>(seen.size()), topo_.params().a * topo_.params().p);
}

TEST_F(TrafficFixture, AdversarialRejectsBadOffset) {
  EXPECT_THROW(make_adversarial(topo_, 0), std::invalid_argument);
  EXPECT_THROW(make_adversarial(topo_, topo_.num_groups()),
               std::invalid_argument);
  EXPECT_THROW(make_adversarial(topo_, -1), std::invalid_argument);
}

TEST_F(TrafficFixture, AdvcTargetsNextHGroups) {
  const auto pattern = make_adv_consecutive(topo_);
  const int h = topo_.params().h;
  std::map<int, int> offsets;
  for (NodeId src : {0, 57, 200}) {
    const GroupId sg = topo_.group_of_node(src);
    for (int i = 0; i < 3'000; ++i) {
      const GroupId dg = topo_.group_of_node(pattern->destination(src, rng_));
      const int d = (dg - sg + topo_.num_groups()) % topo_.num_groups();
      ASSERT_GE(d, 1);
      ASSERT_LE(d, h);
      ++offsets[d];
    }
  }
  // Roughly uniform over the h offsets.
  for (int d = 1; d <= h; ++d) {
    EXPECT_NEAR(offsets[d], 9000 / h, 9000 / h * 0.2) << "offset " << d;
  }
}

TEST_F(TrafficFixture, AdvcMinimalPathsExitThroughBottleneckRouter) {
  // The defining property (paper Sec. III): every ADVc destination's
  // minimal route leaves the source group through router a-1.
  const auto pattern = make_adv_consecutive(topo_);
  for (int i = 0; i < 2'000; ++i) {
    const NodeId src = static_cast<NodeId>(
        rng_.below(static_cast<std::uint64_t>(topo_.num_nodes())));
    const NodeId dst = pattern->destination(src, rng_);
    const RouterId exit = topo_.exit_router(topo_.group_of_node(src),
                                            topo_.group_of_node(dst));
    EXPECT_EQ(topo_.router_in_group(exit), topo_.params().a - 1);
  }
}

TEST_F(TrafficFixture, AdvcCustomSpread) {
  const auto pattern = make_adv_consecutive(topo_, 2);
  for (int i = 0; i < 1'000; ++i) {
    const GroupId dg = topo_.group_of_node(pattern->destination(0, rng_));
    EXPECT_GE(dg, 1);
    EXPECT_LE(dg, 2);
  }
  EXPECT_THROW(make_adv_consecutive(topo_, topo_.num_groups()),
               std::invalid_argument);
}

TEST_F(TrafficFixture, PlacementOnlyJobNodesGenerate) {
  const int h = topo_.params().h;
  const auto pattern = make_placement(topo_, 2, 0);  // groups 2..2+h
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const GroupId g = topo_.group_of_node(n);
    const bool in_job = g >= 2 && g <= 2 + h;
    EXPECT_EQ(pattern->generates(n), in_job) << "node " << n;
    if (!in_job) {
      EXPECT_EQ(pattern->destination(n, rng_), kInvalidNode);
    }
  }
}

TEST_F(TrafficFixture, PlacementDestinationsStayInJobAndExcludeSelf) {
  const auto pattern = make_placement(topo_, 0, 3);
  const NodeId src = 5;
  std::set<NodeId> seen;
  for (int i = 0; i < 20'000; ++i) {
    const NodeId dst = pattern->destination(src, rng_);
    ASSERT_NE(dst, src);
    ASSERT_LT(topo_.group_of_node(dst), 3);
    seen.insert(dst);
  }
  const int job_nodes = 3 * topo_.params().a * topo_.params().p;
  EXPECT_EQ(static_cast<int>(seen.size()), job_nodes - 1);
}

TEST_F(TrafficFixture, PlacementWrapsAroundGroupSpace) {
  // A job placed near the last group wraps to group 0.
  const GroupId first = topo_.num_groups() - 1;
  const auto pattern = make_placement(topo_, first, 2);
  const NodeId src = topo_.node_id(topo_.router_id(first, 0), 0);
  bool saw_wrap = false;
  for (int i = 0; i < 2'000; ++i) {
    const GroupId dg = topo_.group_of_node(pattern->destination(src, rng_));
    EXPECT_TRUE(dg == first || dg == 0);
    saw_wrap |= dg == 0;
  }
  EXPECT_TRUE(saw_wrap);
}

TEST_F(TrafficFixture, ShiftIsAPermutation) {
  const auto pattern = make_shift(topo_, 0);  // default: one group of nodes
  std::set<NodeId> dsts;
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    const NodeId dst = pattern->destination(src, rng_);
    EXPECT_NE(dst, src);
    dsts.insert(dst);
    // Default offset = a*p nodes = exactly one group ahead.
    EXPECT_EQ(topo_.group_of_node(dst),
              (topo_.group_of_node(src) + 1) % topo_.num_groups());
  }
  EXPECT_EQ(static_cast<int>(dsts.size()), topo_.num_nodes());
}

TEST_F(TrafficFixture, ShiftCustomOffsetAndValidation) {
  const auto pattern = make_shift(topo_, 5);
  EXPECT_EQ(pattern->destination(0, rng_), 5);
  EXPECT_EQ(pattern->destination(topo_.num_nodes() - 1, rng_), 4);
  EXPECT_THROW(make_shift(topo_, topo_.num_nodes()), std::invalid_argument);
  EXPECT_THROW(make_shift(topo_, -3), std::invalid_argument);
}

TEST_F(TrafficFixture, HotspotFractionRespected) {
  const NodeId hot = 42;
  const auto pattern = make_hotspot(topo_, hot, 0.25);
  int hot_hits = 0;
  const int n = 40'000;
  for (int i = 0; i < n; ++i) {
    hot_hits += pattern->destination(0, rng_) == hot ? 1 : 0;
  }
  // 25% direct + ~uniform residual mass on the hot node.
  const double expected = 0.25 + 0.75 / (topo_.num_nodes() - 1);
  EXPECT_NEAR(static_cast<double>(hot_hits) / n, expected, 0.02);
}

TEST_F(TrafficFixture, HotspotNeverSelfAndValidates) {
  const auto pattern = make_hotspot(topo_, 7, 0.9);
  for (int i = 0; i < 2'000; ++i) {
    EXPECT_NE(pattern->destination(7, rng_), 7);
  }
  EXPECT_THROW(make_hotspot(topo_, -1, 0.5), std::invalid_argument);
  EXPECT_THROW(make_hotspot(topo_, 0, 1.5), std::invalid_argument);
}

TEST_F(TrafficFixture, FactoryBuildsConfiguredKind) {
  SimConfig cfg;
  cfg.topo = topo_.params();
  cfg.traffic_name = "uniform";
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "UN");
  cfg.traffic_name = "adv";
  cfg.adversarial_offset = 2;
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "ADV+2");
  cfg.traffic_name = "advc";
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "ADVc");
  cfg.traffic_name = "placement";
  cfg.placement_first_group = 1;
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "placement[1+4]");
  cfg.traffic_name = "shift";
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "shift+18");
  cfg.traffic_name = "hotspot";
  cfg.hotspot_node = 3;
  EXPECT_EQ(make_traffic(topo_, cfg)->name(), "hotspot[3]");
}

}  // namespace
}  // namespace dragonfly
