// Synthetic traffic patterns (paper Secs. III and IV-A).
//
//   UN    — uniform random destination over all nodes;
//   ADV+k — every node of group g targets a random node of group g+k;
//   ADVc  — every node targets a random node in the next `spread`
//           consecutive groups (+1..+spread, default spread=h); under the
//           palmtree arrangement their minimal paths all exit through the
//           last router of the group (the bottleneck);
//   placement — uniform traffic *within* a job allocated on consecutive
//           groups (Sec. III's motivation: a scheduler placing an
//           application on h+1 consecutive groups makes even uniform
//           application traffic look like ADVc to the network).
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/registry.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace dragonfly {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;

  virtual std::string name() const = 0;

  /// Destination for a packet generated at `src`, or kInvalidNode if this
  /// source does not generate traffic (e.g. outside a placement).
  virtual NodeId destination(NodeId src, Rng& rng) const = 0;

  /// True when `src` generates traffic at all (placement patterns keep
  /// nodes outside the job silent).
  virtual bool generates(NodeId src) const {
    (void)src;
    return true;
  }
};

std::unique_ptr<TrafficPattern> make_uniform(const Topology& topo);
std::unique_ptr<TrafficPattern> make_adversarial(const Topology& topo,
                                                 int offset);
/// ADVc with destinations spread over the next `spread` groups
/// (spread == 0 selects the paper's h).
std::unique_ptr<TrafficPattern> make_adv_consecutive(
    const Topology& topo, int spread = 0);
/// Uniform traffic among the nodes of `num_groups` consecutive groups
/// starting at `first_group` (num_groups == 0 selects h+1).
std::unique_ptr<TrafficPattern> make_placement(const Topology& topo,
                                               GroupId first_group,
                                               int num_groups = 0);
/// Shift permutation: dst = (src + offset) mod N (offset == 0 selects one
/// full group of nodes, i.e. the group-level +1 shift).
std::unique_ptr<TrafficPattern> make_shift(const Topology& topo,
                                           int offset_nodes = 0);
/// Uniform traffic with `fraction` of the packets redirected to one hot
/// node — the classic incast/hotspot stressor.
std::unique_ptr<TrafficPattern> make_hotspot(const Topology& topo,
                                             NodeId hot, double fraction);

/// The open set of traffic patterns, keyed by registry name. Built-ins
/// self-register under the paper's names ("uniform", "adv", "advc",
/// "placement", "shift", "hotspot"; the paper's spellings "UN"/"ADV"/"ADVc"
/// resolve as aliases). User code registers new patterns here and
/// selects them through SimConfig::traffic_name — no core edits needed.
/// Factories receive the topology and the full SimConfig (for knobs
/// like adversarial_offset).
using TrafficRegistry =
    Registry<TrafficPattern, const Topology&, const SimConfig&>;
TrafficRegistry& traffic_registry();

/// Build the pattern selected by cfg.traffic_name.
std::unique_ptr<TrafficPattern> make_traffic(const Topology& topo,
                                             const SimConfig& cfg);

}  // namespace dragonfly
