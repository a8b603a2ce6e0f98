// Workload layer: structured traffic above the per-node Bernoulli
// sources (see DESIGN.md "Workload layer").
//
// Three modes, selected by `workload.mode`:
//
//   collective — dependency-stepped collective generators (ring/tree
//     allreduce, all-to-all, halo exchange). The first
//     `workload.participants` nodes form the communicator; every other
//     node is silent. Sends are directed (Node::post_send, bypassing
//     the Bernoulli gate) and gated on per-rank receive counts, so the
//     traffic has the data-dependent burst structure real collectives
//     exhibit. Completion time of every iteration is recorded.
//
//   bursty — ON-OFF Markov modulation layered over the configured
//     traffic pattern: each node alternates geometric ON/OFF dwells
//     (means workload.burst_cycles / workload.idle_cycles) from its own
//     deterministic RNG stream, toggling the Node workload gate.
//
//   churn — a multi-tenant job model: jobs arrive (geometric
//     inter-arrival gaps), get a contiguous or random set of routers, a
//     traffic mix from the `workload.mix` list and a sampled lifetime,
//     then depart. Every packet carries its job id so the collector
//     attributes accepted load and latency per tenant.
//
// The driver is stepped SERIALLY at the top of Network::step(), right
// after the (equally serial) delivery drain that feeds it per-delivery
// notifications in canonical order. All of its RNG streams are children
// of the root seed, disjoint from node (n) and router (0x1000000+r)
// streams — so results are bit-identical for any kernel, thread or
// shard count, which the workload conformance tests assert.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "router/packet.hpp"
#include "sim/config.hpp"
#include "traffic/pattern.hpp"

namespace dragonfly {

class Network;
class CheckpointWriter;
class CheckpointReader;

/// Bound to nodes outside any live job (churn mode): never generates.
/// Owned by the driver so departed jobs leave no dangling pattern
/// pointers behind.
class NullPattern final : public TrafficPattern {
 public:
  std::string name() const override { return "workload-idle"; }
  NodeId destination(NodeId /*src*/, Rng& /*rng*/) const override {
    return kInvalidNode;
  }
  bool generates(NodeId /*src*/) const override { return false; }
};

/// Per-job traffic pattern: a named mix mapped onto the job's node list
/// in rank space (rank = index in the sorted node list), so the same
/// mix names mean the same communication structure regardless of where
/// the scheduler placed the job:
///   uniform — uniform over the other job nodes;
///   ring    — rank r -> rank (r+1) mod P;
///   shift   — rank r -> rank (r + P/2) mod P (fixed permutation);
///   hotspot — 20% of packets to rank 0, the rest uniform.
class JobPattern final : public TrafficPattern {
 public:
  JobPattern(std::string mix, std::vector<NodeId> nodes);

  std::string name() const override { return "job-" + mix_; }
  NodeId destination(NodeId src, Rng& rng) const override;
  bool generates(NodeId src) const override;

 private:
  /// Rank of `src` in the sorted node list, or -1 when outside the job.
  std::int32_t rank_of(NodeId src) const;

  std::string mix_;
  std::vector<NodeId> nodes_;  ///< sorted ascending
};

/// The workload subsystem driver. One per Network (constructed only
/// when cfg.workload.enabled()); stepped serially once per cycle.
class WorkloadDriver {
 public:
  /// `root` is the Rng(cfg.seed) root generator; the driver derives its
  /// streams as children disjoint from node and router streams.
  WorkloadDriver(Network& net, Rng root);
  ~WorkloadDriver();

  /// Bind node gates/patterns for the configured mode and register the
  /// initial jobs with the collector. Called once by Network::build()
  /// after the nodes exist.
  void initialize();

  /// Serial per-cycle hook (top of Network::step, after the delivery
  /// drain): advance collective schedules, toggle bursty dwells,
  /// admit/retire churn jobs.
  void on_cycle(Cycle now, bool measuring);

  /// Serial delivery notification in canonical order (from
  /// Network::drain_deliveries): feeds the collective receive counters.
  void on_delivered(const Packet& pkt, Cycle when);

  /// Stable accepted-load denominator for this workload, replacing the
  /// instantaneous generating-node count (which is 0 for collectives
  /// and fluctuates under bursty modulation / job churn): collective =
  /// participants, bursty = nodes the wrapped pattern generates on,
  /// churn = all nodes.
  int accepted_denominator() const { return denominator_; }

  /// Live collective/churn iteration and job state (tests).
  std::int64_t iterations_completed() const { return iterations_completed_; }
  std::size_t live_jobs() const { return jobs_.size(); }

  /// Checkpoint the driver's mutable state (RNG streams, schedules,
  /// live jobs). Serialized BEFORE the node section of the v5 stream:
  /// load() re-binds job patterns so the nodes' generates() recompute
  /// sees the right pattern pointers.
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  enum class Mode : std::uint8_t { kCollective, kBursty, kChurn };

  /// One directed send of a collective schedule: issue `dst` once this
  /// rank's receive count reaches `threshold`.
  struct CollectiveSend {
    NodeId dst = kInvalidNode;
    std::int32_t threshold = 0;
  };

  /// One live churn job. Node list, pattern and router ownership are
  /// derived from the router set (rebuilt on checkpoint load).
  struct Job {
    std::int32_t id = -1;
    std::int32_t mix = 0;  ///< index into mixes_
    std::vector<RouterId> routers;
    std::vector<NodeId> nodes;
    Cycle start = 0;
    Cycle end = 0;
    std::unique_ptr<JobPattern> pattern;
  };

  void init_collective();
  void init_bursty();
  void init_churn();
  void build_send_lists();
  void step_collective(Cycle now, bool measuring);
  void step_bursty(Cycle now);
  void step_churn(Cycle now);
  bool admit_job(Cycle now);
  void retire_job(std::size_t index, Cycle now);
  void bind_job_nodes(Job& job);
  /// Geometric dwell with the given mean (support {1, 2, ...}).
  static Cycle sample_dwell(Rng& rng, Cycle mean);

  Network& net_;
  Rng root_;
  Mode mode_ = Mode::kCollective;
  int denominator_ = 0;
  std::int64_t iterations_completed_ = 0;
  NullPattern null_pattern_;

  // --- collective ---------------------------------------------------------
  int participants_ = 0;
  std::vector<std::vector<CollectiveSend>> sends_;  ///< per rank (derived)
  std::vector<std::int32_t> next_send_;
  std::vector<std::int32_t> recv_count_;
  std::int64_t expected_per_iter_ = 0;  ///< derived: total sends
  std::int64_t iter_delivered_ = 0;
  Cycle iter_start_ = 0;

  // --- bursty -------------------------------------------------------------
  std::vector<Rng> node_rng_;
  std::vector<std::uint8_t> node_on_;
  std::vector<Cycle> next_toggle_;

  // --- churn --------------------------------------------------------------
  Rng churn_rng_;
  Cycle next_arrival_ = 0;
  std::int32_t next_job_id_ = 0;
  int job_routers_ = 0;  ///< resolved (0 in the config = one group)
  std::vector<std::string> mixes_;
  std::vector<Job> jobs_;
  std::vector<std::int32_t> router_job_;  ///< owning job id, -1 = free
};

}  // namespace dragonfly
