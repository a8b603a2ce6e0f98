// Simulation configuration. Defaults mirror Table I of the paper; the
// scaled-down preset used by the bench harness shrinks only the topology
// and the measurement window, never the router microarchitecture.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "topology/arrangement.hpp"

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// Which cycle-kernel implementation Network::step() runs. Both operate
/// on the same structure-of-arrays state and produce bit-identical
/// results; `scan` is the dense reference path kept for cross-checking.
enum class SimKernel : std::uint8_t {
  kActive,  ///< active-set scheduling + event-driven link transfer
  kScan,    ///< dense scan over every router/node/port each cycle
};

const char* to_string(SimKernel kernel);
SimKernel sim_kernel_from_string(const std::string& name);

/// How the Session decides when the Measure phase ends.
enum class StopMode : std::uint8_t {
  kFixed,  ///< the paper's fixed window: exactly measure_cycles
  kCi,     ///< batch-means CI: stop when converged, measure_cycles caps
};

const char* to_string(StopMode mode);
StopMode stop_mode_from_string(const std::string& name);

/// Adaptive-stopping knobs (`stop.*` keys). In kCi mode the Measure
/// phase is cut into batches of batch_cycles; once at least `batches`
/// batches completed and the 95% confidence intervals of both the
/// per-batch accepted load and the per-batch mean latency have relative
/// half-width <= rel_hw, measurement ends at the batch boundary.
/// measure_cycles remains the hard cap.
struct StopRule {
  StopMode mode = StopMode::kFixed;
  double rel_hw = 0.05;      ///< target relative CI half-width
  int batches = 10;          ///< minimum completed batches before testing
  Cycle batch_cycles = 500;  ///< batch length in cycles
};

/// One user-defined scripted segment of the Measure phase (`phases`
/// key). Segments run in order; at each segment boundary the listed
/// mutations are applied to the live network, so time-varying workloads
/// (a traffic shift mid-run, a load ramp) are measured in one window.
struct ScriptedSegment {
  std::string name;     ///< label, surfaced in stream samples
  Cycle cycles = 0;     ///< segment duration (>= 1)
  double load = -1.0;   ///< new offered load at entry; < 0 keeps current
  std::string traffic;  ///< new traffic registry name; empty keeps current
};

/// Workload-subsystem knobs (`workload.*` keys, src/workload). Mode
/// "off" (the default) bypasses the subsystem entirely: the open-loop
/// Bernoulli generators behave exactly as before. The other modes put
/// a serially-stepped WorkloadDriver in charge of who generates what:
///   collective — dependency-stepped ring/tree allreduce, all-to-all or
///                halo-exchange iterations over the first `participants`
///                nodes, one completion-time sample per iteration;
///   bursty     — ON-OFF modulation of the configured traffic pattern
///                with per-node geometric dwell times;
///   churn      — a multi-tenant job model: jobs arrive, get placed on
///                contiguous or random router sets, run a rank-space
///                traffic mix for a sampled lifetime, then depart.
struct WorkloadConfig {
  std::string mode = "off";        ///< off | collective | bursty | churn
  std::string collective = "ring"; ///< ring | tree | alltoall | halo
  int participants = 0;            ///< collective ranks (0 = every node)
  Cycle burst_cycles = 200;        ///< bursty: mean ON dwell, cycles
  Cycle idle_cycles = 200;         ///< bursty: mean OFF dwell, cycles
  int jobs = 4;                    ///< churn: max concurrent jobs
  Cycle arrival_cycles = 500;      ///< churn: mean job inter-arrival gap
  Cycle job_cycles = 2'000;        ///< churn: mean job lifetime, cycles
  int job_routers = 0;             ///< churn: routers per job (0 = one group)
  std::string placement = "contiguous";  ///< contiguous | random router sets
  /// Comma list of per-job rank-space mixes, cycled by job index:
  /// uniform | ring | shift | hotspot (all within the job's own nodes).
  std::string mix = "uniform";

  bool enabled() const { return mode != "off"; }
};

struct SimConfig {
  // --- topology (Table I: h=6, a=12, p=6, 73 groups, 5256 nodes) ---------
  /// Topology spec "family[:args]" from the registry
  /// (core/topology registry): "dfly[:p,a,h[,G]]", "flatbfly:k,n[,p]",
  /// or any user-registered family. Empty selects the dragonfly
  /// described by `topo` below (the h/p/a/groups keys reset it so the
  /// last topology-selecting override wins; `topology=` with an empty
  /// value selects it too).
  std::string topology;
  DragonflyParams topo = DragonflyParams::balanced(6);
  std::string arrangement = "palmtree";
  /// Set when a key=value override picked the arrangement, so validate()
  /// can reject arrangements aimed at a non-dragonfly topology.
  bool arrangement_explicit = false;

  // --- timing --------------------------------------------------------------
  Cycle local_latency = 10;   ///< cycles; 2 m wires @10 bytes/cycle
  Cycle global_latency = 100; ///< cycles; 20 m wires
  int pipeline_latency = 5;   ///< router pipeline depth (cycles)
  int packet_size = 8;        ///< phits per packet

  // --- buffering (phits) -----------------------------------------------------
  int output_queue_size = 32;
  int local_input_buffer = 32;   ///< per VC (also injection inputs)
  int global_input_buffer = 256; ///< per VC

  // --- virtual channels ------------------------------------------------------
  int global_vcs = 2;
  int local_vcs = 3;      ///< 4 for oblivious/source-adaptive (Table I)
  int injection_vcs = 3;

  // --- allocator ("iterative separable batch", 2x internal speedup) -------
  int allocator_iterations = 3;
  int max_grants_per_output = 2;
  int max_grants_per_input = 2;
  bool transit_priority = true;   ///< transit-over-injection priority (Sec. V-A vs V-C)
  bool age_arbitration = false;   ///< explicit fairness mechanism (paper Sec. VI future work)

  // --- adaptive routing -------------------------------------------------------
  double intransit_threshold = 0.43;  ///< Table I congestion threshold
  double pb_threshold_local = 5.0;    ///< PiggyBack T, local links
  double pb_threshold_global = 3.0;   ///< PiggyBack T, global links

  // --- routing / traffic -------------------------------------------------------
  /// Registry names (core/registry.hpp): the one scenario selector.
  /// Any registered name or alias; the built-ins are "min", "val-rrg",
  /// "pb-crg", "par-mm", ... and "uniform", "adv", "advc", ...
  std::string routing_name = "min";
  std::string traffic_name = "uniform";
  int adversarial_offset = 1;  ///< k of ADV+k
  int placement_first_group = 0;
  int placement_num_groups = 0;  ///< 0 => h+1 groups
  int shift_offset_nodes = 0;    ///< 0 => one full group of nodes
  double hotspot_fraction = 0.1; ///< share of traffic sent to the hot node
  NodeId hotspot_node = 0;

  // --- injection ---------------------------------------------------------------
  double load = 0.1;          ///< offered phits/(node*cycle), Bernoulli
  int node_queue_capacity = 64;  ///< packets; source stalls when full

  // --- run control ---------------------------------------------------------------
  Cycle warmup_cycles = 10'000;
  Cycle measure_cycles = 15'000;
  std::uint64_t seed = 1;
  /// Paranoid self-checking: run Network::check_invariants() every N
  /// cycles (`sim.paranoid` key; 0 = off, the default — no overhead).
  int sim_paranoid = 0;
  /// Cycle-kernel selector (`sim.kernel` key): the active-set kernel
  /// (default) or the dense reference scan. Bit-identical results.
  SimKernel kernel = SimKernel::kActive;
  /// Shard count (`sim.shards` key): partition the routers into this
  /// many contiguous ranges and step them concurrently within each
  /// cycle (conservative lookahead: link latency >= 1). Results are
  /// bit-identical for any value; 1 (the default) keeps the
  /// single-threaded path. Validated against the topology: at most one
  /// shard per router.
  int shards = 1;

  // --- session lifecycle (sim/session.hpp) -----------------------------------
  /// Adaptive stopping for the Measure phase (`stop.*` keys).
  StopRule stop;
  /// Scripted Measure segments (`phases` key); empty = one fixed window.
  std::vector<ScriptedSegment> phase_script;
  /// Drain phase: after Measure, run until the network is empty, at most
  /// this many extra cycles (0 skips draining — the paper's behaviour).
  Cycle drain_max_cycles = 0;
  /// MetricTap sampling interval in cycles (`stream.interval`).
  Cycle stream_interval = 1'000;

  // --- workload subsystem (src/workload, `workload.*` keys) ------------------
  WorkloadConfig workload;

  /// Set when a key=value override touched the VC counts, so spec
  /// finalization knows not to clobber them with apply_vc_defaults().
  bool vcs_explicit = false;
  /// Set when a key=value override pinned p / a / groups, so a later
  /// "h" key (which selects the balanced dragonfly) preserves them.
  bool topo_p_explicit = false;
  bool topo_a_explicit = false;
  bool topo_g_explicit = false;

  /// The selected routing/traffic registry name.
  const std::string& routing_key() const { return routing_name; }
  const std::string& traffic_key() const { return traffic_name; }

  /// Apply the per-mechanism VC counts of Table I (3 local VCs for the
  /// in-transit mechanisms, see is_in_transit_routing(); 4 for every
  /// other routing, custom registrations included).
  void apply_vc_defaults();

  /// Scaled-down preset for tests/benches: balanced dragonfly of radix h,
  /// shorter windows. Keeps every microarchitectural parameter.
  static SimConfig small(int h);

  /// Throws std::invalid_argument on inconsistent settings, including
  /// extension-pattern knobs out of range and routing/traffic names
  /// that resolve in no registry.
  void validate() const;

  // --- declarative key=value interface ------------------------------------
  /// Apply one override, e.g. ("routing", "par-mm") or ("load", "0.4").
  /// Returns false when the key is unknown (value untouched); throws
  /// std::invalid_argument on a malformed value or unregistered
  /// routing/traffic/arrangement name (the message lists valid names).
  bool try_apply_kv(const std::string& key, const std::string& value);

  /// Like try_apply_kv but an unknown key throws, listing kv_keys().
  void apply_kv(const std::string& key, const std::string& value);

  /// Build a config from "key=value" items applied over the defaults.
  static SimConfig from_kv(std::span<const std::string> overrides);

  /// Every key apply_kv understands, sorted (for diagnostics and docs).
  static std::vector<std::string> kv_keys();

  // --- canonical identity (sweep-service result cache) ----------------------
  /// Canonical (key, value) serialization of the *semantic* knob table:
  /// one entry per kv_keys() key, sorted by key, values rendered in a
  /// fixed format. Two configs that select the same simulation — via a
  /// different key order, an alias spelling, or by explicitly setting a
  /// knob to its default — serialize identically; the bookkeeping flags
  /// (vcs_explicit, topo_*_explicit) and spec-level concerns are
  /// excluded. The topology entries are normalized through the resolved
  /// shape, so "topology=dfly:2,4,2" and "p=2,a=4,h=2" agree. Every
  /// knob of the table is hashed: its canonical form comes from the
  /// same descriptor that applies it.
  std::vector<std::pair<std::string, std::string>> canonical_kv() const;
  /// canonical_kv()'s value for one key, formatting only that knob
  /// (std::invalid_argument for an unknown key).
  std::string canonical_value(std::string_view key) const;

  /// FNV-1a 64-bit hash of canonical_kv(), as a 16-digit hex string —
  /// the sweep-service result-cache key. Every knob in the kv table
  /// (and the seed) perturbs it; key order and default-vs-explicit
  /// spelling do not.
  std::string canonical_hash() const;

  /// True for knobs a *refinement* request may change while still
  /// resuming from a warm-start checkpoint (Session::restore says
  /// which ones a checkpoint inside an open window accepts): the
  /// measurement window and stop rule (measure_cycles, stop.*),
  /// post-measure concerns (drain.max_cycles, stream.interval), and
  /// the execution-only knobs that are bit-identity-neutral by
  /// construction (sim.kernel, sim.shards, sim.paranoid). Everything
  /// else — topology, routing, traffic, load, seed, buffers, warmup —
  /// defines the warmed-up state and must match exactly.
  static bool refinement_key(const std::string& key);

  /// canonical_hash() over the non-refinement keys only — the
  /// warm-start checkpoint cache key: two configs with equal warm_hash
  /// share the same warmed-up network state bit-for-bit.
  std::string warm_hash() const;

  /// "" when `refined` may warm-start from a checkpoint of *this*
  /// config; otherwise a diagnostic naming the first incompatible knob
  /// and both values.
  std::string warm_incompatibility(const SimConfig& refined) const;

  /// Copy every refinement_key() knob from `refined` into this config
  /// (the restore-side half of a warm start).
  void apply_refinements(const SimConfig& refined);

  /// (key, one-line description) for every key, sorted by key — the
  /// table `simulate_cli --list` prints.
  static std::vector<std::pair<std::string, std::string>>
  kv_key_descriptions();

  /// Serialize / reconstruct the config (checkpoint streams embed it so
  /// restore() can rebuild the network deterministically): one
  /// (key, raw value) text pair per kv_keys() knob, then the *_explicit
  /// flags. read_from parses each value with its knob's own parser and
  /// throws std::runtime_error ("checkpoint: ...") on a corrupt or
  /// out-of-order entry. Named read_from/write_to because `load` is
  /// taken by the knob.
  void write_to(CheckpointWriter& ck) const;
  void read_from(CheckpointReader& ck);
};

/// Parse the `phases` grammar: comma-separated segments
/// `name:cycles[@load=X][@traffic=NAME]`, e.g.
/// "calm:3000@load=0.1,burst:2000@load=0.8@traffic=advc". An empty
/// string clears the script.
std::vector<ScriptedSegment> parse_phase_script(const std::string& text);

/// Split "key=value" (first '='); throws std::invalid_argument when
/// there is no '='.
std::pair<std::string, std::string> split_kv(const std::string& item);

/// Parse and validate the `workload.mix` comma list; throws
/// std::invalid_argument on an unknown mix name or an empty list.
std::vector<std::string> workload_mix_entries(const std::string& mix);

}  // namespace dragonfly
