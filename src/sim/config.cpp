#include "sim/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/fnv.hpp"
#include "router/packet.hpp"
#include "routing/in_transit.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "traffic/pattern.hpp"

namespace dragonfly {

namespace {

// Closed workload-knob vocabularies (src/workload). Validated both at
// key=value apply time (early diagnostics) and in validate() (configs
// built in code).
constexpr const char* kWorkloadModes[] = {"off", "collective", "bursty",
                                          "churn"};
constexpr const char* kWorkloadCollectives[] = {"ring", "tree", "alltoall",
                                                "halo"};
constexpr const char* kWorkloadPlacements[] = {"contiguous", "random"};
constexpr const char* kWorkloadMixes[] = {"uniform", "ring", "shift",
                                          "hotspot"};

/// `value` when it is one of `Valid`; otherwise throws listing them.
template <const auto& Valid>
std::string one_of(const std::string& key, const std::string& value) {
  for (const char* v : Valid) {
    if (value == v) return value;
  }
  std::string list;
  for (const char* v : Valid) {
    list += (list.empty() ? "" : " | ") + std::string(v);
  }
  throw std::invalid_argument(key + ": unknown value \"" + value +
                              "\"; valid values: " + list);
}

std::string trim(const std::string& s) {
  const auto from = s.find_first_not_of(" \t");
  const auto to = s.find_last_not_of(" \t");
  return from == std::string::npos ? std::string()
                                   : s.substr(from, to - from + 1);
}

}  // namespace

std::vector<std::string> workload_mix_entries(const std::string& mix) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(mix);
  while (std::getline(is, item, ',')) {
    out.push_back(one_of<kWorkloadMixes>("workload.mix", trim(item)));
  }
  if (out.empty()) {
    throw std::invalid_argument("workload.mix: empty mix list");
  }
  return out;
}

void SimConfig::apply_vc_defaults() {
  local_vcs = is_in_transit_routing(routing_name) ? 3 : 4;
  global_vcs = 2;
  injection_vcs = 3;
}

SimConfig SimConfig::small(int h) {
  SimConfig cfg;
  cfg.topo = DragonflyParams::balanced(h);
  cfg.warmup_cycles = 4'000;
  cfg.measure_cycles = 8'000;
  return cfg;
}

SimConfig SimConfig::paper() {
  SimConfig cfg;
  cfg.topo = DragonflyParams::balanced(6);
  cfg.warmup_cycles = 10'000;
  cfg.measure_cycles = 15'000;
  return cfg;
}

// --- the knob table ---------------------------------------------------------
//
// One descriptor per key=value knob. Applying a knob, --list, the
// canonical identity, warm-start refinement, the simple validate()
// ranges and the checkpoint section are all loops over kKnobs, so a new
// knob is one new row.

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void bad_value(const std::string& key, const char* expected,
                            const std::string& value) {
  throw std::invalid_argument(key + ": expected " + expected + ", got \"" +
                              value + "\"");
}

/// `value` parsed as the member type T. Integers parse at T's own width
/// (32-bit counts, 64-bit Cycle, the unsigned seed): a value past it is
/// an out-of-range diagnostic, not a misleading "expected an integer".
/// Doubles must be finite: NaN passes every range comparison.
template <class T>
T parse_value(const std::string& key, const std::string& value) {
  if constexpr (std::is_same_v<T, bool>) {
    if (value == "1" || value == "true" || value == "on" || value == "yes") {
      return true;
    }
    if (value == "0" || value == "false" || value == "off" || value == "no") {
      return false;
    }
    bad_value(key, "a boolean (1|0|true|false|on|off)", value);
  } else if constexpr (std::is_same_v<T, double>) {
    std::size_t pos = 0;
    double out = 0.0;
    try {
      out = std::stod(value, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != value.size() || value.empty() || !std::isfinite(out)) {
      bad_value(key, "a finite number", value);
    }
    return out;
  } else if constexpr (std::is_same_v<T, SimKernel>) {
    return sim_kernel_from_string(value);
  } else if constexpr (std::is_same_v<T, StopMode>) {
    return stop_mode_from_string(value);
  } else {
    T out{};
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (ec == std::errc::result_out_of_range) {
      throw std::invalid_argument(
          key + ": " + value + " is out of range [" +
          std::to_string(std::numeric_limits<T>::min()) + ", " +
          std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    if (ec != std::errc() || ptr != end) {
      bad_value(key, std::is_signed_v<T> ? "an integer" : "an unsigned integer",
                value);
    }
    return out;
  }
}

/// Fixed formats: every value renders identically on every platform
/// and build, so cache keys and checkpoints travel. %.17g round-trips
/// every finite double exactly.
template <class T>
std::string format_value(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else {
    return std::to_string(v);
  }
}

std::string format_phases(const std::vector<ScriptedSegment>& script) {
  std::string out;
  for (const ScriptedSegment& seg : script) {
    if (!out.empty()) out += ",";
    out += seg.name + ":" + format_value(seg.cycles);
    if (seg.load >= 0.0) out += "@load=" + format_value(seg.load);
    if (!seg.traffic.empty()) out += "@traffic=" + seg.traffic;
  }
  return out;
}

/// The member at `Path` (one pointer-to-member per nesting level).
template <auto... Path, class Config>
auto& member(Config& c) {
  return (c .* ... .* Path);
}

/// How a descriptor reaches its member: parse the text form into it,
/// render its raw value as text, and (numeric members) read it for the
/// validate() range check.
struct Field {
  void (*parse)(SimConfig&, const std::string& key, const std::string& value);
  std::string (*format)(const SimConfig&);
  double (*number)(const SimConfig&) = nullptr;
};

/// A member reached through `Path`, parsed and formatted by its type.
template <auto... Path>
constexpr Field field() {
  using T = std::remove_cvref_t<decltype(member<Path...>(
      std::declval<SimConfig&>()))>;
  Field f{[](SimConfig& c, const std::string& k, const std::string& v) {
            member<Path...>(c) = parse_value<T>(k, v);
          },
          [](const SimConfig& c) { return format_value(member<Path...>(c)); }};
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    f.number = [](const SimConfig& c) {
      return static_cast<double>(member<Path...>(c));
    };
  }
  return f;
}

/// A string member, stored as `Check` returns it (or throws).
template <auto Check, auto... Path>
constexpr Field text() {
  return {[](SimConfig& c, const std::string& k, const std::string& v) {
            member<Path...>(c) = Check(k, v);
          },
          [](const SimConfig& c) { return member<Path...>(c); }};
}

std::string resolve_routing(const std::string&, const std::string& v) {
  return routing_registry().resolve(v);
}

std::string resolve_traffic(const std::string&, const std::string& v) {
  return traffic_registry().resolve(v);
}

std::string resolve_arrangement(const std::string&, const std::string& v) {
  return arrangement_registry().resolve(v);
}

std::string resolve_topology(const std::string&, const std::string& v) {
  if (v.empty()) return v;  // the dragonfly described by `topo`
  const auto [family, args] = split_topology_spec(v);
  return topology_registry().resolve(family) +
         (args.empty() ? "" : ":" + args);
}

std::string checked_mix(const std::string&, const std::string& v) {
  (void)workload_mix_entries(v);  // fail on unknown names now
  return v;
}

enum class HashClass : std::uint8_t {
  kPhysical,    ///< defines the warmed-up state: hashed by warm_hash()
  kRefinement,  ///< may differ on a warm start: canonical_hash() only
};

/// A validate() range. contains() is false for NaN and infinities, so
/// configs built in code cannot smuggle them past the check.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double x) const {
    return std::isfinite(x) && (lo_open ? x > lo : x >= lo) &&
           (hi_open ? x < hi : x <= hi);
  }
};

struct Knob {
  const char* key;
  Field field;
  const char* desc;  ///< the `simulate_cli --list` line
  Range range = {};
  HashClass cls = HashClass::kPhysical;
  /// Apply-time side effect (explicit flags, the balanced reset,
  /// early shape checks). A checkpoint restore parses without it.
  void (*hook)(SimConfig&) = nullptr;
  /// Hash form, when it differs from field.format.
  std::string (*canon)(const SimConfig&) = nullptr;
};

constexpr HashClass kPhys = HashClass::kPhysical;
constexpr HashClass kRefine = HashClass::kRefinement;

// The topology keys hash through the resolved shape, so spelling
// variants ("topology=dfly:2,4,2" vs "p=2,a=4,h=2") agree; custom
// families without a cheap shape hash "-" and their full spec string.
template <int TopologyShape::*Dim>
std::string shape_canon(const SimConfig& c) {
  std::optional<TopologyShape> shape;
  try {
    shape = try_topology_shape(c);
  } catch (const std::exception&) {
    // Malformed built-in args: validate() rejects them before caching.
  }
  return shape ? std::to_string((*shape).*Dim) : std::string("-");
}

std::string topology_canon(const SimConfig& c) {
  std::string family;
  try {
    family = topology_family(c);
  } catch (const std::exception&) {
    return c.topology;  // unknown family: raw spelling, fails validate()
  }
  // dfly args are fully absorbed by the shape keys; other families keep
  // their full arg spelling (the shape alone may not fix the wiring).
  return family == "dfly" ? family : c.topology;
}

/// Whitespace-insensitive spellings of one mix hash identically.
std::string mix_canon(const SimConfig& c) {
  std::string out;
  for (const std::string& entry : workload_mix_entries(c.workload.mix)) {
    out += (out.empty() ? "" : ",") + entry;
  }
  return out;
}

// "h" selects the balanced dragonfly but keeps an explicit p/a/groups:
// key order must not silently change the requested topology.
void select_balanced(SimConfig& c) {
  const DragonflyParams prev = c.topo;
  c.topo = DragonflyParams::balanced(c.topo.h);
  if (c.topo_p_explicit) c.topo.p = prev.p;
  if (c.topo_a_explicit) c.topo.a = prev.a;
  if (c.topo_g_explicit) c.topo.g = prev.g;
  c.topology.clear();
}

template <bool SimConfig::*Flag>
void mark_topo(SimConfig& c) {
  c.*Flag = true;
  c.topology.clear();
}

void mark_vcs(SimConfig& c) { c.vcs_explicit = true; }

constexpr Knob kKnobs[] = {
    {"h", field<&SimConfig::topo, &DragonflyParams::h>(),
     "balanced dragonfly radix: p=h, a=2h, a*h+1 groups", {}, kPhys,
     select_balanced, shape_canon<&TopologyShape::global_slots>},
    {"p", field<&SimConfig::topo, &DragonflyParams::p>(),
     "nodes per router (overrides the balanced preset)", {}, kPhys,
     mark_topo<&SimConfig::topo_p_explicit>, shape_canon<&TopologyShape::p>},
    {"a", field<&SimConfig::topo, &DragonflyParams::a>(),
     "routers per group (overrides the balanced preset)", {}, kPhys,
     mark_topo<&SimConfig::topo_a_explicit>, shape_canon<&TopologyShape::a>},
    {"groups", field<&SimConfig::topo, &DragonflyParams::g>(),
     "dragonfly group count (0 = a*h+1; 2..a*h trims the wiring)", {}, kPhys,
     mark_topo<&SimConfig::topo_g_explicit>,
     shape_canon<&TopologyShape::groups>},
    // Malformed args of a built-in family fail at apply, not mid-run.
    {"topology", text<resolve_topology, &SimConfig::topology>(),
     "topology spec: dfly[:p,a,h[,G]] | flatbfly:k,n[,p]", {}, kPhys,
     [](SimConfig& c) { (void)try_topology_shape(c); }, topology_canon},
    {"arrangement", text<resolve_arrangement, &SimConfig::arrangement>(),
     "global-link arrangement registry name (dfly only)", {}, kPhys,
     [](SimConfig& c) { c.arrangement_explicit = true; }},
    {"routing", text<resolve_routing, &SimConfig::routing_name>(),
     "routing mechanism registry name"},
    {"traffic", text<resolve_traffic, &SimConfig::traffic_name>(),
     "traffic pattern registry name"},
    // timing: links serialize at 1 phit/cycle, and the event ring needs
    // every event booked in the future, so no 0-cycle links.
    {"local_latency", field<&SimConfig::local_latency>(),
     "local (intra-group) link latency, cycles", {.lo = 1}},
    {"global_latency", field<&SimConfig::global_latency>(),
     "global (inter-group) link latency, cycles", {.lo = 1}},
    {"pipeline_latency", field<&SimConfig::pipeline_latency>(),
     "router pipeline depth, cycles", {.lo = 0}},
    {"packet_size", field<&SimConfig::packet_size>(), "packet size in phits",
     {.lo = 1}},
    // buffering: each holds at least one packet (a cross-field check)
    {"output_queue_size", field<&SimConfig::output_queue_size>(),
     "per-output post-crossbar queue, phits"},
    {"local_input_buffer", field<&SimConfig::local_input_buffer>(),
     "local/injection input buffer per VC, phits"},
    {"global_input_buffer", field<&SimConfig::global_input_buffer>(),
     "global input buffer per VC, phits"},
    // virtual channels: the deadlock-avoidance minimums
    {"global_vcs", field<&SimConfig::global_vcs>(),
     "virtual channels on global links", {.lo = 2}, kPhys, mark_vcs},
    {"local_vcs", field<&SimConfig::local_vcs>(),
     "virtual channels on local links", {.lo = 3}, kPhys, mark_vcs},
    {"injection_vcs", field<&SimConfig::injection_vcs>(),
     "virtual channels on injection ports", {.lo = 1}, kPhys, mark_vcs},
    // allocator
    {"allocator_iterations", field<&SimConfig::allocator_iterations>(),
     "separable-allocator iterations per cycle", {.lo = 1}},
    {"max_grants_per_output", field<&SimConfig::max_grants_per_output>(),
     "grants per output per cycle (2x speedup)", {.lo = 1}},
    {"max_grants_per_input", field<&SimConfig::max_grants_per_input>(),
     "grants per input per cycle (2x speedup)", {.lo = 1}},
    {"transit_priority", field<&SimConfig::transit_priority>(),
     "transit-over-injection arbitration priority"},
    {"age_arbitration", field<&SimConfig::age_arbitration>(),
     "oldest-packet-first output arbitration"},
    // adaptive routing thresholds
    {"intransit_threshold", field<&SimConfig::intransit_threshold>(),
     "in-transit misroute congestion threshold",
     {.lo = 0, .hi = 1, .lo_open = true}},
    {"pb_threshold_local", field<&SimConfig::pb_threshold_local>(),
     "PiggyBack saturation threshold, local links"},
    {"pb_threshold_global", field<&SimConfig::pb_threshold_global>(),
     "PiggyBack saturation threshold, global links"},
    // traffic knobs, ranged against the selected shape (cross-field)
    {"adversarial_offset", field<&SimConfig::adversarial_offset>(),
     "k of ADV+k: target group = own + k"},
    {"placement_first_group", field<&SimConfig::placement_first_group>(),
     "first group of the placement job"},
    {"placement_num_groups", field<&SimConfig::placement_num_groups>(),
     "groups in the placement job (0 = h+1)"},
    {"shift_offset_nodes", field<&SimConfig::shift_offset_nodes>(),
     "node shift k: dst = src + k (0 = one group)"},
    {"hotspot_fraction", field<&SimConfig::hotspot_fraction>(),
     "share of traffic aimed at the hot node", {.lo = 0, .hi = 1}},
    {"hotspot_node", field<&SimConfig::hotspot_node>(),
     "destination node of the hotspot share"},
    // injection (load <= packet_size is a cross-field check)
    {"load", field<&SimConfig::load>(),
     "offered load, phits/(node*cycle); sweeps: a:b:step or x,y,z",
     {.lo = 0}},
    {"node_queue_capacity", field<&SimConfig::node_queue_capacity>(),
     "finite source queue, packets", {.lo = 1}},
    // run control
    {"warmup_cycles", field<&SimConfig::warmup_cycles>(),
     "cycles simulated before measurement starts", {.lo = 0}},
    {"measure_cycles", field<&SimConfig::measure_cycles>(),
     "measured window; the cap in stop.mode=ci", {.lo = 1}, kRefine},
    {"sim.paranoid", field<&SimConfig::sim_paranoid>(),
     "check network invariants every N cycles (0 = off)", {.lo = 0}, kRefine},
    {"sim.kernel", field<&SimConfig::kernel>(),
     "cycle kernel: active (active-set scheduling) | scan (dense "
     "reference; bit-identical)", {}, kRefine},
    // At most one shard per router as well: a cross-field check.
    {"sim.shards", field<&SimConfig::shards>(),
     "step the network in N parallel router shards (bit-identical; "
     "1 = serial)", {.lo = 1, .hi = kMaxArenas}, kRefine},
    {"seed", field<&SimConfig::seed>(),
     "root RNG seed (replicas derive from it)"},
    // session lifecycle: adaptive stopping, scripted phases, drain, stream
    {"stop.mode", field<&SimConfig::stop, &StopRule::mode>(),
     "fixed = exact window | ci = stop when CIs converge", {}, kRefine},
    {"stop.rel_hw", field<&SimConfig::stop, &StopRule::rel_hw>(),
     "CI target: relative half-width of accepted/latency",
     {.lo = 0, .hi = 1, .lo_open = true, .hi_open = true}, kRefine},
    {"stop.batches", field<&SimConfig::stop, &StopRule::batches>(),
     "minimum completed batches before testing the CI", {.lo = 2}, kRefine},
    {"stop.batch_cycles", field<&SimConfig::stop, &StopRule::batch_cycles>(),
     "batch-means batch length, cycles", {.lo = 1}, kRefine},
    {"phases",
     {[](SimConfig& c, const std::string&, const std::string& v) {
        c.phase_script = parse_phase_script(v);
      },
      [](const SimConfig& c) { return format_phases(c.phase_script); }},
     "scripted Measure segments name:cycles[@load=X][@traffic=T]"},
    {"drain.max_cycles", field<&SimConfig::drain_max_cycles>(),
     "post-measure drain budget, cycles (0 = skip)", {.lo = 0}, kRefine},
    {"stream.interval", field<&SimConfig::stream_interval>(),
     "MetricTap sampling interval, cycles", {.lo = 1}, kRefine},
    // workload subsystem (src/workload)
    {"workload.mode",
     text<&one_of<kWorkloadModes>, &SimConfig::workload,
          &WorkloadConfig::mode>(),
     "workload driver: off | collective | bursty | churn"},
    {"workload.collective",
     text<&one_of<kWorkloadCollectives>, &SimConfig::workload,
          &WorkloadConfig::collective>(),
     "collective kind: ring | tree | alltoall | halo"},
    // 0 or >= 2, and at most the node count: a cross-field check.
    {"workload.participants",
     field<&SimConfig::workload, &WorkloadConfig::participants>(),
     "collective ranks (0 = every node)"},
    {"workload.burst_cycles",
     field<&SimConfig::workload, &WorkloadConfig::burst_cycles>(),
     "bursty: mean ON dwell, cycles", {.lo = 1}},
    {"workload.idle_cycles",
     field<&SimConfig::workload, &WorkloadConfig::idle_cycles>(),
     "bursty: mean OFF dwell, cycles", {.lo = 1}},
    {"workload.jobs", field<&SimConfig::workload, &WorkloadConfig::jobs>(),
     "churn: maximum concurrent jobs", {.lo = 1}},
    {"workload.arrival_cycles",
     field<&SimConfig::workload, &WorkloadConfig::arrival_cycles>(),
     "churn: mean job inter-arrival gap, cycles", {.lo = 1}},
    {"workload.job_cycles",
     field<&SimConfig::workload, &WorkloadConfig::job_cycles>(),
     "churn: mean job lifetime, cycles", {.lo = 1}},
    {"workload.job_routers",
     field<&SimConfig::workload, &WorkloadConfig::job_routers>(),
     "churn: routers per job (0 = one group)", {.lo = 0}},
    {"workload.placement",
     text<&one_of<kWorkloadPlacements>, &SimConfig::workload,
          &WorkloadConfig::placement>(),
     "churn job placement: contiguous | random"},
    {"workload.mix",
     text<checked_mix, &SimConfig::workload, &WorkloadConfig::mix>(),
     "churn per-job mixes, cycled: uniform | ring | shift | hotspot", {},
     kPhys, nullptr, mix_canon},
};

/// How a value was set, not what it is: outside the hash, but part of
/// the checkpointed config (spec finalization and validate() read them).
constexpr bool SimConfig::*kExplicitFlags[] = {
    &SimConfig::arrangement_explicit, &SimConfig::vcs_explicit,
    &SimConfig::topo_p_explicit, &SimConfig::topo_a_explicit,
    &SimConfig::topo_g_explicit};

const Knob* find_knob(const std::string& key) {
  for (const Knob& k : kKnobs) {
    if (key == k.key) return &k;
  }
  return nullptr;
}

/// kKnobs sorted by key: the order of kv_keys(), --list and the hash.
const std::vector<const Knob*>& sorted_knobs() {
  static const std::vector<const Knob*> sorted = [] {
    std::vector<const Knob*> out;
    for (const Knob& k : kKnobs) out.push_back(&k);
    std::sort(out.begin(), out.end(), [](const Knob* x, const Knob* y) {
      return std::string_view(x->key) < std::string_view(y->key);
    });
    return out;
  }();
  return sorted;
}

std::string canonical_form(const Knob& k, const SimConfig& c) {
  return k.canon != nullptr ? k.canon(c) : k.field.format(c);
}

/// FNV-1a 64 over the sorted "key=value\n" canonical lines.
std::string hash_knobs(const SimConfig& c, bool skip_refinement) {
  std::uint64_t h = kFnv1a64Offset;
  for (const Knob* k : sorted_knobs()) {
    if (skip_refinement && k->cls == HashClass::kRefinement) continue;
    h = fnv1a64(k->key, h);
    h = fnv1a64("=", h);
    h = fnv1a64(canonical_form(*k, c), h);
    h = fnv1a64("\n", h);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

void SimConfig::validate() const {
  // --- topology selection ---------------------------------------------------
  // Resolves the family (unknown names throw, listing the registry) and
  // rejects arrangement/topology mismatches: global-link arrangements
  // are a dragonfly concept, so pairing one with another family is a
  // config error, not something to ignore silently.
  const std::string family = topology_family(*this);
  if (family == "dfly") {
    // Inline spec args ("dfly:p,a,h[,G]") supersede the `topo` fields
    // and are range-checked by try_topology_shape below.
    if (split_topology_spec(topology).second.empty() && !topo.valid()) {
      throw std::invalid_argument(
          "invalid topology parameters (need p,a,h >= 1 and groups in "
          "{0} u [2, a*h+1])");
    }
  } else if (arrangement_explicit || arrangement != "palmtree") {
    throw std::invalid_argument(
        "arrangement \"" + arrangement + "\" does not apply to topology \"" +
        topology + "\": global-link arrangements exist only for the "
        "dragonfly family. valid combinations: topology dfly[:p,a,h[,G]] "
        "with arrangement " + arrangement_registry().known_names() +
        "; topology " + family + " with the family's fixed wiring");
  }
  // Malformed built-in topology args fail here with the grammar.
  const std::optional<TopologyShape> shape = try_topology_shape(*this);
  // --- per-knob ranges ------------------------------------------------------
  for (const Knob& k : kKnobs) {
    if (k.field.number == nullptr) continue;
    const double x = k.field.number(*this);
    if (!k.range.contains(x)) {
      char why[128];
      std::snprintf(why, sizeof why, " must be in %c%.15g, %.15g%c, got %.15g",
                    k.range.lo_open ? '(' : '[', k.range.lo, k.range.hi,
                    k.range.hi_open ? ')' : ']', x);
      throw std::invalid_argument(k.key + std::string(why));
    }
  }
  // --- cross-field checks ---------------------------------------------------
  if (local_input_buffer < packet_size || global_input_buffer < packet_size ||
      output_queue_size < packet_size) {
    throw std::invalid_argument("buffers must hold at least one packet");
  }
  if (load > static_cast<double>(packet_size)) {
    throw std::invalid_argument("load must be <= packet_size (" +
                                std::to_string(packet_size) + "), got " +
                                std::to_string(load));
  }
  if (!phase_script.empty() && stop.mode == StopMode::kCi) {
    throw std::invalid_argument(
        "stop.mode=ci cannot be combined with a phase script: scripted "
        "segments have fixed durations");
  }
  for (const ScriptedSegment& seg : phase_script) {
    if (seg.cycles < 1) {
      throw std::invalid_argument("phase segment \"" + seg.name +
                                  "\": cycles must be >= 1");
    }
    // A negative load keeps the current one; NaN fails both tests.
    if (!(seg.load < 0.0 || seg.load <= static_cast<double>(packet_size))) {
      throw std::invalid_argument("phase segment \"" + seg.name +
                                  "\": load out of range");
    }
    if (!seg.traffic.empty()) traffic_registry().resolve(seg.traffic);
  }
  // Extension-pattern knobs are checked against the *selected*
  // topology's shape, and only for the selected traffic pattern: a
  // flatbfly:k,2 run with uniform traffic must not trip over the
  // (irrelevant) adversarial offset. Custom-registered families (no
  // cheap shape) defer to the pattern constructors, which perform the
  // same checks.
  const std::string traffic_sel = traffic_registry().resolve(traffic_key());
  if (shape) {
    if (shards > shape->num_routers()) {
      throw std::invalid_argument(
          "sim.shards is " + std::to_string(shards) +
          " but the topology has only " +
          std::to_string(shape->num_routers()) +
          " routers; valid values: 1.." +
          std::to_string(std::min(shape->num_routers(), kMaxArenas)));
    }
    if (traffic_sel == "hotspot" &&
        (hotspot_node < 0 || hotspot_node >= shape->num_nodes())) {
      throw std::invalid_argument(
          "hotspot_node out of range [0, " +
          std::to_string(shape->num_nodes()) + ")");
    }
    if (traffic_sel == "shift" &&
        (shift_offset_nodes < 0 ||
         shift_offset_nodes >= shape->num_nodes())) {
      // 0 is the "one full group" sentinel; negative shifts are never valid.
      throw std::invalid_argument("shift_offset_nodes out of range [0, " +
                                  std::to_string(shape->num_nodes()) + ")");
    }
    if (traffic_sel == "placement") {
      if (placement_first_group < 0 ||
          placement_first_group >= shape->groups) {
        throw std::invalid_argument(
            "placement_first_group out of range [0, " +
            std::to_string(shape->groups) + ")");
      }
      if (placement_num_groups < 0 ||
          placement_num_groups > shape->groups) {
        // 0 is the "h+1 groups" sentinel.
        throw std::invalid_argument(
            "placement_num_groups out of range [0, " +
            std::to_string(shape->groups) + "]");
      }
    }
    if (traffic_sel == "adv" &&
        (adversarial_offset < 1 || adversarial_offset >= shape->groups)) {
      throw std::invalid_argument("adversarial_offset out of range [1, " +
                                  std::to_string(shape->groups) + ")");
    }
  }
  // --- workload subsystem ---------------------------------------------------
  one_of<kWorkloadModes>("workload.mode", workload.mode);
  one_of<kWorkloadCollectives>("workload.collective", workload.collective);
  one_of<kWorkloadPlacements>("workload.placement", workload.placement);
  (void)workload_mix_entries(workload.mix);
  if (workload.participants < 0 || workload.participants == 1) {
    throw std::invalid_argument(
        "workload.participants must be 0 (= every node) or >= 2 "
        "(a one-rank collective has no communication)");
  }
  if (shape && workload.participants > shape->num_nodes()) {
    throw std::invalid_argument(
        "workload.participants is " + std::to_string(workload.participants) +
        " but the topology has only " + std::to_string(shape->num_nodes()) +
        " nodes");
  }
  if (shape && workload.job_routers > shape->num_routers()) {
    throw std::invalid_argument(
        "workload.job_routers is " + std::to_string(workload.job_routers) +
        " but the topology has only " + std::to_string(shape->num_routers()) +
        " routers");
  }
  if (workload.mode == "churn" && !phase_script.empty()) {
    throw std::invalid_argument(
        "workload.mode=churn cannot be combined with a phase script: both "
        "would mutate the live traffic assignment");
  }
  // --- registry names ------------------------------------------------------
  // Resolve now so an unknown name fails with the full valid-name list
  // before a simulation (or a whole sweep) starts.
  routing_registry().resolve(routing_key());
  arrangement_registry().resolve(arrangement);
}

// --- key=value interface ----------------------------------------------------

bool SimConfig::try_apply_kv(const std::string& key,
                             const std::string& value) {
  const Knob* k = find_knob(key);
  if (k == nullptr) return false;
  k->field.parse(*this, key, value);
  if (k->hook != nullptr) k->hook(*this);
  return true;
}

void SimConfig::apply_kv(const std::string& key, const std::string& value) {
  if (!try_apply_kv(key, value)) {
    std::string keys;
    for (const std::string& k : kv_keys()) {
      if (!keys.empty()) keys += " ";
      keys += k;
    }
    throw std::invalid_argument("unknown config key \"" + key +
                                "\"; valid keys: " + keys);
  }
}

SimConfig SimConfig::from_kv(std::span<const std::string> overrides) {
  SimConfig cfg;
  for (const std::string& item : overrides) {
    const auto [key, value] = split_kv(item);
    cfg.apply_kv(key, value);
  }
  if (!cfg.vcs_explicit) cfg.apply_vc_defaults();
  return cfg;
}

std::vector<std::string> SimConfig::kv_keys() {
  std::vector<std::string> keys;
  for (const Knob* k : sorted_knobs()) keys.emplace_back(k->key);
  return keys;
}

std::vector<std::pair<std::string, std::string>>
SimConfig::kv_key_descriptions() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Knob* k : sorted_knobs()) out.emplace_back(k->key, k->desc);
  return out;
}

std::vector<std::pair<std::string, std::string>> SimConfig::canonical_kv()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Knob* k : sorted_knobs()) {
    out.emplace_back(k->key, canonical_form(*k, *this));
  }
  return out;
}

std::string SimConfig::canonical_value(std::string_view key) const {
  const Knob* k = find_knob(std::string(key));
  if (k == nullptr) {
    throw std::invalid_argument("unknown config key \"" + std::string(key) +
                                "\"");
  }
  return canonical_form(*k, *this);
}

std::string SimConfig::canonical_hash() const {
  return hash_knobs(*this, /*skip_refinement=*/false);
}

bool SimConfig::refinement_key(const std::string& key) {
  const Knob* k = find_knob(key);
  return k != nullptr && k->cls == HashClass::kRefinement;
}

std::string SimConfig::warm_hash() const {
  return hash_knobs(*this, /*skip_refinement=*/true);
}

std::string SimConfig::warm_incompatibility(const SimConfig& refined) const {
  for (const Knob* k : sorted_knobs()) {
    if (k->cls == HashClass::kRefinement) continue;
    const std::string mine = canonical_form(*k, *this);
    const std::string theirs = canonical_form(*k, refined);
    if (mine != theirs) {
      return "knob \"" + std::string(k->key) + "\" is \"" + mine +
             "\" in the warm-start checkpoint but \"" + theirs +
             "\" in the request; only the measurement window and stop rule "
             "may differ on a warm start";
    }
  }
  return "";
}

void SimConfig::apply_refinements(const SimConfig& refined) {
  // Through the text form, as a checkpoint restore does: exact for every
  // value type (%.17g round-trips doubles).
  for (const Knob& k : kKnobs) {
    if (k.cls == HashClass::kRefinement) {
      k.field.parse(*this, k.key, k.field.format(refined));
    }
  }
}

std::vector<ScriptedSegment> parse_phase_script(const std::string& text) {
  std::vector<ScriptedSegment> script;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;

    // Split "name:cycles[@k=v]..." on '@'.
    std::vector<std::string> parts;
    std::string part;
    std::istringstream ps(item);
    while (std::getline(ps, part, '@')) parts.push_back(part);
    if (parts.empty() || parts[0].empty()) {
      throw std::invalid_argument("phases: empty segment in \"" + text +
                                  "\"");
    }
    const std::size_t colon = parts[0].find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "phases: segment must be name:cycles[@key=value], got \"" + item +
          "\"");
    }
    ScriptedSegment seg;
    seg.name = parts[0].substr(0, colon);
    seg.cycles = parse_value<Cycle>("phases: \"" + seg.name + "\" cycles",
                                    parts[0].substr(colon + 1));
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const auto [key, value] = split_kv(parts[i]);
      if (key == "load") {
        seg.load =
            parse_value<double>("phases: \"" + seg.name + "\" load", value);
      } else if (key == "traffic") {
        seg.traffic = traffic_registry().resolve(value);
      } else {
        throw std::invalid_argument("phases: segment \"" + seg.name +
                                    "\" has unknown mutation \"" + key +
                                    "\"; valid: load traffic");
      }
    }
    script.push_back(std::move(seg));
  }
  return script;
}

void SimConfig::write_to(CheckpointWriter& ck) const {
  ck.tag("SimConfig");
  for (const Knob& k : kKnobs) {
    ck.str(k.key);
    ck.str(k.field.format(*this));
  }
  for (const auto flag : kExplicitFlags) ck.boolean(this->*flag);
}

void SimConfig::read_from(CheckpointReader& ck) {
  ck.tag("SimConfig");
  // Raw values through each knob's parse, without the apply hooks: a
  // replayed "h" would otherwise reset a p/a the stream also carries.
  for (const Knob& k : kKnobs) {
    const std::string key = ck.str();
    const std::string value = ck.str();
    if (key != k.key) {
      throw std::runtime_error("checkpoint: config section has knob \"" +
                               key + "\" where \"" + k.key +
                               "\" was expected");
    }
    try {
      k.field.parse(*this, key, value);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("checkpoint: corrupt config: ") +
                               e.what());
    }
  }
  for (const auto flag : kExplicitFlags) this->*flag = ck.boolean();
}

std::pair<std::string, std::string> split_kv(const std::string& item) {
  const std::size_t eq = item.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("expected key=value, got \"" + item + "\"");
  }
  return {trim(item.substr(0, eq)), trim(item.substr(eq + 1))};
}

}  // namespace dragonfly
