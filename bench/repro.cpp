// Reproduction driver: the paper's figures and tables, four ablations and
// the UGAL extension as rows of one experiment table.
//
//   bench_repro [--list] [--config FILE] [--set KEY=VALUE]...
//               [--results-dir DIR] [NAME...]      (no NAME runs every row)
//
// The spec starts small (h=3, default_loads(), one seed); --config files
// apply over it, then each --set in order, then each row's own overrides.
// examples/specs/paper_scale.spec is Table I's scale. A row's runs go
// through one run_configs batch; each view prints one table and mirrors
// it under DIR (default "results") as CSV, or JSON with --set out=json.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "core/api.hpp"

namespace {

using namespace dragonfly;

constexpr const char* kUsage =
    "usage: bench_repro [--list] [--config FILE] [--set KEY=VALUE]... "
    "[--results-dir DIR] [NAME...]\n";

/// A legend label plus space-separated `key=value` overrides applied over
/// the driver's spec (ExperimentSpec::apply_kv). Without a load it
/// sweeps the spec's loads; `load=fairness` is the fairness load.
struct Run {
  std::string label;
  std::string overrides;
};

enum class ViewKind { kCurves, kBreakdown, kInjections, kFairness, kPivot };
enum class Metric {
  kTraffic, kAccepted, kLatency, kP99, kGlobalHops, kCov, kMinInj,
  kMaxOverMin, kStarvedRouter,
};

/// One printed table over the row's runs [first, last): a report_*
/// emitter, or a pivot whose lines each cover as many consecutive runs
/// (passes) as `headers` has room for: the first run's label, then
/// `metrics` for each of those runs in turn.
struct View {
  ViewKind kind;
  std::string title;
  std::string stem;  ///< mirror file stem; empty prints only
  std::vector<std::string> headers = {};
  std::vector<Metric> metrics = {};
  std::size_t first = 0;
  std::size_t last = std::string::npos;
};

struct Experiment {
  std::vector<std::string> names;  ///< command-line names
  std::string title;
  std::string expectation;  ///< the paper's expected shape
  std::vector<Run> runs;
  std::vector<View> views;
};

/// Paper legend label: the alias a routing registers ("par-mm" ->
/// "In-Trns-MM"), else the key itself.
std::string display_name(const std::string& routing_key) {
  const auto aliases = routing_registry().aliases_of(routing_key);
  return aliases.empty() ? routing_key : aliases.front();
}

/// The seven paper mechanisms with `common` overrides. Figures 2/5 lead
/// with a "MIN/Obl-RRG" reference line: MIN under uniform traffic,
/// oblivious RRG under the adversarial patterns.
std::vector<Run> mechanisms(const std::string& common,
                            const std::string& reference = "") {
  std::vector<Run> runs;
  if (!reference.empty()) {
    runs.push_back({"MIN/Obl-RRG", "routing=" + reference + " " + common});
  }
  for (const std::string& key : paper_routing_names()) {
    if (key != reference) {
      runs.push_back({display_name(key), "routing=" + key + " " + common});
    }
  }
  return runs;
}

/// Every run under every pass, run-major: one pivot line per run.
std::vector<Run> cross(const std::vector<Run>& runs,
                       const std::vector<std::string>& passes) {
  std::vector<Run> out;
  for (const Run& run : runs) {
    for (const std::string& pass : passes) {
      out.push_back({run.label, run.overrides + " " + pass});
    }
  }
  return out;
}

/// One run per value of `key`, labelled by the value.
std::vector<Run> knob_sweep(const std::string& common, const std::string& key,
                            const std::vector<std::string>& values) {
  std::vector<Run> runs;
  for (const std::string& v : values) {
    runs.push_back({v, common + " " + key + "=" + v});
  }
  return runs;
}

Table::Cell metric(Metric m, const SimConfig& cfg, const AveragedResult& r) {
  const auto& inj = r.injections_per_router;
  switch (m) {
    case Metric::kTraffic: return cfg.traffic_key();
    case Metric::kAccepted: return r.accepted_load;
    case Metric::kLatency: return r.avg_latency;
    case Metric::kP99: return r.p99_latency;
    case Metric::kGlobalHops: return r.avg_global_hops;
    case Metric::kCov: return r.fairness.cov;
    case Metric::kMinInj: return r.fairness.min_injections;
    case Metric::kMaxOverMin: return r.fairness.max_over_min;
    case Metric::kStarvedRouter: {  // the group-0 router injecting least
      const auto it = std::min_element(inj.begin(), inj.begin() + cfg.topo.a);
      return "R" + std::to_string(it - inj.begin());
    }
  }
  return {};
}

/// A label that reads as a number (a threshold) stays a numeric cell.
Table::Cell label_cell(const std::string& label) {
  char* end = nullptr;
  const double value = std::strtod(label.c_str(), &end);
  if (!label.empty() && *end == '\0') return value;
  return label;
}

std::vector<Experiment> experiments() {
  using V = ViewKind;
  using M = Metric;
  const std::string advc = "traffic=advc load=fairness";
  std::vector<Run> age = cross(
      {{"In-Trns-RRG", "routing=par-rrg transit_priority=1 " + advc},
       {"In-Trns-CRG", "routing=par-crg transit_priority=1 " + advc},
       {"In-Trns-MM", "routing=par-mm transit_priority=1 " + advc},
       {"In-Trns-MM", "routing=par-mm traffic=uniform load=0.7"}},
      {"age_arbitration=0", "age_arbitration=1"});
  for (std::size_t i = 1; i < age.size(); i += 2) age[i].label += "+age";
  std::vector<Run> thresholds =
      cross(knob_sweep("routing=pb-rrg", "pb_threshold_global",
                       {"1.5", "3", "6", "12"}),
            {advc, "traffic=uniform load=0.6"});
  const std::vector<Run> intransit =
      knob_sweep("routing=par-mm " + advc, "intransit_threshold",
                 {"0.1", "0.25", "0.43", "0.7", "1"});
  thresholds.insert(thresholds.end(), intransit.begin(), intransit.end());
  std::vector<Run> ugal;
  for (const char* t : {"uniform", "adv", "advc", "shift", "hotspot"}) {
    for (const char* key : {"pb-rrg", "ugal-rrg", "pb-crg", "ugal-crg"}) {
      ugal.push_back({display_name(key), "routing=" + std::string(key) +
                                             " traffic=" + t + " load=0.3" +
                                             " hotspot_fraction=0.05"});
    }
  }
  return {
    {{"fig2a"}, "Figure 2a — UN traffic, transit-over-injection priority ON",
     "all mechanisms competitive; MIN lowest latency; RRG variants pay an "
     "extra local hop (higher latency); oblivious Valiant saturates near half "
     "of MIN's throughput",
     mechanisms("traffic=uniform transit_priority=1", "min"),
     {{V::kCurves, "Figure 2a (UN, priority ON)", "fig2a_un_priority"}}},
    {{"fig2b"}, "Figure 2b — ADV+1 traffic, transit-over-injection priority ON",
     "MIN collapses at 1/(a*p); CRG beats RRG; in-transit adaptive best "
     "throughput; latency peaks where the bottleneck router starts to starve "
     "(extremely low load for In-Trns-CRG)",
     mechanisms("traffic=adv transit_priority=1", "val-rrg"),
     {{V::kCurves, "Figure 2b (ADV+1, priority ON)", "fig2b_adv_priority"}}},
    {{"fig2c"}, "Figure 2c — ADVc traffic, transit-over-injection priority ON",
     "MIN caps at h/(a*p); oblivious/source mechanisms have modest "
     "throughput; in-transit adaptive leads at saturation but its "
     "pre-saturation accepted load drops below oblivious and latency peaks "
     "near the starvation onset (~0.15 at paper scale)",
     mechanisms("traffic=advc transit_priority=1", "val-rrg"),
     {{V::kCurves, "Figure 2c (ADVc, priority ON)", "fig2c_advc_priority"}}},
    {{"fig3"}, "Figure 3 — latency breakdown, In-Trns-MM, ADVc",
     "misrouting grows until saturation (~0.5); local/global congestion stays "
     "modest; the injection-queue component peaks near the starvation onset "
     "and then shrinks towards saturation (the starving bottleneck router is "
     "hidden by averaging)",
     // The paper sweeps 0.01..1.0 at fine granularity.
     {{"In-Trns-MM", "routing=par-mm traffic=advc loads=0.01,0.05,0.1,0.15,"
                     "0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.6,0.7,0.8,0.9,1.0"}},
     {{V::kBreakdown, "Figure 3 (latency components, cycles)",
       "fig3_breakdown"}}},
    {{"fig4", "table2"},
     "Figure 4 / Table II — injected packets per router (group 0) and "
     "fairness metrics, ADVc, priority ON",
     "Figure 4: oblivious flat across routers; source-adaptive skews at "
     "R0/R(a-1); in-transit starves the bottleneck router R(a-1) by orders of "
     "magnitude, regardless of the global misrouting policy. Table II: paper "
     "(h=6, load 0.4): Obl CoV~0.015-0.018, Max/Min~1.1; Src CoV~0.10-0.12, "
     "Max/Min~2.2-2.7; In-Trns Min inj collapses (37-69) with CoV~0.29 for "
     "all three policies",
     mechanisms("transit_priority=1 " + advc),
     {{V::kInjections, "Figure 4 (injected packets per router, group 0)",
       "fig4_injection_priority"},
      {V::kFairness, "Table II (fairness, priority ON)",
       "table2_fairness_priority"}}},
    {{"fig5a"}, "Figure 5a — UN traffic, priority OFF",
     "removing the priority slightly increases congestion: MIN throughput "
     "drops ~1.2% under UN; otherwise shapes match Figure 2a",
     mechanisms("traffic=uniform transit_priority=0", "min"),
     {{V::kCurves, "Figure 5a (UN, priority OFF)", "fig5a_un_nopriority"}}},
    {{"fig5b"}, "Figure 5b — ADV+1 traffic, priority OFF",
     "without the priority, in-transit CRG/MM lose their starvation latency "
     "peak; RRG's peak moves to a much higher load",
     mechanisms("traffic=adv transit_priority=0", "val-rrg"),
     {{V::kCurves, "Figure 5b (ADV+1, priority OFF)", "fig5b_adv_nopriority"}}},
    {{"fig5c"}, "Figure 5c — ADVc traffic, priority OFF",
     "the unfairness-driven latency anomaly shrinks markedly but is not "
     "eliminated; in-transit throughput recovers towards the offered load",
     mechanisms("traffic=advc transit_priority=0", "val-rrg"),
     {{V::kCurves, "Figure 5c (ADVc, priority OFF)", "fig5c_advc_nopriority"}}},
    {{"fig6", "table3"},
     "Figure 6 / Table III — injected packets per router (group 0) and "
     "fairness metrics, ADVc, priority OFF",
     "Figure 6: oblivious unchanged; Src-CRG's bottleneck router now "
     "*over*-injects (>2x the others); in-transit fairness vastly improved "
     "and identical across RRG/CRG/MM — but still not as flat as oblivious. "
     "Table III: paper (h=6, load 0.4): Obl unchanged; Src-CRG degrades "
     "(CoV~0.56, Max/Min~6.7 — the bottleneck router exploits its faster "
     "view of the links); In-Trns recovers to Max/Min~1.85, CoV~0.11 for all "
     "three policies — better, but still short of oblivious fairness",
     mechanisms("transit_priority=0 " + advc),
     {{V::kInjections, "Figure 6 (injected packets per router, group 0)",
       "fig6_injection_nopriority"},
      {V::kFairness, "Table III (fairness, priority OFF)",
       "table3_fairness_nopriority"}}},
    // Sec. VI's future work, and its cost under uniform traffic.
    {{"ablation_age"},
     "Ablation A — age arbitration (explicit fairness mechanism)",
     "the paper concludes explicit fairness mechanisms are required and "
     "points to age arbitration [Abts & Weisser]; expectation: age "
     "arbitration recovers most of the bottleneck router's injection share "
     "that the priority+overlap starves away",
     age,
     {{V::kFairness, "Ablation A (age arbitration vs round-robin)",
       "ablation_age_arbitration", {}, {}, 0, 6},
      {V::kInjections, "Ablation A (injected packets per router, group 0)",
       "ablation_age_injection", {}, {}, 0, 6},
      {V::kPivot, "Ablation A — uniform-traffic cost of age arbitration", "",
       {"config", "UN accepted @0.7", "UN latency"},
       {M::kAccepted, M::kLatency}, 6}}},
    // Sec. III footnote: ADVc generalizes to any arrangement.
    {{"ablation_arrangement"},
     "Ablation B — global link arrangement (palmtree vs consecutive)",
     "the ADVc bottleneck is an arrangement property, not a palmtree quirk: "
     "under the consecutive arrangement the starved router is R0",
     knob_sweep("routing=par-mm " + advc, "arrangement",
                {"palmtree", "consecutive"}),
     {{V::kPivot, "Ablation B — In-Trns-MM under ADVc @ fairness load",
       "ablation_arrangement",
       {"arrangement", "starved router", "min inj", "Max/Min", "CoV",
        "accepted"},
       {M::kStarvedRouter, M::kMinInj, M::kMaxOverMin, M::kCov,
        M::kAccepted}}}},
    {{"ablation_router"}, "Ablation C — router speedup and buffer sizing",
     "the 2x speedup exists to hide HoL blocking and allocator suboptimality "
     "(Sec. IV-A): expect a visible UN throughput drop at 1x; halving the "
     "global input buffers mainly hurts adversarial traffic (shorter credit "
     "window on the long links)",
     cross({{"2x speedup, 256-phit global buf (paper)", ""},
            {"1x speedup", "max_grants_per_output=1 max_grants_per_input=1"},
            {"3x speedup", "max_grants_per_output=3 max_grants_per_input=3"},
            {"128-phit global buffers", "global_input_buffer=128"},
            {"64-phit global buffers", "global_input_buffer=64"},
            {"64-phit output queues", "output_queue_size=64"}},
           {"routing=par-mm traffic=uniform load=0.8",
            "routing=par-mm traffic=advc load=0.4"}),
     {{V::kPivot, "Ablation C — In-Trns-MM router parameter sweep",
       "ablation_router",
       {"config", "UN acc @0.8", "UN lat @0.8", "ADVc acc @0.4",
        "ADVc lat @0.4"},
       {M::kAccepted, M::kLatency}}}},
    {{"ablation_thresholds"},
     "Ablation D — adaptive-routing threshold sensitivity",
     "the paper's operating point (T=3 global, 43% in-transit) balances "
     "diversion eagerness; extremes either refuse to divert (throughput "
     "collapse towards MIN under ADVc) or divert onto busy candidates",
     thresholds,
     {{V::kPivot, "PiggyBack (Src-RRG) saturation threshold sweep",
       "ablation_pb_threshold",
       {"PB global T", "ADVc accepted", "ADVc latency", "UN accepted",
        "UN latency"},
       {M::kAccepted, M::kLatency}, 0, 8},
      {V::kPivot, "in-transit (MM) candidate-eligibility threshold sweep",
       "ablation_intransit_threshold",
       {"in-transit threshold", "ADVc accepted", "ADVc latency", "ADVc CoV",
        "min inj"},
       {M::kAccepted, M::kLatency, M::kCov, M::kMinInj}, 8}}},
    {{"ext_ugal"}, "Extension — UGAL-L vs PiggyBack source-adaptive routing",
     "both divert under adversarial patterns; PB's in-group link-state "
     "broadcast reacts to remote congestion UGAL-L cannot see, while UGAL's "
     "local queues respond faster at the source router",
     ugal,
     {{V::kPivot, "source-adaptive comparison @ load 0.3", "ext_ugal_vs_pb",
       {"routing", "traffic", "accepted", "avg latency", "p99 latency",
        "global hops", "CoV"},
       {M::kTraffic, M::kAccepted, M::kLatency, M::kP99, M::kGlobalHops,
        M::kCov}}}},
  };
}

void print_view(const View& view, std::span<const Curve> all_curves,
                std::span<const SimConfig> all_configs, const Mirror& mirror) {
  const std::size_t n = std::min(view.last, all_curves.size()) - view.first;
  const auto curves = all_curves.subspan(view.first, n);
  const auto configs = all_configs.subspan(view.first, n);
  std::ostream& os = std::cout;
  switch (view.kind) {
    case ViewKind::kCurves:
      return report_latency_throughput(os, view.title, mirror, view.stem,
                                       curves);
    case ViewKind::kBreakdown:
      return report_latency_breakdown(os, view.title, mirror, view.stem,
                                      curves[0]);
    case ViewKind::kInjections:
      return report_injections_per_router(os, view.title, mirror, view.stem,
                                          curves, 0, configs.front().topo.a);
    case ViewKind::kFairness:
      return report_fairness_table(os, view.title, mirror, view.stem, curves);
    case ViewKind::kPivot:
      break;
  }
  Table table(view.headers);
  table.set_title(view.title);
  const std::size_t passes = (view.headers.size() - 1) / view.metrics.size();
  for (std::size_t i = 0; i < n; i += passes) {
    std::vector<Table::Cell> row{label_cell(curves[i].label)};
    for (std::size_t pass = i; pass < i + passes; ++pass) {
      for (const Metric m : view.metrics) {
        row.push_back(metric(m, configs[pass], curves[pass].points.front()));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "\n";
  if (!view.stem.empty()) mirror_table(table, mirror, view.stem);
}

void run_experiment(const Experiment& e, const ExperimentSpec& start,
                    const Mirror& mirror, ParallelRunner& pool) {
  // The paper's fairness load is 0.4 at h=6; at reduced scale the
  // oblivious mechanisms saturate earlier, and 0.3 is the equivalent
  // below-oblivious-saturation point.
  const std::string fairness = start.base.topo.h >= 6 ? "0.4" : "0.3";
  std::vector<SimConfig> configs;  // one per (run, offered load)
  std::vector<std::size_t> offsets{0};
  for (const Run& run : e.runs) {
    ExperimentSpec spec = start;
    std::istringstream items(run.overrides);
    for (std::string item; items >> item;) {
      const auto [key, value] = split_kv(item);
      spec.apply_kv(key, value == "fairness" ? fairness : value);
    }
    spec.finalize();
    for (const double load : spec.effective_loads()) {
      configs.push_back(spec.base);
      configs.back().load = load;
    }
    offsets.push_back(configs.size());
  }
  report_preamble(std::cout, e.title, configs, start.seeds, e.expectation);
  const std::vector<AveragedResult> results =
      run_configs(configs, start.seeds, pool);
  std::vector<Curve> curves;
  std::vector<SimConfig> firsts;  // each run's first config
  for (std::size_t i = 0; i < e.runs.size(); ++i) {
    curves.push_back({e.runs[i].label, {results.begin() + offsets[i],
                                        results.begin() + offsets[i + 1]}});
    firsts.push_back(configs[offsets[i]]);
  }
  for (const View& view : e.views) print_view(view, curves, firsts, mirror);
}

/// Print every row's names and title.
void list_rows(std::ostream& os, const std::vector<Experiment>& table) {
  for (const Experiment& e : table) {
    for (const std::string& name : e.names) {
      os << name << (&name == &e.names.back() ? ": " : " ");
    }
    os << e.title << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const std::vector<Experiment> table = experiments();
  ExperimentSpec spec;
  spec.base = SimConfig::small(3);
  spec.loads = default_loads();
  spec.format = OutputFormat::kCsv;
  Mirror mirror;
  std::vector<bool> chosen(table.size(), false);
  try {
    auto value = [&](int& i) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(argv[i]) + " needs a value");
      }
      return argv[++i];
    };
    // Every --config applies first wherever it stands, then each --set in
    // order: simulate_cli's precedence.
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--config") {
        spec.apply_file(value(i));
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--config") {
        ++i;
      } else if (arg == "--set") {
        spec.apply_kv_line(value(i));
      } else if (arg == "--results-dir") {
        mirror.dir = value(i);
      } else if (arg == "--list") {
        list_rows(std::cout, table);
        return 0;
      } else {
        const auto row = std::ranges::find_if(table, [&](const Experiment& e) {
          return std::ranges::count(e.names, arg) > 0;
        });
        if (row == table.end()) {
          std::cerr << "unknown experiment \"" << arg << "\"; " << kUsage;
          list_rows(std::cerr, table);
          return 2;
        }
        chosen[static_cast<std::size_t>(row - table.begin())] = true;
      }
    }
    // Refused before any row runs: the mirrors are written only after a
    // row's sweep, which a late failure would throw away.
    if (spec.format == OutputFormat::kTable) {
      throw std::invalid_argument("out: bench_repro mirrors csv or json, "
                                  "not table");
    }
    if (!spec.out_path.empty()) {
      throw std::invalid_argument("out_path: bench_repro mirrors every view "
                                  "under --results-dir");
    }
  } catch (const std::invalid_argument& ex) {
    std::cerr << "error: " << ex.what() << "\n" << kUsage;
    return 2;
  }
  mirror.format = spec.format;
  if (std::count(chosen.begin(), chosen.end(), true) == 0) chosen.flip();
  PoolRunner pool(spec.threads);
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (chosen[i]) run_experiment(table[i], spec, mirror, pool);
  }
  return 0;
} catch (const std::exception& ex) {
  std::cerr << "error: " << ex.what() << "\n";
  return 1;
}
