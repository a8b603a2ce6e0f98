// Ablation D: congestion-threshold sensitivity.
//  - PiggyBack's global threshold T (Table I: 3) controls how eagerly the
//    saturation bits fire: lower T diverts more (better ADV, worse UN).
//  - The in-transit candidate-eligibility threshold (Table I: 43%)
//    controls which non-minimal links are acceptable once the minimal
//    output is credit-blocked.
#include "bench_util.hpp"

int main() {
  using namespace benchutil;
  const BenchSetup setup = bench_setup();
  report_preamble(
      std::cout, "Ablation D — adaptive-routing threshold sensitivity",
      setup.spec.base, setup.spec.seeds,
      "the paper's operating point (T=3 global, 43% in-transit) balances "
      "diversion eagerness; extremes either refuse to divert (throughput "
      "collapse towards MIN under ADVc) or divert onto busy candidates");

  Table pb({"PB global T", "ADVc accepted", "ADVc latency", "UN accepted",
            "UN latency"});
  pb.set_title("PiggyBack (Src-RRG) saturation threshold sweep");
  for (double t : {1.5, 3.0, 6.0, 12.0}) {
    double advc_acc = 0;
    double advc_lat = 0;
    double un_acc = 0;
    double un_lat = 0;
    for (int pass = 0; pass < 2; ++pass) {
      SimConfig cfg = setup.spec.base;
      cfg.routing_name = "pb-rrg";
      cfg.pb_threshold_global = t;
      cfg.traffic_name = pass == 0 ? "advc"
                              : "uniform";
      cfg.load = pass == 0 ? fairness_load(setup) : 0.6;
      cfg.apply_vc_defaults();
      const AveragedResult r =
          run_averaged(cfg, setup.spec.seeds, *setup.pool);
      (pass == 0 ? advc_acc : un_acc) = r.accepted_load;
      (pass == 0 ? advc_lat : un_lat) = r.avg_latency;
    }
    pb.add_row({t, advc_acc, advc_lat, un_acc, un_lat});
  }
  pb.print(std::cout);
  mirror_table(pb, "ablation_pb_threshold");
  std::cout << "\n";

  Table it({"in-transit threshold", "ADVc accepted", "ADVc latency",
            "ADVc CoV", "min inj"});
  it.set_title("in-transit (MM) candidate-eligibility threshold sweep");
  for (double t : {0.1, 0.25, 0.43, 0.7, 1.0}) {
    SimConfig cfg = setup.spec.base;
    cfg.routing_name = "par-mm";
    cfg.intransit_threshold = t;
    cfg.traffic_name = "advc";
    cfg.load = fairness_load(setup);
    cfg.apply_vc_defaults();
    const AveragedResult r =
        run_averaged(cfg, setup.spec.seeds, *setup.pool);
    it.add_row({t, r.accepted_load, r.avg_latency, r.fairness.cov,
                r.fairness.min_injections});
  }
  it.print(std::cout);
  mirror_table(it, "ablation_intransit_threshold");
  return 0;
}
