// Ablation A (the paper's Sec. VI future work): age arbitration as an
// explicit fairness mechanism. Compares per-router injections and
// fairness metrics for in-transit adaptive routing under ADVc, with the
// transit-over-injection priority, with and without age arbitration.
#include "bench_util.hpp"

int main() {
  using namespace benchutil;
  const BenchSetup setup = bench_setup();
  report_preamble(
      std::cout,
      "Ablation A — age arbitration (explicit fairness mechanism)",
      setup.spec.base, setup.spec.seeds,
      "the paper concludes explicit fairness mechanisms are required and "
      "points to age arbitration [Abts & Weisser]; expectation: age "
      "arbitration recovers most of the bottleneck router's injection "
      "share that the priority+overlap starves away");

  std::vector<Curve> curves;
  for (const std::string routing : {"par-rrg", "par-crg", "par-mm"}) {
    for (bool age : {false, true}) {
      SimConfig cfg = setup.spec.base;
      cfg.routing_name = routing;
      cfg.traffic_name = "advc";
      cfg.load = fairness_load(setup);
      cfg.transit_priority = true;
      cfg.age_arbitration = age;
      cfg.apply_vc_defaults();
      Curve curve;
      curve.label = display_name(routing) + (age ? "+age" : "");
      curve.points = {run_averaged(cfg, setup.spec.seeds, *setup.pool)};
      curves.push_back(std::move(curve));
    }
  }
  std::cout << "offered load: " << fairness_load(setup)
            << " phits/(node*cycle)\n\n";
  report_fairness_table(std::cout,
                        "Ablation A (age arbitration vs round-robin)",
                        "ablation_age_arbitration", curves);
  report_injections_per_router(
      std::cout, "Ablation A (injected packets per router, group 0)",
      "ablation_age_injection", curves, /*group=*/0, setup.spec.base.topo.a);

  // Cost check: throughput/latency under UN must not regress.
  std::vector<Curve> un;
  for (bool age : {false, true}) {
    SimConfig cfg = setup.spec.base;
    cfg.routing_name = "par-mm";
    cfg.traffic_name = "uniform";
    cfg.load = 0.7;
    cfg.age_arbitration = age;
    cfg.apply_vc_defaults();
    un.push_back(
        Curve{age ? "In-Trns-MM+age" : "In-Trns-MM",
              {run_averaged(cfg, setup.spec.seeds, *setup.pool)}});
  }
  Table cost({"config", "UN accepted @0.7", "UN latency"});
  cost.set_title("Ablation A — uniform-traffic cost of age arbitration");
  for (const Curve& c : un) {
    cost.add_row({c.label, c.points[0].accepted_load,
                  c.points[0].avg_latency});
  }
  cost.print(std::cout);
  return 0;
}
