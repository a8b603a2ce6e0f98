// Ablation B: global-link arrangement sensitivity. The paper (Sec. III,
// footnote) notes that ADVc generalizes to any arrangement by picking the
// h groups wired to one router. We verify: under the *consecutive*
// arrangement the +1..+h pattern loads router 0 instead of router a-1,
// and the starvation simply moves with it.
#include "bench_util.hpp"

int main() {
  using namespace benchutil;
  const BenchSetup setup = bench_setup();
  report_preamble(
      std::cout, "Ablation B — global link arrangement (palmtree vs "
      "consecutive)",
      setup.spec.base, setup.spec.seeds,
      "the ADVc bottleneck is an arrangement property, not a palmtree "
      "quirk: under the consecutive arrangement the starved router is R0");

  Table table({"arrangement", "starved router", "min inj", "Max/Min", "CoV",
               "accepted"});
  table.set_title("Ablation B — In-Trns-MM under ADVc @ fairness load");
  for (const std::string arrangement : {"palmtree", "consecutive"}) {
    SimConfig cfg = setup.spec.base;
    cfg.arrangement = arrangement;
    cfg.routing_name = "par-mm";
    cfg.traffic_name = "advc";
    cfg.load = fairness_load(setup);
    cfg.apply_vc_defaults();
    const AveragedResult r =
        run_averaged(cfg, setup.spec.seeds, *setup.pool);
    // Identify the starved router inside group 0.
    int argmin = 0;
    for (int i = 1; i < cfg.topo.a; ++i) {
      if (r.injections_per_router[static_cast<std::size_t>(i)] <
          r.injections_per_router[static_cast<std::size_t>(argmin)]) {
        argmin = i;
      }
    }
    table.add_row({arrangement, std::string("R") + std::to_string(argmin),
                   r.fairness.min_injections, r.fairness.max_over_min,
                   r.fairness.cov, r.accepted_load});
  }
  table.print(std::cout);
  mirror_table(table, "ablation_arrangement");
  return 0;
}
