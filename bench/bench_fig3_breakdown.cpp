// Figure 3: breakdown of the latency components for in-transit adaptive
// routing with the MM policy under ADVc traffic, over the full injection-
// rate range.
#include "bench_util.hpp"

int main() {
  using namespace benchutil;
  const BenchSetup setup = bench_setup();
  report_preamble(
      std::cout, "Figure 3 — latency breakdown, In-Trns-MM, ADVc",
      setup.spec.base, setup.spec.seeds,
      "misrouting grows until saturation (~0.5); local/global congestion "
      "stays modest; the injection-queue component peaks near the "
      "starvation onset and then shrinks towards saturation (the starving "
      "bottleneck router is hidden by averaging)");

  // The paper sweeps 0.01..1.0 at fine granularity.
  std::vector<double> loads{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                            0.35, 0.4,  0.45, 0.5, 0.6,  0.7,  0.8,
                            0.9,  1.0};
  SimConfig base = setup.spec.base;
  base.routing_name = "par-mm";
  base.traffic_name = "advc";
  base.apply_vc_defaults();
  Curve curve;
  curve.label = "In-Trns-MM";
  curve.points = run_sweep(base, loads, setup.spec.seeds, *setup.pool);
  report_latency_breakdown(std::cout,
                           "Figure 3 (latency components, cycles)",
                           "fig3_breakdown", curve);
  return 0;
}
