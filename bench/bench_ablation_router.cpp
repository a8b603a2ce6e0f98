// Ablation C: router microarchitecture sensitivity — internal speedup
// (Table I: 2x) and buffer sizing. Quantifies how much the paper's
// "frequency speedup 2x" and deep global buffers matter for throughput.
#include "bench_util.hpp"

int main() {
  using namespace benchutil;
  const BenchSetup setup = bench_setup();
  report_preamble(
      std::cout, "Ablation C — router speedup and buffer sizing",
      setup.spec.base, setup.spec.seeds,
      "the 2x speedup exists to hide HoL blocking and allocator "
      "suboptimality (Sec. IV-A): expect a visible UN throughput drop at "
      "1x; halving the global input buffers mainly hurts adversarial "
      "traffic (shorter credit window on the long links)");

  Table table({"config", "UN acc @0.8", "UN lat @0.8", "ADVc acc @0.4",
               "ADVc lat @0.4"});
  table.set_title("Ablation C — In-Trns-MM router parameter sweep");

  struct Variant {
    std::string label;
    int grants;
    int global_buf;
    int out_queue;
  };
  const Variant variants[] = {
      {"2x speedup, 256-phit global buf (paper)", 2, 256, 32},
      {"1x speedup", 1, 256, 32},
      {"3x speedup", 3, 256, 32},
      {"128-phit global buffers", 2, 128, 32},
      {"64-phit global buffers", 2, 64, 32},
      {"64-phit output queues", 2, 256, 64},
  };
  for (const Variant& v : variants) {
    double un_acc = 0;
    double un_lat = 0;
    double advc_acc = 0;
    double advc_lat = 0;
    for (int pass = 0; pass < 2; ++pass) {
      SimConfig cfg = setup.spec.base;
      cfg.routing_name = "par-mm";
      cfg.max_grants_per_output = v.grants;
      cfg.max_grants_per_input = v.grants;
      cfg.global_input_buffer = v.global_buf;
      cfg.output_queue_size = v.out_queue;
      cfg.traffic_name = pass == 0 ? "uniform"
                              : "advc";
      cfg.load = pass == 0 ? 0.8 : 0.4;
      cfg.apply_vc_defaults();
      const AveragedResult r =
          run_averaged(cfg, setup.spec.seeds, *setup.pool);
      (pass == 0 ? un_acc : advc_acc) = r.accepted_load;
      (pass == 0 ? un_lat : advc_lat) = r.avg_latency;
    }
    table.add_row({v.label, un_acc, un_lat, advc_acc, advc_lat});
  }
  table.print(std::cout);
  mirror_table(table, "ablation_router");
  return 0;
}
