// Umbrella public header: everything an application needs to build and
// run Dragonfly fairness experiments.
//
//   #include "core/api.hpp"
//
//   dragonfly::SimConfig cfg = dragonfly::SimConfig::small(3);
//   cfg.routing_name = "par-mm";   // any routing_registry() name
//   cfg.traffic_name = "advc";     // any traffic_registry() name
//   cfg.load = 0.4;
//   cfg.apply_vc_defaults();
//   dragonfly::SimResult r = dragonfly::run_simulation(cfg);
//
//   dragonfly::PoolRunner pool;  // sweeps and grids run on a ParallelRunner
//   auto curve = dragonfly::run_sweep(cfg, dragonfly::default_loads(),
//                                     /*num_seeds=*/3, pool);
//
// Subclass ParallelRunner to run sweep jobs on your own scheduler
// (examples/custom_runner.cpp). run_simulation() is Session(cfg).run();
// build a Session directly to step it, stream samples from it or
// checkpoint it (sim/session.hpp). A session with sim.shards > 1 steps
// its shards on a pool of its own.
// Scenarios are extensible without core edits: register new routings /
// traffic patterns / arrangements by name (core/registry.hpp), or drive
// whole sweeps declaratively from key=value specs (core/spec.hpp).
#pragma once

#include "common/checkpoint.hpp"   // IWYU pragma: export
#include "common/parallel.hpp"     // IWYU pragma: export
#include "common/rng.hpp"          // IWYU pragma: export
#include "common/stats.hpp"        // IWYU pragma: export
#include "common/table.hpp"        // IWYU pragma: export
#include "common/types.hpp"        // IWYU pragma: export
#include "core/experiment.hpp"     // IWYU pragma: export
#include "core/registry.hpp"       // IWYU pragma: export
#include "core/report.hpp"         // IWYU pragma: export
#include "core/spec.hpp"           // IWYU pragma: export
#include "metrics/fairness.hpp"    // IWYU pragma: export
#include "metrics/latency.hpp"     // IWYU pragma: export
#include "metrics/tap.hpp"         // IWYU pragma: export
#include "routing/routing.hpp"     // IWYU pragma: export
#include "sim/config.hpp"          // IWYU pragma: export
#include "sim/network.hpp"         // IWYU pragma: export
#include "sim/session.hpp"         // IWYU pragma: export
#include "topology/dragonfly.hpp"  // IWYU pragma: export
#include "topology/flatbfly.hpp"   // IWYU pragma: export
#include "topology/topology.hpp"   // IWYU pragma: export
#include "traffic/pattern.hpp"     // IWYU pragma: export
