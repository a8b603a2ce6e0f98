#include "sim/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/checkpoint.hpp"
#include "routing/routing.hpp"

namespace dragonfly {
namespace {

TEST(Config, DefaultsMatchTableI) {
  const SimConfig cfg = SimConfig::paper();
  EXPECT_EQ(cfg.topo.num_nodes(), 5256);
  EXPECT_EQ(cfg.local_latency, 10);
  EXPECT_EQ(cfg.global_latency, 100);
  EXPECT_EQ(cfg.pipeline_latency, 5);
  EXPECT_EQ(cfg.packet_size, 8);
  EXPECT_EQ(cfg.output_queue_size, 32);
  EXPECT_EQ(cfg.local_input_buffer, 32);
  EXPECT_EQ(cfg.global_input_buffer, 256);
  EXPECT_EQ(cfg.global_vcs, 2);
  EXPECT_DOUBLE_EQ(cfg.intransit_threshold, 0.43);
  EXPECT_DOUBLE_EQ(cfg.pb_threshold_local, 5.0);
  EXPECT_DOUBLE_EQ(cfg.pb_threshold_global, 3.0);
  EXPECT_TRUE(cfg.transit_priority);
  EXPECT_EQ(cfg.measure_cycles, 15'000);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, VcDefaultsPerMechanism) {
  // Table I: the in-transit mechanisms run 3 local VCs, the oblivious
  // and source-adaptive ones 4. Every built-in is covered.
  const std::vector<std::string> keys = routing_registry().keys();
  int in_transit = 0;
  for (const std::string& key : keys) {
    SimConfig cfg;
    cfg.routing_name = key;
    cfg.apply_vc_defaults();
    const bool par = key == "par-rrg" || key == "par-crg" || key == "par-mm";
    in_transit += par ? 1 : 0;
    EXPECT_EQ(cfg.local_vcs, par ? 3 : 4) << key;
    EXPECT_EQ(cfg.global_vcs, 2) << key;
    EXPECT_EQ(cfg.injection_vcs, 3) << key;
  }
  EXPECT_EQ(in_transit, 3);
  EXPECT_GE(keys.size(), 11u);
  // Aliases select like their keys; unregistered names get the 4.
  SimConfig cfg;
  cfg.routing_name = "In-Trns-MM";
  cfg.apply_vc_defaults();
  EXPECT_EQ(cfg.local_vcs, 3);
  cfg.routing_name = "not-registered";
  cfg.apply_vc_defaults();
  EXPECT_EQ(cfg.local_vcs, 4);
}

TEST(Config, SmallPresetKeepsMicroarchitecture) {
  const SimConfig cfg = SimConfig::small(3);
  EXPECT_EQ(cfg.topo.h, 3);
  EXPECT_EQ(cfg.local_latency, 10);
  EXPECT_EQ(cfg.global_latency, 100);
  EXPECT_EQ(cfg.global_input_buffer, 256);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateRejectsBadSettings) {
  SimConfig cfg = SimConfig::small(2);
  cfg.packet_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.local_input_buffer = 4;  // smaller than a packet
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.global_vcs = 1;  // deadlock avoidance needs 2
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.local_latency = 0;  // links serialize at 1 phit/cycle
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.global_latency = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.local_vcs = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.load = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.intransit_threshold = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.measure_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.node_queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.allocator_iterations = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, KeyAccessorsReturnTheSelectedNames) {
  SimConfig cfg;
  EXPECT_EQ(cfg.routing_key(), "min");
  EXPECT_EQ(cfg.traffic_key(), "uniform");
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  EXPECT_EQ(cfg.routing_key(), "par-mm");
  EXPECT_EQ(cfg.traffic_key(), "advc");
  cfg.routing_name = "my-plugin";
  cfg.traffic_name = "my-pattern";
  EXPECT_EQ(cfg.routing_key(), "my-plugin");
  EXPECT_EQ(cfg.traffic_key(), "my-pattern");
}

TEST(Config, ValidateCoversExtensionKnobs) {
  // h=2: 9 groups, 72 nodes. Knob ranges are checked against the
  // selected topology for the traffic pattern that consumes them.
  SimConfig cfg = SimConfig::small(2);
  cfg.hotspot_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::small(2);
  cfg.hotspot_fraction = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.traffic_name = "hotspot";
  cfg.hotspot_node = 72;  // == node count
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.hotspot_node = 71;
  EXPECT_NO_THROW(cfg.validate());
  // ...but an irrelevant knob never blocks another pattern's run.
  cfg.traffic_name = "uniform";
  cfg.hotspot_node = 72;
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.traffic_name = "shift";
  cfg.shift_offset_nodes = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.shift_offset_nodes = 72;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.shift_offset_nodes = 0;  // sentinel: one full group
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.traffic_name = "placement";
  cfg.placement_first_group = 9;  // == group count
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.placement_first_group = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.placement_first_group = 8;
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.traffic_name = "placement";
  cfg.placement_num_groups = 10;  // > group count
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.placement_num_groups = 9;
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.traffic_name = "adv";
  cfg.adversarial_offset = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.adversarial_offset = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.routing_name = "not-a-registered-routing";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::small(2);
  cfg.traffic_name = "not-a-registered-pattern";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::small(2);
  cfg.arrangement = "moebius";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsDegenerateWindows) {
  SimConfig cfg = SimConfig::small(2);
  cfg.measure_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("measure_cycles"),
              std::string::npos);
  }

  cfg = SimConfig::small(2);
  cfg.measure_cycles = -5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.warmup_cycles = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.warmup_cycles = 0;  // a zero warmup is legitimate
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.pipeline_latency = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, NonFiniteNumbersAreRejected) {
  // At apply time: every double knob's parse refuses them.
  for (const char* key : {"load", "intransit_threshold", "pb_threshold_local",
                          "pb_threshold_global", "hotspot_fraction",
                          "stop.rel_hw"}) {
    for (const char* value : {"nan", "NaN", "inf", "-inf", "1e999"}) {
      SimConfig cfg = SimConfig::small(2);
      EXPECT_THROW(cfg.apply_kv(key, value), std::invalid_argument)
          << key << "=" << value;
    }
  }
  EXPECT_THROW(parse_phase_script("a:100@load=nan"), std::invalid_argument);

  // In validate(): configs built in code get the same answer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double SimConfig::*field :
       {&SimConfig::load, &SimConfig::intransit_threshold,
        &SimConfig::pb_threshold_local, &SimConfig::pb_threshold_global,
        &SimConfig::hotspot_fraction}) {
    for (const double value : {nan, inf}) {
      SimConfig cfg = SimConfig::small(2);
      cfg.*field = value;
      EXPECT_THROW(cfg.validate(), std::invalid_argument) << value;
    }
  }
  SimConfig cfg = SimConfig::small(2);
  cfg.stop.rel_hw = nan;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig::small(2);
  cfg.phase_script.push_back({"hot", 100, nan, ""});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, IntegerKnobsParseAtTheirMembersWidth) {
  // Cycle is 64-bit: a window past 2^31 cycles is a legal request.
  SimConfig cfg;
  cfg.apply_kv("warmup_cycles", "3000000000");
  EXPECT_EQ(cfg.warmup_cycles, 3'000'000'000);
  cfg.apply_kv("workload.job_cycles", "4294967296");
  EXPECT_EQ(cfg.workload.job_cycles, 4'294'967'296);
  EXPECT_EQ(parse_phase_script("long:3000000000")[0].cycles, 3'000'000'000);

  // Past a member's width is an out-of-range diagnostic, not a
  // misleading "expected an integer".
  const auto message = [](const char* key, const char* value) {
    SimConfig c;
    try {
      c.apply_kv(key, value);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const char* key : {"warmup_cycles", "measure_cycles",
                          "stop.batch_cycles", "drain.max_cycles",
                          "stream.interval", "workload.burst_cycles"}) {
    const std::string msg = message(key, "99999999999999999999");
    EXPECT_NE(msg.find("out of range"), std::string::npos) << key << ": " << msg;
  }
  const std::string msg = message("packet_size", "3000000000");
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  EXPECT_NE(message("seed", "18446744073709551616").find("out of range"),
            std::string::npos);
  EXPECT_NE(message("warmup_cycles", "12x").find("expected an integer"),
            std::string::npos);
  EXPECT_NE(message("seed", "-1").find("expected an unsigned integer"),
            std::string::npos);
}

TEST(Config, ValidateCoversSessionKnobs) {
  SimConfig cfg = SimConfig::small(2);
  cfg.stop.rel_hw = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stop.rel_hw = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.stop.batches = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.stop.batch_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.drain_max_cycles = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.stream_interval = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // CI stopping and a phase script are mutually exclusive (segments
  // have fixed durations).
  cfg = SimConfig::small(2);
  cfg.stop.mode = StopMode::kCi;
  cfg.phase_script = parse_phase_script("a:100,b:100");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stop.mode = StopMode::kFixed;
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimConfig::small(2);
  cfg.phase_script.push_back({"empty", 0, -1.0, ""});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig::small(2);
  cfg.phase_script.push_back({"hot", 100, 99.0, ""});  // load > packet_size
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, PhaseScriptGrammar) {
  const auto script = parse_phase_script(
      "calm:1000@load=0.1, burst:2000@load=0.8@traffic=advc ,tail:500");
  ASSERT_EQ(script.size(), 3u);
  EXPECT_EQ(script[0].name, "calm");
  EXPECT_EQ(script[0].cycles, 1000);
  EXPECT_DOUBLE_EQ(script[0].load, 0.1);
  EXPECT_TRUE(script[0].traffic.empty());
  EXPECT_EQ(script[1].name, "burst");
  EXPECT_DOUBLE_EQ(script[1].load, 0.8);
  EXPECT_EQ(script[1].traffic, "advc");
  EXPECT_EQ(script[2].name, "tail");
  EXPECT_LT(script[2].load, 0.0);  // "keep current" sentinel

  EXPECT_TRUE(parse_phase_script("").empty());
  EXPECT_THROW(parse_phase_script("no-colon"), std::invalid_argument);
  EXPECT_THROW(parse_phase_script("a:12@speed=3"), std::invalid_argument);
  EXPECT_THROW(parse_phase_script("a:xyz"), std::invalid_argument);
  EXPECT_THROW(parse_phase_script("a:100@traffic=bogus"),
               std::invalid_argument);
}

TEST(Config, SessionKnobsReachableFromKv) {
  SimConfig cfg;
  cfg.apply_kv("stop.mode", "ci");
  cfg.apply_kv("stop.rel_hw", "0.1");
  cfg.apply_kv("stop.batches", "6");
  cfg.apply_kv("stop.batch_cycles", "250");
  cfg.apply_kv("drain.max_cycles", "4096");
  cfg.apply_kv("stream.interval", "333");
  EXPECT_EQ(cfg.stop.mode, StopMode::kCi);
  EXPECT_DOUBLE_EQ(cfg.stop.rel_hw, 0.1);
  EXPECT_EQ(cfg.stop.batches, 6);
  EXPECT_EQ(cfg.stop.batch_cycles, 250);
  EXPECT_EQ(cfg.drain_max_cycles, 4096);
  EXPECT_EQ(cfg.stream_interval, 333);

  cfg.apply_kv("phases", "a:100@load=0.5,b:200");
  ASSERT_EQ(cfg.phase_script.size(), 2u);
  EXPECT_EQ(cfg.phase_script[1].cycles, 200);
  cfg.apply_kv("phases", "");
  EXPECT_TRUE(cfg.phase_script.empty());

  EXPECT_THROW(cfg.apply_kv("stop.mode", "sometimes"),
               std::invalid_argument);
  EXPECT_EQ(to_string(StopMode::kFixed), std::string("fixed"));
  EXPECT_EQ(stop_mode_from_string("fixed"), StopMode::kFixed);
}

TEST(Config, SimKernelKnobRoundTrips) {
  SimConfig cfg;
  EXPECT_EQ(cfg.kernel, SimKernel::kActive);  // active-set is the default
  cfg.apply_kv("sim.kernel", "scan");
  EXPECT_EQ(cfg.kernel, SimKernel::kScan);
  cfg.apply_kv("sim.kernel", "active");
  EXPECT_EQ(cfg.kernel, SimKernel::kActive);
  EXPECT_THROW(cfg.apply_kv("sim.kernel", "turbo"), std::invalid_argument);
  EXPECT_EQ(to_string(SimKernel::kActive), std::string("active"));
  EXPECT_EQ(to_string(SimKernel::kScan), std::string("scan"));
  EXPECT_EQ(sim_kernel_from_string("scan"), SimKernel::kScan);

  cfg.kernel = SimKernel::kScan;
  CheckpointWriter writer;
  cfg.write_to(writer);
  SimConfig copy;
  CheckpointReader reader(writer.bytes());
  copy.read_from(reader);
  EXPECT_EQ(copy.kernel, SimKernel::kScan);
}

TEST(Config, EveryKvKeyHasAListDescription) {
  const auto descriptions = SimConfig::kv_key_descriptions();
  EXPECT_EQ(descriptions.size(), SimConfig::kv_keys().size());
  for (const auto& [key, desc] : descriptions) {
    EXPECT_FALSE(desc.empty()) << key;
  }
}

TEST(Config, CheckpointRoundTripsEveryField) {
  SimConfig cfg = SimConfig::small(3);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  cfg.load = 0.42;
  cfg.seed = 1234567;
  cfg.stop.mode = StopMode::kCi;
  cfg.stop.rel_hw = 0.07;
  cfg.drain_max_cycles = 77;
  cfg.stream_interval = 123;
  cfg.phase_script = parse_phase_script("x:10@load=0.3");

  CheckpointWriter writer;
  cfg.write_to(writer);
  SimConfig copy;
  CheckpointReader reader(writer.bytes());
  copy.read_from(reader);

  EXPECT_EQ(copy.routing_name, "par-mm");
  EXPECT_EQ(copy.traffic_name, "advc");
  EXPECT_EQ(copy.topo.h, 3);
  EXPECT_DOUBLE_EQ(copy.load, 0.42);
  EXPECT_EQ(copy.seed, 1234567u);
  EXPECT_EQ(copy.stop.mode, StopMode::kCi);
  EXPECT_DOUBLE_EQ(copy.stop.rel_hw, 0.07);
  EXPECT_EQ(copy.drain_max_cycles, 77);
  EXPECT_EQ(copy.stream_interval, 123);
  ASSERT_EQ(copy.phase_script.size(), 1u);
  EXPECT_EQ(copy.phase_script[0].name, "x");
  EXPECT_DOUBLE_EQ(copy.phase_script[0].load, 0.3);
}

TEST(Config, CheckpointKeepsCodeBuiltSelections) {
  // Code may select by name and pin an unbalanced shape field by
  // field; the config section carries both (restoring "h" must not
  // re-derive the p/a it also carries).
  SimConfig cfg = SimConfig::small(2);
  cfg.routing_name = "par-mm";
  cfg.traffic_name = "advc";
  cfg.topo = DragonflyParams{3, 5, 2, 7};
  cfg.vcs_explicit = true;
  cfg.topo_a_explicit = true;

  CheckpointWriter writer;
  cfg.write_to(writer);
  SimConfig copy;
  CheckpointReader reader(writer.bytes());
  copy.read_from(reader);

  EXPECT_EQ(copy.routing_key(), "par-mm");
  EXPECT_EQ(copy.traffic_key(), "advc");
  EXPECT_EQ(copy.topo.p, 3);
  EXPECT_EQ(copy.topo.a, 5);
  EXPECT_EQ(copy.topo.h, 2);
  EXPECT_EQ(copy.topo.g, 7);
  EXPECT_TRUE(copy.vcs_explicit);
  EXPECT_TRUE(copy.topo_a_explicit);
  EXPECT_FALSE(copy.topo_p_explicit);
  EXPECT_EQ(copy.canonical_hash(), cfg.canonical_hash());
}

TEST(Config, TopologyKeySelectsFamiliesAndValidatesArgs) {
  SimConfig cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "flatbfly:4,3");
  EXPECT_EQ(cfg.topology, "flatbfly:4,3");
  EXPECT_NO_THROW(cfg.validate());

  // Aliases resolve to the canonical family key.
  cfg.apply_kv("topology", "dragonfly:2,4,2");
  EXPECT_EQ(cfg.topology, "dfly:2,4,2");
  EXPECT_NO_THROW(cfg.validate());

  // Malformed built-in args fail at apply time, with the grammar.
  EXPECT_THROW(cfg.apply_kv("topology", "flatbfly:1,9"),
               std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("topology", "dfly:2,4"), std::invalid_argument);
  EXPECT_THROW(cfg.apply_kv("topology", "no-such-family:1,2"),
               std::invalid_argument);

  // The dragonfly shorthand keys reset the family: last writer wins.
  cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "flatbfly:4,3");
  cfg.apply_kv("h", "2");
  EXPECT_TRUE(cfg.topology.empty());
  cfg.apply_kv("topology", "flatbfly:4,3");
  cfg.apply_kv("groups", "5");
  EXPECT_TRUE(cfg.topology.empty());
  EXPECT_EQ(cfg.topo.g, 5);
  // ...but like explicit p/a, an explicit groups survives a later "h"
  // (key order must not silently change the requested topology).
  cfg.apply_kv("h", "2");
  EXPECT_EQ(cfg.topo.g, 5);
  EXPECT_EQ(cfg.topo.h, 2);
}

TEST(Config, ValidateRejectsArrangementTopologyMismatch) {
  // An arrangement aimed at a non-dragonfly family is a config error
  // (the knob would be silently ignored otherwise) and the diagnostic
  // lists the valid combinations.
  SimConfig cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "flatbfly:4,3");
  cfg.apply_kv("arrangement", "consecutive");
  try {
    cfg.validate();
    FAIL() << "expected the arrangement/topology mismatch to throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("consecutive"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flatbfly"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid combinations"), std::string::npos) << msg;
  }
  // Even the default arrangement is rejected when named explicitly...
  cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "flatbfly:4,3");
  cfg.apply_kv("arrangement", "palmtree");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // ...and a programmatic non-default arrangement is caught too.
  cfg = SimConfig::small(2);
  cfg.topology = "flatbfly:4,3";
  cfg.arrangement = "consecutive";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Arrangement + dragonfly stays valid, of course.
  cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "dfly:2,4,2");
  cfg.apply_kv("arrangement", "consecutive");
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateUsesDefaultedFlatbflyConcentration) {
  // flatbfly:4,3 defaults concentration to k: 64 nodes. The shape the
  // range checks see must use the default, not the 0 sentinel.
  SimConfig cfg = SimConfig::small(2);
  cfg.apply_kv("topology", "flatbfly:4,3");
  cfg.traffic_name = "hotspot";
  cfg.hotspot_node = 63;
  EXPECT_NO_THROW(cfg.validate());
  cfg.hotspot_node = 64;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, ValidateCoversParanoidKnob) {
  SimConfig cfg = SimConfig::small(2);
  cfg.apply_kv("sim.paranoid", "64");
  EXPECT_EQ(cfg.sim_paranoid, 64);
  EXPECT_NO_THROW(cfg.validate());
  cfg.sim_paranoid = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dragonfly
