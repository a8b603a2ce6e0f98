#include "core/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace dragonfly {
namespace {

class ReportFixture : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove_all(to.dir); }

  const Mirror to{"test_report_out", OutputFormat::kCsv};

  static AveragedResult make_point(double load, double latency,
                                   double accepted) {
    AveragedResult r;
    r.offered_load = load;
    r.avg_latency = latency;
    r.accepted_load = accepted;
    r.components.base = latency * 0.6;
    r.components.misroute = latency * 0.2;
    r.components.local_queue = latency * 0.1;
    r.components.global_queue = latency * 0.05;
    r.components.injection_queue = latency * 0.05;
    r.injections_per_router = {100.0, 90.0, 10.0};
    r.fairness.min_injections = 10.0;
    r.fairness.max_over_min = 10.0;
    r.fairness.cov = 0.5;
    r.fairness.jain = 0.7;
    r.seeds = 1;
    return r;
  }
};

TEST_F(ReportFixture, LatencyThroughputPrintsAndMirrorsUnifiedCsv) {
  std::vector<Curve> curves{
      {"MIN", {make_point(0.1, 150, 0.1), make_point(0.2, 160, 0.2)}},
      {"In-Trns-MM", {make_point(0.1, 155, 0.1), make_point(0.2, 165, 0.2)}},
  };
  std::ostringstream os;
  report_latency_throughput(os, "demo", to, "demo_fig", curves);
  const std::string out = os.str();
  EXPECT_NE(out.find("MIN lat"), std::string::npos);
  EXPECT_NE(out.find("In-Trns-MM acc"), std::string::npos);
  EXPECT_NE(out.find("150"), std::string::npos);
  // CSV mirror converges on the unified writer schema: one file, one
  // row per (label, point).
  ASSERT_TRUE(std::filesystem::exists("test_report_out/demo_fig.csv"));
  std::ifstream csv("test_report_out/demo_fig.csv");
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line,
            "label,offered,accepted,latency,lat_base,lat_misroute,"
            "lat_local_q,lat_global_q,lat_inj_q,local_hops,global_hops,"
            "min_inj,max_inj,max_over_min,cov,jain,seeds,measured_cycles,"
            "converged,p999,sat_margin,jain_jobs,jain_groups,jobs");
  int rows = 0;
  while (std::getline(csv, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 4);  // 2 curves x 2 points
}

TEST_F(ReportFixture, ResultWriterFormats) {
  ResultWriter writer("fmt-demo");
  writer.add("MIN", make_point(0.1, 150, 0.1));
  writer.add("quo\"ted", make_point(0.2, 160, 0.2));

  std::ostringstream csv;
  writer.write(csv, OutputFormat::kCsv);
  EXPECT_NE(csv.str().find("MIN,0.1,0.1,150"), std::string::npos);

  std::ostringstream table;
  writer.write(table, OutputFormat::kTable);
  EXPECT_NE(table.str().find("fmt-demo"), std::string::npos);
  EXPECT_NE(table.str().find("label"), std::string::npos);

  std::ostringstream json;
  writer.write(json, OutputFormat::kJson);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"experiment\": \"fmt-demo\""), std::string::npos);
  EXPECT_NE(j.find("\"label\": \"MIN\""), std::string::npos);
  EXPECT_NE(j.find("quo\\\"ted"), std::string::npos);  // escaped quote
  // Structurally sane: balanced braces/brackets.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST_F(ReportFixture, WriterEscapesNonFiniteAndSeparators) {
  // A fully starved router yields max_over_min = inf (the paper's ADVc
  // phenomenon) — JSON must emit null, never a bare inf.
  AveragedResult starved = make_point(0.4, 100, 0.2);
  starved.fairness.max_over_min =
      std::numeric_limits<double>::infinity();
  ResultWriter writer("starved");
  writer.add("with,comma", starved);

  std::ostringstream json;
  writer.write(json, OutputFormat::kJson);
  EXPECT_EQ(json.str().find("inf"), std::string::npos);
  EXPECT_NE(json.str().find("\"max_over_min\": null"), std::string::npos);

  std::ostringstream csv;
  writer.write(csv, OutputFormat::kCsv);
  // RFC 4180: the comma-bearing label arrives quoted, keeping columns.
  EXPECT_NE(csv.str().find("\"with,comma\""), std::string::npos);
}

/// Split one CSV line into its fields per RFC 4180: a quoted field may
/// hold commas and doubled quotes.
std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST_F(ReportFixture, MirrorTableQuotesCsvSeparators) {
  // Pivot-table labels may hold commas (ablation_router's "2x speedup,
  // 256-phit global buf (paper)"); each must stay one field.
  Table table({"config", "accepted", "note"});
  table.add_row({std::string("2x speedup, 256-phit buf"), 0.75,
                 std::string("say \"hi\"")});
  std::ifstream in(mirror_table(table, to, "quoted"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(parse_csv_line(line), table.headers());
  std::getline(in, line);
  EXPECT_EQ(parse_csv_line(line),
            (std::vector<std::string>{"2x speedup, 256-phit buf", "0.75",
                                      "say \"hi\""}))
      << line;
}

TEST_F(ReportFixture, ResultWriterMirrorTakesItsFormat) {
  ResultWriter writer("mirror-demo");
  writer.add("A", make_point(0.3, 100, 0.3));
  const std::string path =
      writer.mirror({to.dir, OutputFormat::kJson}, "mirror_demo");
  EXPECT_EQ(path, "test_report_out/mirror_demo.json");
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(writer.mirror(to, "mirror_demo"),
            "test_report_out/mirror_demo.csv");
  // A console table is no file format.
  EXPECT_THROW(writer.mirror({to.dir, OutputFormat::kTable}, "mirror_demo"),
               std::invalid_argument);
}

TEST_F(ReportFixture, OutputFormatRoundTrip) {
  for (OutputFormat f :
       {OutputFormat::kTable, OutputFormat::kCsv, OutputFormat::kJson}) {
    EXPECT_EQ(output_format_from_string(to_string(f)), f);
  }
  EXPECT_THROW(output_format_from_string("xml"), std::invalid_argument);
  try {
    output_format_from_string("xml");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("csv"), std::string::npos);
  }
}

TEST_F(ReportFixture, BreakdownListsAllComponents) {
  Curve curve{"In-Trns-MM", {make_point(0.1, 200, 0.1)}};
  std::ostringstream os;
  report_latency_breakdown(os, "fig3", to, "demo_breakdown", curve);
  const std::string out = os.str();
  for (const char* header :
       {"base", "misrouting", "congestion_local", "congestion_global",
        "injection_queues", "total"}) {
    EXPECT_NE(out.find(header), std::string::npos) << header;
  }
  EXPECT_TRUE(std::filesystem::exists("test_report_out/demo_breakdown.csv"));
}

TEST_F(ReportFixture, InjectionsPerRouterSelectsGroup) {
  std::vector<Curve> curves{{"A", {make_point(0.3, 100, 0.3)}}};
  std::ostringstream os;
  report_injections_per_router(os, "fig4", to, "demo_inj", curves,
                               /*group=*/0, /*routers_per_group=*/3);
  const std::string out = os.str();
  EXPECT_NE(out.find("R0"), std::string::npos);
  EXPECT_NE(out.find("R2"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST_F(ReportFixture, FairnessTableHasPaperColumns) {
  std::vector<Curve> curves{{"Obl-RRG", {make_point(0.3, 100, 0.3)}}};
  std::ostringstream os;
  report_fairness_table(os, "table2", to, "demo_fairness", curves);
  const std::string out = os.str();
  for (const char* header : {"Min inj", "Max/Min", "COV", "Jain"}) {
    EXPECT_NE(out.find(header), std::string::npos) << header;
  }
}

TEST_F(ReportFixture, PreambleDescribesConfiguration) {
  SimConfig cfg = SimConfig::small(2);
  std::ostringstream os;
  report_preamble(os, "Experiment X", std::span<const SimConfig>(&cfg, 1), 3,
                  "expected shape");
  const std::string out = os.str();
  EXPECT_NE(out.find("Experiment X"), std::string::npos);
  EXPECT_NE(out.find("p=2 a=4 h=2"), std::string::npos);
  EXPECT_NE(out.find("72 nodes"), std::string::npos);
  EXPECT_NE(out.find("3 seed(s)"), std::string::npos);
  EXPECT_NE(out.find("priority: ON"), std::string::npos);
  EXPECT_NE(out.find("expected shape"), std::string::npos);

  // The preamble describes the runs, not the defaults they override: an
  // ADVc, priority-OFF row over two routings and two loads says so.
  std::vector<SimConfig> row(3, SimConfig::small(2));
  for (SimConfig& c : row) {
    c.traffic_name = "advc";
    c.transit_priority = false;
  }
  row[0].routing_name = "val-rrg";
  row[1].routing_name = "par-mm";
  row[2].routing_name = "par-mm";
  row[0].load = row[1].load = 0.3;
  row[2].load = 0.5;
  std::ostringstream rs;
  report_preamble(rs, "Row", row, 1, "shape");
  const std::string text = rs.str();
  EXPECT_NE(text.find("routing: val-rrg, par-mm\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("traffic: advc\n"), std::string::npos) << text;
  EXPECT_NE(text.find("offered load: 0.3, 0.5 phits"), std::string::npos)
      << text;
  EXPECT_NE(text.find("priority: OFF\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("uniform"), std::string::npos) << text;
  EXPECT_EQ(text.find("age arbitration"), std::string::npos) << text;
}

}  // namespace
}  // namespace dragonfly
