#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace dragonfly {

// --- unified result writer --------------------------------------------------

const char* to_string(OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable: return "table";
    case OutputFormat::kCsv: return "csv";
    case OutputFormat::kJson: return "json";
  }
  return "?";
}

OutputFormat output_format_from_string(const std::string& name) {
  if (name == "table") return OutputFormat::kTable;
  if (name == "csv") return OutputFormat::kCsv;
  if (name == "json") return OutputFormat::kJson;
  throw std::invalid_argument("unknown output format \"" + name +
                              "\"; valid names: table | csv | json");
}

OutputFormat results_format() {
  const char* env = std::getenv("REPRO_FORMAT");
  if (env == nullptr || *env == '\0') return OutputFormat::kCsv;
  const OutputFormat format = output_format_from_string(env);
  if (format == OutputFormat::kTable) {
    throw std::invalid_argument("REPRO_FORMAT must be csv or json");
  }
  return format;
}

std::string csv_cell(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + "\"";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A JSON/CSV cell: strings quoted/escaped per format, numbers via the
/// Table formatter so both encodings print identically. Non-finite
/// doubles (a starved router makes max_over_min infinite) become JSON
/// null — bare `inf`/`nan` is not valid JSON.
std::string encode_cell(const Table::Cell& cell, OutputFormat format) {
  if (const auto* d = std::get_if<double>(&cell);
      d != nullptr && !std::isfinite(*d) && format == OutputFormat::kJson) {
    return "null";
  }
  const std::string text = Table::format(cell);
  if (std::holds_alternative<std::string>(cell)) {
    if (format == OutputFormat::kJson) {
      std::string quoted = "\"";
      quoted.append(json_escape(text)).push_back('"');
      return quoted;
    }
    if (format == OutputFormat::kCsv) return csv_cell(text);
  }
  return text;
}

std::string mirror_path(const std::string& stem, OutputFormat format) {
  return results_dir() + "/" + stem +
         (format == OutputFormat::kJson ? ".json" : ".csv");
}

void write_json_table(std::ostream& os, const std::string& name,
                      const std::vector<std::string>& columns,
                      const std::vector<std::vector<Table::Cell>>& rows) {
  os << "{\n  \"experiment\": \"" << json_escape(name) << "\",\n"
     << "  \"columns\": [";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    os << (c ? ", " : "") << "\"" << json_escape(columns[c]) << "\"";
  }
  os << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << "    {";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      os << (c ? ", " : "") << "\"" << json_escape(columns[c])
         << "\": " << encode_cell(rows[r][c], OutputFormat::kJson);
    }
    os << "}" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void write_csv_table(std::ostream& os,
                     const std::vector<std::string>& columns,
                     const std::vector<std::vector<Table::Cell>>& rows) {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    os << (c ? "," : "") << csv_cell(columns[c]);
  }
  os << "\n";
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "," : "") << encode_cell(row[c], OutputFormat::kCsv);
    }
    os << "\n";
  }
}

/// The result schema, once: each column's name beside its cell, in
/// emission order.
std::vector<std::pair<const char*, Table::Cell>> result_row(
    const std::string& label, const AveragedResult& r) {
  return {{"label", label},
          {"offered", r.offered_load},
          {"accepted", r.accepted_load},
          {"latency", r.avg_latency},
          {"lat_base", r.components.base},
          {"lat_misroute", r.components.misroute},
          {"lat_local_q", r.components.local_queue},
          {"lat_global_q", r.components.global_queue},
          {"lat_inj_q", r.components.injection_queue},
          {"local_hops", r.avg_local_hops},
          {"global_hops", r.avg_global_hops},
          {"min_inj", r.fairness.min_injections},
          {"max_inj", r.fairness.max_injections},
          {"max_over_min", r.fairness.max_over_min},
          {"cov", r.fairness.cov},
          {"jain", r.fairness.jain},
          {"seeds", static_cast<std::int64_t>(r.seeds)},
          {"measured_cycles",
           static_cast<std::int64_t>(r.measured_cycles + 0.5)},
          {"converged", static_cast<std::int64_t>(r.converged ? 1 : 0)},
          {"p999", r.p999_latency},
          {"sat_margin", r.saturation_margin},
          {"jain_jobs", r.jain_jobs},
          {"jain_groups", r.jain_groups},
          {"jobs", static_cast<std::int64_t>(r.jobs.size())}};
}

std::vector<Table::Cell> result_cells(const std::string& label,
                                      const AveragedResult& r) {
  std::vector<Table::Cell> cells;
  for (auto& [name, cell] : result_row(label, r)) {
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::ofstream open_for_write(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  return out;
}

/// The distinct values `field` takes over `configs`, in first-seen
/// order, joined with ", ".
std::string distinct(std::span<const SimConfig> configs,
                     std::string (*field)(const SimConfig&)) {
  std::vector<std::string> seen;
  for (const SimConfig& cfg : configs) {
    std::string value = field(cfg);
    if (std::ranges::count(seen, value) == 0) seen.push_back(std::move(value));
  }
  std::string out;
  for (const std::string& value : seen) out += (out.empty() ? "" : ", ") + value;
  return out;
}

}  // namespace

ResultWriter::ResultWriter(std::string experiment)
    : experiment_(std::move(experiment)) {}

void ResultWriter::add(std::string label, const AveragedResult& result) {
  rows_.push_back(Row{std::move(label), result});
}

void ResultWriter::add_curve(const Curve& curve) {
  for (const AveragedResult& point : curve.points) add(curve.label, point);
}

void ResultWriter::add_curves(std::span<const Curve> curves) {
  for (const Curve& curve : curves) add_curve(curve);
}

std::vector<std::string> ResultWriter::columns() {
  std::vector<std::string> names;
  for (const auto& [name, cell] : result_row("", AveragedResult{})) {
    names.emplace_back(name);
  }
  return names;
}

std::string ResultWriter::csv_row(const std::string& label,
                                  const AveragedResult& result) {
  std::string line;
  for (const Table::Cell& cell : result_cells(label, result)) {
    if (!line.empty()) line += ',';
    line += encode_cell(cell, OutputFormat::kCsv);
  }
  return line;
}

void ResultWriter::write(std::ostream& os, OutputFormat format) const {
  const std::vector<std::string> cols = columns();
  std::vector<std::vector<Table::Cell>> cells;
  cells.reserve(rows_.size());
  for (const Row& row : rows_) {
    cells.push_back(result_cells(row.label, row.result));
  }
  switch (format) {
    case OutputFormat::kTable: {
      Table table(cols);
      table.set_title(experiment_);
      for (auto& row : cells) table.add_row(std::move(row));
      table.print(os);
      break;
    }
    case OutputFormat::kCsv:
      write_csv_table(os, cols, cells);
      break;
    case OutputFormat::kJson:
      write_json_table(os, experiment_, cols, cells);
      break;
  }
}

void ResultWriter::write_file(const std::string& path,
                              OutputFormat format) const {
  std::ofstream out = open_for_write(path);
  write(out, format);
}

std::string ResultWriter::mirror(const std::string& stem) const {
  const OutputFormat format = results_format();
  const std::string path = mirror_path(stem, format);
  write_file(path, format);
  return path;
}

std::string mirror_table(const Table& table, const std::string& stem) {
  const OutputFormat format = results_format();
  const std::string path = mirror_path(stem, format);
  std::ofstream out = open_for_write(path);
  if (format == OutputFormat::kCsv) {
    write_csv_table(out, table.headers(), table.data());
  } else {
    write_json_table(out, table.title(), table.headers(), table.data());
  }
  return path;
}

// --- figure/table reports ---------------------------------------------------

void report_preamble(std::ostream& os, const std::string& experiment,
                     std::span<const SimConfig> configs, int seeds,
                     const std::string& paper_expectation) {
  if (configs.empty()) {
    throw std::invalid_argument("report_preamble: no configurations");
  }
  using C = const SimConfig&;
  const SimConfig& first = configs.front();
  const auto& t = first.topo;
  const std::string age = distinct(configs, [](C c) -> std::string {
    return c.age_arbitration ? "ON" : "OFF";
  });
  os << "=== " << experiment << " ===\n"
     << "topology: dragonfly p=" << t.p << " a=" << t.a << " h=" << t.h
     << " (" << t.num_groups() << " groups, " << t.num_routers()
     << " routers, " << t.num_nodes() << " nodes, "
     << distinct(configs, [](C c) { return c.arrangement; }) << ")\n"
     << "routing: " << distinct(configs, [](C c) { return c.routing_key(); })
     << "\ntraffic: " << distinct(configs, [](C c) { return c.traffic_key(); })
     << "\noffered load: "
     << distinct(configs, [](C c) { return Table::format(c.load); })
     << " phits/(node*cycle)\nwindow: " << first.warmup_cycles
     << " warmup + " << first.measure_cycles << " measured cycles, " << seeds
     << " seed(s) averaged\ntransit-over-injection priority: "
     << distinct(configs, [](C c) -> std::string {
          return c.transit_priority ? "ON" : "OFF";
        })
     << (age == "OFF" ? "" : ", age arbitration: " + age)
     << "\npaper expectation: " << paper_expectation << "\n\n";
}

void report_latency_throughput(std::ostream& os, const std::string& title,
                               const std::string& stem,
                               std::span<const Curve> curves) {
  std::vector<std::string> lat_headers{"offered"};
  std::vector<std::string> thr_headers{"offered"};
  for (const Curve& c : curves) {
    lat_headers.push_back(c.label + " lat");
    thr_headers.push_back(c.label + " acc");
  }
  Table latency(lat_headers);
  latency.set_title(title + " — average packet latency (cycles)");
  Table throughput(thr_headers);
  throughput.set_title(title + " — accepted load (phits/node/cycle)");

  const std::size_t points = curves.empty() ? 0 : curves[0].points.size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<Table::Cell> lrow{curves[0].points[i].offered_load};
    std::vector<Table::Cell> trow{curves[0].points[i].offered_load};
    for (const Curve& c : curves) {
      lrow.emplace_back(c.points[i].avg_latency);
      trow.emplace_back(c.points[i].accepted_load);
    }
    latency.add_row(std::move(lrow));
    throughput.add_row(std::move(trow));
  }
  latency.print(os);
  os << "\n";
  throughput.print(os);
  os << "\n";
  ResultWriter writer(title);
  writer.add_curves(curves);
  writer.mirror(stem);
}

void report_latency_breakdown(std::ostream& os, const std::string& title,
                              const std::string& stem, const Curve& curve) {
  Table table({"offered", "base", "misrouting", "congestion_local",
               "congestion_global", "injection_queues", "total"});
  table.set_title(title);
  for (const AveragedResult& r : curve.points) {
    const LatencyComponents& c = r.components;
    table.add_row({r.offered_load, c.base, c.misroute, c.local_queue,
                   c.global_queue, c.injection_queue, c.total()});
  }
  table.print(os);
  os << "\n";
  ResultWriter writer(title);
  writer.add_curve(curve);
  writer.mirror(stem);
}

void report_injections_per_router(std::ostream& os, const std::string& title,
                                  const std::string& stem,
                                  std::span<const Curve> curves,
                                  GroupId group, int routers_per_group) {
  std::vector<std::string> headers{"router"};
  for (const Curve& c : curves) headers.push_back(c.label);
  Table table(headers);
  table.set_title(title);
  for (int r = 0; r < routers_per_group; ++r) {
    std::vector<Table::Cell> row{std::string("R").append(std::to_string(r))};
    for (const Curve& c : curves) {
      const auto& inj = c.points.front().injections_per_router;
      row.emplace_back(
          inj[static_cast<std::size_t>(group * routers_per_group + r)]);
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "\n";
  mirror_table(table, stem);
}

void report_job_table(std::ostream& os, const std::string& title,
                      const std::string& stem,
                      std::span<const JobResult> jobs) {
  Table table({"job", "label", "nodes", "start", "end", "delivered",
               "accepted", "latency", "p99", "max_lat", "iters",
               "iter_cycles"});
  table.set_title(title);
  for (const JobResult& j : jobs) {
    table.add_row({static_cast<std::int64_t>(j.id), j.label,
                   static_cast<std::int64_t>(j.nodes),
                   static_cast<std::int64_t>(j.start),
                   static_cast<std::int64_t>(j.end),
                   j.delivered_packets, j.accepted_load, j.avg_latency,
                   j.p99_latency, j.max_latency, j.iterations,
                   j.mean_iteration_cycles});
  }
  table.print(os);
  os << "\n";
  if (!stem.empty()) mirror_table(table, stem);
}

void report_fairness_table(std::ostream& os, const std::string& title,
                           const std::string& stem,
                           std::span<const Curve> curves) {
  Table table({"routing", "Min inj", "Max/Min", "COV", "Jain"});
  table.set_title(title);
  for (const Curve& c : curves) {
    const FairnessReport& f = c.points.front().fairness;
    table.add_row({c.label, f.min_injections, f.max_over_min, f.cov, f.jain});
  }
  table.print(os);
  os << "\n";
  ResultWriter writer(title);
  writer.add_curves(curves);
  writer.mirror(stem);
}

}  // namespace dragonfly
