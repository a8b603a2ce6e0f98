// Figure/table emitters: print the same rows/series the paper reports and
// mirror them to CSV or JSON files under a caller-chosen directory.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"

namespace dragonfly {

/// One curve of a latency/throughput figure: a routing configuration and
/// its swept results.
struct Curve {
  std::string label;
  std::vector<AveragedResult> points;
};

// --- unified result writer --------------------------------------------------

/// Output encodings of the unified writer (and the CLI --out option).
enum class OutputFormat { kTable, kCsv, kJson };

const char* to_string(OutputFormat format);
/// "table" | "csv" | "json"; unknown names throw, listing the valid ones.
OutputFormat output_format_from_string(const std::string& name);

/// Where result files mirror to: `<dir>/<stem>.csv`, or `.json` when
/// `format` is kJson. A kTable format is refused when a file is written.
struct Mirror {
  std::string dir = "results";
  OutputFormat format = OutputFormat::kCsv;
};

/// One CSV field per RFC 4180: text holding a comma, quote or newline is
/// quoted with inner quotes doubled; anything else is returned as is.
std::string csv_cell(const std::string& text);

/// The one writer every bench, example and the CLI emit scalar results
/// through: one row per (label, averaged point), fixed column schema
/// (label, offered, accepted, latency, the five latency components,
/// hops, fairness, seeds), encoded as an aligned console table, CSV, or
/// JSON. Converging on this schema keeps every mirrored artifact
/// machine-readable by the same scripts.
class ResultWriter {
 public:
  explicit ResultWriter(std::string experiment);

  void add(std::string label, const AveragedResult& result);
  void add_curve(const Curve& curve);
  void add_curves(std::span<const Curve> curves);
  std::size_t rows() const { return rows_.size(); }

  void write(std::ostream& os, OutputFormat format) const;
  void write_file(const std::string& path, OutputFormat format) const;

  /// Mirror as `<stem>.csv` / `<stem>.json` under `to`; returns the
  /// path written.
  std::string mirror(const Mirror& to, const std::string& stem) const;

  /// The fixed column schema, in emission order.
  static std::vector<std::string> columns();

  /// One row exactly as write(os, kCsv) would emit it (same cell
  /// formatter, same RFC 4180 quoting), no trailing newline. The sweep
  /// service sends results over the wire through this so a cached reply
  /// is byte-identical to the row a fresh run would have produced.
  static std::string csv_row(const std::string& label,
                             const AveragedResult& result);

 private:
  struct Row {
    std::string label;
    AveragedResult result;
  };

  std::string experiment_;
  std::vector<Row> rows_;
};

/// Mirror an arbitrary pivot table (per-router injection figures and
/// other non-scalar shapes) like ResultWriter::mirror; returns the path
/// written.
std::string mirror_table(const Table& table, const Mirror& to,
                         const std::string& stem);

/// Figures 2/5: for each routing, the latency-vs-load and accepted-vs-
/// offered series. Prints one combined table; mirrors one unified
/// ResultWriter file to `<stem>.csv` / `<stem>.json` under `to`.
void report_latency_throughput(std::ostream& os, const std::string& title,
                               const Mirror& to, const std::string& stem,
                               std::span<const Curve> curves);

/// Figure 3: latency component breakdown over offered load.
void report_latency_breakdown(std::ostream& os, const std::string& title,
                              const Mirror& to, const std::string& stem,
                              const Curve& curve);

/// Figures 4/6: injected packets per router of one group.
void report_injections_per_router(std::ostream& os, const std::string& title,
                                  const Mirror& to, const std::string& stem,
                                  std::span<const Curve> curves,
                                  GroupId group, int routers_per_group);

/// Workload battery: one row per job (id, mix/collective label, node
/// count, lifetime, window accepted load, latency tail, collective
/// iteration stats).
void report_job_table(std::ostream& os, const std::string& title,
                      std::span<const JobResult> jobs);

/// Tables II/III: Min inj / Max-Min / CoV per routing configuration.
void report_fairness_table(std::ostream& os, const std::string& title,
                           const Mirror& to, const std::string& stem,
                           std::span<const Curve> curves);

/// Header block every bench prints: what its runs actually simulate
/// (topology and window of the first config; the distinct arrangements,
/// routings, traffics, loads and priority settings over all of them)
/// plus the paper expectation reminder. `configs` must be non-empty.
void report_preamble(std::ostream& os, const std::string& experiment,
                     std::span<const SimConfig> configs, int seeds,
                     const std::string& paper_expectation);

}  // namespace dragonfly
