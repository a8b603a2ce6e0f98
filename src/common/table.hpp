// Console table / CSV emission for benches and examples.
//
// Every bench prints the same rows/series the paper reports; this helper
// keeps the formatting consistent (aligned console output).
// mirror_table (core/report.hpp) mirrors a table to CSV or JSON for
// external plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace dragonfly {

class Table {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit Table(std::vector<std::string> headers);

  /// Title shown above the table on the console (e.g. "Figure 2c: ...").
  void set_title(std::string title);

  void add_row(std::vector<Cell> row);
  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }
  const std::string& title() const { return title_; }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<Cell>>& data() const { return rows_; }

  /// Render aligned, human-readable output.
  void print(std::ostream& os) const;

  /// Format one cell to its display string (doubles use %.6g).
  static std::string format(const Cell& cell);

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace dragonfly
