#include "common/table.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace dragonfly {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::set_title(std::string title) { title_ = std::move(title); }

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string Table::format(const Cell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  char buf[64];
  if (const auto* d = std::get_if<double>(&cell)) {
    std::snprintf(buf, sizeof buf, "%.6g", *d);
  } else {
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(std::get<std::int64_t>(cell)));
  }
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  if (!title_.empty()) os << "# " << title_ << "\n";
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << "\n";
  };
  emit(headers_);
  std::size_t total = headers_.size() - 1;
  for (auto w : widths) total += w + 1;
  for (std::size_t i = 0; i < total; ++i) os << '-';
  os << "\n";
  for (const auto& cells : rendered) emit(cells);
}

}  // namespace dragonfly
