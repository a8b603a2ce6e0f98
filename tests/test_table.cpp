#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/report.hpp"

namespace dragonfly {
namespace {

TEST(Table, RejectsColumnMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(t.add_row({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Table, FormatsCells) {
  EXPECT_EQ(Table::format(Table::Cell{std::string("x")}), "x");
  EXPECT_EQ(Table::format(Table::Cell{std::int64_t{42}}), "42");
  EXPECT_EQ(Table::format(Table::Cell{1.5}), "1.5");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.set_title("demo");
  t.add_row({std::string("longer-name"), 1.0});
  t.add_row({std::string("x"), 123.25});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# demo"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("123.25"), std::string::npos);
  // Header row plus separator plus two data rows plus title.
  int lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5);
}

TEST(Table, MirrorsToCsv) {
  Table t({"a", "b"});
  t.add_row({std::int64_t{1}, 2.5});
  t.add_row({std::int64_t{3}, 4.0});
  // The directory is created on demand.
  const std::string path =
      mirror_table(t, {"test_table_out", OutputFormat::kCsv}, "table");
  EXPECT_EQ(path, "test_table_out/table.csv");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
  in.close();
  std::filesystem::remove_all("test_table_out");
}

TEST(Table, RowAndColumnCounts) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({1.0, 2.0, 3.0});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace dragonfly
