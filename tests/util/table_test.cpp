#include "util/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "util/check.hpp"

namespace afs {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), CheckFailure);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), CheckFailure);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), CheckFailure);
}

TEST(Table, AsciiContainsAllCells) {
  Table t({"P", "time"});
  t.add_row({"1", "10.5"});
  t.add_row({"2", "5.25"});
  const std::string s = t.to_ascii();
  EXPECT_NE(s.find("P"), std::string::npos);
  EXPECT_NE(s.find("10.5"), std::string::npos);
  EXPECT_NE(s.find("5.25"), std::string::npos);
}

TEST(Table, AsciiColumnsAligned) {
  Table t({"x", "longheader"});
  t.add_row({"verylongcell", "1"});
  std::istringstream in(t.to_ascii());
  std::string header, rule, row;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, row);
  EXPECT_EQ(header.size(), row.size());
}

TEST(Table, CsvFormat) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsDoublesAndInts) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(42)), "42");
}

TEST(Table, NumPrintsWhatAFixedStreamPrints) {
  // Table::num formats without a stream; its bytes must be the stream's:
  // signed zeros, halfway values (ties round to even on the exact binary
  // value), integers past 2^53, the largest double, subnormals, inf and
  // nan.
  const auto stream = [](double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  };
  std::vector<double> values{0.0,
                             -0.0,
                             0.5,
                             1.5,
                             2.5,
                             -2.5,
                             0.125,
                             0.375,
                             2.675,
                             1.0005,
                             0.05,
                             0.15,
                             0.25,
                             1e-3,
                             999.9995,
                             9007199254740993.0,
                             18014398509481985.0,
                             1e22,
                             1.7976931348623157e308,
                             -1.7976931348623157e308,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             2.2250738585072009e-308,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  // Halves, quarters, eighths and sixteenths: the values halfway between
  // two outputs at precisions 0 to 3 that a double holds exactly.
  for (int k = -80; k < 80; ++k) values.push_back(k / 16.0);
  for (const double v : values)
    for (int precision = 0; precision <= 3; ++precision)
      EXPECT_EQ(Table::num(v, precision), stream(v, precision))
          << v << " at precision " << precision;
  EXPECT_EQ(Table::num(1.0 / 3.0, Table::kMaxPrecision),
            stream(1.0 / 3.0, Table::kMaxPrecision));
}

TEST(Table, WriteCsvCreatesDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "afs_table_test";
  std::filesystem::remove_all(dir);
  Table t({"h"});
  t.add_row({"v"});
  const auto path = (dir / "sub" / "out.csv").string();
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h");
  std::filesystem::remove_all(dir);
}

TEST(Table, RowCount) {
  Table t({"h"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace afs
