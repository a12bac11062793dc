#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace afs {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  AFS_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  AFS_CHECK_MSG(cells.size() == headers_.size(),
                "row arity " << cells.size() << " != header arity "
                             << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  // std::fixed output, without a stream per number: both print the exact
  // decimal value rounded to `precision` digits, as printf's %.*f does.
  AFS_CHECK_MSG(precision >= 0 && precision <= kMaxPrecision,
                "Table::num precision " << precision);
  // The largest double has 309 integer digits; a sign and a point.
  char buf[309 + 2 + kMaxPrecision];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, precision);
  AFS_CHECK(ec == std::errc());
  return std::string(buf, end);
}

std::string Table::num(std::int64_t v) { return std::to_string(v); }

std::string Table::to_ascii() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << " |\n";
  };
  emit(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(width[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  // Crash-safe publication: a reader (or a rerun) never sees a
  // half-written CSV — the file appears complete or not at all.
  write_file_atomic(path, to_csv());
}

}  // namespace afs
