// Minimal ASCII table / CSV rendering for bench output.
//
// Every reproduction experiment prints the paper's rows with this formatter
// and mirrors them to CSV so EXPERIMENTS.md can be regenerated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace afs {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision (0 to
  /// kMaxPrecision digits), byte for byte as `std::fixed` does.
  static std::string num(double v, int precision = 3);
  static constexpr int kMaxPrecision = 64;
  static std::string num(std::int64_t v);

  /// Renders with aligned columns and a header rule.
  std::string to_ascii() const;

  /// Renders as RFC-4180-ish CSV (no quoting needed for our content).
  std::string to_csv() const;

  /// Writes CSV to `path` atomically (temp file + fsync + rename),
  /// creating parent directories if needed: a crash mid-write never
  /// leaves a truncated CSV behind. Throws std::runtime_error on I/O
  /// failure.
  void write_csv(const std::string& path) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace afs
