// TraceReader: decodes a .cctrace file (trace/binary_sink.hpp) back into
// TraceRecords.
//
// Opens a trace file (or istream), checks the "CCTR" magic and version,
// and iterates TraceRecords until end of stream. Doubles come back
// bit-exact (the format stores bit patterns). trace_json() renders a
// record as the one-line JSON object `trace_report --jsonl` prints.
//
// Malformed input (bad magic, unknown opcode, truncated record, dangling
// string reference, an int field above INT_MAX, a processor count
// outside 1..64) throws std::runtime_error with the offending record
// index; a clean EOF at a record boundary ends iteration normally.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "trace/trace_record.hpp"

namespace afs {

class TraceReader {
 public:
  /// Opens `path` and checks the header. Throws std::runtime_error when
  /// the file cannot be opened or is not a .cctrace.
  explicit TraceReader(const std::string& path);

  /// Reads from `in` (not owned; must outlive the reader).
  explicit TraceReader(std::istream& in);

  /// Decodes the next record into `rec`. Returns false at a clean end of
  /// stream; throws on malformed input.
  bool next(TraceRecord& rec);

  std::int64_t records_read() const { return records_; }

 private:
  void read_header();
  [[noreturn]] void fail(const std::string& what) const;

  std::uint8_t read_u8();
  std::uint64_t read_varint();
  std::int64_t read_svarint();
  double read_time();
  double read_value();

  std::ifstream file_;  // used by the path constructor
  std::istream* in_;    // always valid
  std::vector<std::string> strings_;  // intern table
  std::uint64_t prev_time_bits_ = 0;
  std::uint64_t prev_value_bits_ = 0;
  std::int64_t records_ = 0;
  std::string context_;  // path or "<stream>", for error messages
};

/// Convenience: decodes the whole file into a vector.
std::vector<TraceRecord> read_trace(const std::string& path);

/// `rec` as one line of JSON (no trailing newline) in the schema of
/// docs/SIMULATOR.md, "Trace schema": an "ev" discriminator, then the
/// event's fields, doubles printed at precision 17 so they parse back
/// bit-exact.
std::string trace_json(const TraceRecord& rec);

}  // namespace afs
