// BinaryTraceSink: an opt-in MetricsSink that streams a per-processor
// timeline of one (or more) simulator runs as a compact .cctrace file —
// the repo's one trace format. TraceReader (trace/trace_reader.hpp)
// decodes it back into TraceRecords, and `trace_report --jsonl` prints
// those as one JSON object per line for grep and jq.
//
// Volume is proportional to scheduling decisions and misses, not
// iterations: the per-iteration on_work/on_hit micro-events are
// intentionally not serialized (their aggregates are in SimResult).
//
// Format (version 1; full spec in docs/SIMULATOR.md, "Binary trace
// format"):
//
//   header   'C' 'C' 'T' 'R'  version=0x01  3 reserved zero bytes
//   records  opcode byte, then opcode-specific fields:
//              0x00        string definition: varint id, varint len, bytes
//              0x01..0x0e  the TraceEv events (same numbering)
//
// Encodings:
//   * varint   — LEB128, 7 bits per byte, little-endian groups;
//   * svarint  — zigzag-mapped varint (queue indexes can be -1);
//   * time     — the double's IEEE-754 bit pattern XORed against the
//                previous time field's bits (one rolling register for
//                every t/t0/t1/end/makespan in the file), varint-encoded.
//                Simulated time advances smoothly, so consecutive bit
//                patterns share sign/exponent/upper-mantissa bits and the
//                XOR is a small integer — typically 3-6 bytes instead of
//                the ~18 characters a decimal rendering spends, and
//                exactly lossless;
//   * value    — same XOR-chain scheme with a second register, used for
//                the non-monotone doubles (miss sizes, barrier costs),
//                which repeat heavily (XOR = 0 encodes in one byte).
//
// Strings (machine/program/scheduler names) are interned: the first
// occurrence emits a definition record with the next sequential id, and
// every reference is a varint id — so a run_begin costs a few bytes after
// the first run. All state (intern table, XOR registers) persists across
// runs within one file.
//
// File output is crash-safe: records go to `<path>.tmp`, and the final
// name appears only when finalize() commits it (fsync + rename). The
// sweep harness writes one sink per (scheduler, P) cell — finalize() on
// success, abandon() on failure — so parallel cells never interleave
// records, a crashed cell never publishes a partial trace, and a resumed
// sweep never truncates a completed one.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "sim/metrics.hpp"
#include "trace/trace_record.hpp"

namespace afs {

class BinaryTraceSink final : public MetricsSink {
 public:
  /// Magic + version prefix: "CCTR", version byte, three reserved zeros.
  static constexpr unsigned char kMagic[8] = {'C', 'C', 'T', 'R',
                                              1,   0,   0,   0};

  /// Streams to `out` (not owned; must outlive the sink). The header is
  /// written immediately.
  explicit BinaryTraceSink(std::ostream& out);

  /// Streams to `path + ".tmp"` (truncates), published to `path` by
  /// finalize(). Throws std::runtime_error when the file cannot be
  /// opened; parent directories are not created.
  explicit BinaryTraceSink(const std::string& path);

  /// Flushes; in path mode also fsyncs and renames the temp file onto
  /// the final path. Idempotent; called by the destructor if not already
  /// (the destructor swallows publication errors — call explicitly to
  /// see them).
  void finalize();

  /// Path mode only: closes and unlinks the temp file; the final path is
  /// never created (or, on a re-run, keeps its previous complete
  /// contents). Idempotent; finalize() afterwards is a no-op. Never
  /// throws (failure cleanup must be safe in catch blocks).
  void abandon();

  ~BinaryTraceSink() override;

  std::int64_t records_written() const { return records_; }
  std::int64_t bytes_written() const { return bytes_; }

  void on_run_begin(const MachineConfig& m, const std::string& program,
                    const std::string& scheduler, int p) override;
  void on_loop_begin(int epoch, std::int64_t n, int p) override;
  void on_grab(int proc, const Grab& g, double t0, double t1) override;
  void on_chunk(int proc, std::int64_t begin, std::int64_t end, double t0,
                double t1) override;
  void on_miss(int proc, const BlockAccess& a, double t0, double t1) override;
  void on_invalidate(int proc, std::int64_t block, int copies, double t0,
                     double t1) override;
  void on_proc_done(int proc, double t) override;
  void on_stall(int proc, double t0, double t1) override;
  void on_proc_lost(int proc, double t) override;
  void on_fault_steal(int thief, int victim_queue, std::int64_t iters) override;
  void on_abandoned(std::int64_t iters) override;
  void on_loop_end(int epoch, double end) override;
  void on_barrier(int epoch, double cost, double total) override;
  void on_run_end(double makespan) override;

 private:
  void op(TraceEv ev);
  void put_u8(std::uint8_t b);
  void put_varint(std::uint64_t v);
  void put_svarint(std::int64_t v);
  void put_time(double t);
  void put_value(double v);
  /// Returns the string's intern id, emitting a definition record first
  /// when the string is new.
  std::uint64_t intern(const std::string& s);
  void flush_buffer();

  std::string buf_;          // pending bytes, flushed past a threshold
  std::ofstream file_;       // used by the path constructor
  std::ostream* out_;        // always valid
  std::string final_path_;   // non-empty = path mode, not yet finalized
  std::map<std::string, std::uint64_t> interned_;
  std::uint64_t prev_time_bits_ = 0;
  std::uint64_t prev_value_bits_ = 0;
  std::int64_t records_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace afs
