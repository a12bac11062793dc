// Trace analytics: per-processor time breakdowns, the steal matrix, and
// the affinity score, all derived from a decoded TraceRecord sequence.
//
// The affinity score quantifies the paper's central mechanism: across
// epochs of the same loop, what fraction of iterations execute on the
// processor that owned them in the previous epoch? Affinity schedulers
// (AFS and friends) keep this high so per-processor caches stay warm;
// central-queue self-scheduling scatters iterations and scores near 1/P.
//
// The conservation law narrated + abandoned == sum of loop sizes is the
// same invariant MetricsAccumulator enforces; checking it here through
// the reader exercises the .cctrace writer and decoder end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/binary_sink.hpp"
#include "trace/trace_record.hpp"

namespace afs {

/// Where one processor's simulated time went, summed over a run.
struct ProcBreakdown {
  double exec = 0;     ///< inside chunks (includes memory time)
  double memory = 0;   ///< miss + invalidation latency within chunks
  double sync = 0;     ///< grabbing work (lock/queue overhead)
  double stall = 0;    ///< injected stalls
  double idle = 0;     ///< makespan minus everything above
  std::int64_t iterations = 0;
  std::int64_t chunks = 0;

  /// Chunk time that is pure compute, net of memory latency.
  double busy() const { return exec - memory; }
};

/// Everything analyze_trace() derives from one run's records.
struct TraceAnalysis {
  std::string machine;
  std::string program;
  std::string scheduler;
  int p = 0;
  double makespan = 0;
  std::int64_t records = 0;
  std::int64_t epochs = 0;

  std::vector<ProcBreakdown> procs;

  /// steal_iters[thief][victim]: iterations taken from another
  /// processor's queue by remote (work-stealing) grabs.
  std::vector<std::vector<std::int64_t>> steal_iters;
  /// fault_steal_iters[thief][victim]: iterations reassigned from a
  /// failed processor's queue during fault recovery.
  std::vector<std::vector<std::int64_t>> fault_steal_iters;

  std::int64_t total_iterations = 0;      ///< sum of loop_begin n
  std::int64_t executed_iterations = 0;   ///< sum of chunk spans
  std::int64_t abandoned_iterations = 0;  ///< sum of abandoned records

  /// Affinity: of the iterations in epochs after the first, how many ran
  /// on the processor that executed them in the previous epoch.
  std::int64_t affine_iterations = 0;
  std::int64_t scored_iterations = 0;

  /// Fraction in [0,1]; 0 when no epoch had a predecessor to compare to.
  double affinity_score() const {
    return scored_iterations > 0
               ? static_cast<double>(affine_iterations) /
                     static_cast<double>(scored_iterations)
               : 0.0;
  }

  std::int64_t remote_steals() const;      ///< total remote-grab iterations
  std::int64_t fault_steals() const;       ///< total fault-recovery iterations

  /// Load imbalance over in-chunk time: max_p(exec) / mean_p(exec) - 1.
  /// 0 for a perfectly balanced run (or an empty one); the y-axis of the
  /// frontier_tradeoff curves, paired with affinity_score() as the x.
  double exec_imbalance() const;

  /// The trace conservation law: every iteration announced by a
  /// loop_begin is either narrated in a chunk or abandoned.
  bool conserved() const {
    return executed_iterations + abandoned_iterations == total_iterations;
  }
};

/// Analyzes a record stream one record at a time, yielding one
/// TraceAnalysis per run (a file normally holds a single run_begin..
/// run_end span, but the sink allows several back to back). Memory is
/// proportional to one epoch's chunk records, whatever sizes they claim.
/// add() throws std::runtime_error on records that violate the schema
/// (events outside a run, an out-of-range processor, a negative loop size
/// or an inverted [begin, end) range) or whose iteration counts overflow;
/// finish() throws when the last run has no run_end.
class TraceAnalyzer {
 public:
  void add(const TraceRecord& r);
  std::vector<TraceAnalysis> finish();

 private:
  /// One chunk's iterations, clipped to its loop, and who executed them.
  struct OwnedSpan {
    std::int64_t begin;
    std::int64_t end;
    int proc;
  };

  ProcBreakdown& proc_of(int proc);
  void score_span(const OwnedSpan& s);

  std::vector<TraceAnalysis> done_;
  TraceAnalysis run_;
  bool in_run_ = false;
  // Who executed which iterations, for the affinity score: the previous
  // epoch's chunk spans sorted by begin, the current epoch's in record
  // order.
  std::vector<OwnedSpan> prev_spans_;
  std::vector<OwnedSpan> cur_spans_;
  std::int64_t cur_n_ = 0;  // size of the current loop
};

/// A sink that analyzes its runs in memory as the simulator narrates
/// them — the record stream a .cctrace of the same runs decodes to — and
/// optionally tees every record into a .cctrace writer.
class TraceAnalysisSink final : public TraceRecordSink {
 public:
  explicit TraceAnalysisSink(BinaryTraceSink* tee = nullptr) : tee_(tee) {}

  void record(const TraceRecord& r) override {
    analyzer_.add(r);
    if (tee_ != nullptr) tee_->record(r);
  }
  std::vector<TraceAnalysis> finish() { return analyzer_.finish(); }

 private:
  TraceAnalyzer analyzer_;
  BinaryTraceSink* tee_;
};

/// TraceAnalyzer over a whole record sequence.
std::vector<TraceAnalysis> analyze_trace(
    const std::vector<TraceRecord>& records);

/// Convenience: analyze_trace over read_trace(path).
std::vector<TraceAnalysis> analyze_trace_file(const std::string& path);

}  // namespace afs
