#include "trace/analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/trace_reader.hpp"

namespace afs {
namespace {

/// Adds `v` to `acc`, rejecting (as a malformed trace) a sum that would
/// overflow: every count here is summed from decoded, untrusted fields.
void add_checked(std::int64_t& acc, std::int64_t v) {
  if (__builtin_add_overflow(acc, v, &acc))
    throw std::runtime_error("trace iteration counts overflow");
}

/// The iteration count of a grab or chunk record's [begin, end) range.
std::int64_t span_of(const TraceRecord& r) {
  if (r.begin < 0 || r.end < r.begin)
    throw std::runtime_error("trace " + std::string(to_string(r.ev)) +
                             " has an invalid range [" +
                             std::to_string(r.begin) + ", " +
                             std::to_string(r.end) + ")");
  return r.end - r.begin;
}

std::int64_t matrix_sum(const std::vector<std::vector<std::int64_t>>& m) {
  std::int64_t total = 0;
  for (const auto& row : m)
    for (std::int64_t v : row) add_checked(total, v);
  return total;
}

}  // namespace

std::int64_t TraceAnalysis::remote_steals() const {
  return matrix_sum(steal_iters);
}

std::int64_t TraceAnalysis::fault_steals() const {
  return matrix_sum(fault_steal_iters);
}

double TraceAnalysis::exec_imbalance() const {
  double sum = 0.0;
  double max = 0.0;
  for (const ProcBreakdown& pb : procs) {
    sum += pb.exec;
    max = std::max(max, pb.exec);
  }
  const double mean =
      procs.empty() ? 0.0 : sum / static_cast<double>(procs.size());
  return mean > 0.0 ? max / mean - 1.0 : 0.0;
}

ProcBreakdown& TraceAnalyzer::proc_of(int proc) {
  if (proc < 0 || proc >= static_cast<int>(run_.procs.size()))
    throw std::runtime_error("trace references processor " +
                             std::to_string(proc) + " of " +
                             std::to_string(run_.procs.size()));
  return run_.procs[static_cast<std::size_t>(proc)];
}

/// Scores `s` against the previous epoch's spans (sorted by begin, and
/// disjoint in any trace the simulator writes): its iterations that the
/// previous epoch also executed are scored, and those the same processor
/// executed are affine.
void TraceAnalyzer::score_span(const OwnedSpan& s) {
  auto it = std::upper_bound(
      prev_spans_.begin(), prev_spans_.end(), s.begin,
      [](std::int64_t b, const OwnedSpan& o) { return b < o.begin; });
  if (it != prev_spans_.begin()) --it;  // the span that may straddle s.begin
  for (; it != prev_spans_.end() && it->begin < s.end; ++it) {
    const std::int64_t overlap =
        std::min(it->end, s.end) - std::max(it->begin, s.begin);
    if (overlap <= 0) continue;
    add_checked(run_.scored_iterations, overlap);
    if (it->proc == s.proc) add_checked(run_.affine_iterations, overlap);
  }
}

void TraceAnalyzer::add(const TraceRecord& r) {
  if (r.ev == TraceEv::kRunBegin) {
    if (in_run_) throw std::runtime_error("run_begin inside an unfinished run");
    in_run_ = true;
    run_ = TraceAnalysis{};
    run_.machine = r.machine;
    run_.program = r.program;
    run_.scheduler = r.scheduler;
    run_.p = r.p;
    run_.procs.assign(static_cast<std::size_t>(std::max(r.p, 0)),
                      ProcBreakdown{});
    run_.steal_iters.assign(run_.procs.size(),
                            std::vector<std::int64_t>(run_.procs.size(), 0));
    run_.fault_steal_iters = run_.steal_iters;
    prev_spans_.clear();
    cur_spans_.clear();
    cur_n_ = 0;
    ++run_.records;
    return;
  }
  if (!in_run_)
    throw std::runtime_error("trace event " + std::string(to_string(r.ev)) +
                             " outside run_begin..run_end");
  ++run_.records;

  switch (r.ev) {
    case TraceEv::kLoopBegin: {
      if (r.n < 0)
        throw std::runtime_error("trace loop_begin announces " +
                                 std::to_string(r.n) + " iterations");
      ++run_.epochs;
      add_checked(run_.total_iterations, r.n);
      prev_spans_.swap(cur_spans_);
      std::sort(prev_spans_.begin(), prev_spans_.end(),
                [](const OwnedSpan& a, const OwnedSpan& b) {
                  return a.begin < b.begin;
                });
      cur_spans_.clear();
      cur_n_ = r.n;
      break;
    }
    case TraceEv::kGrab: {
      ProcBreakdown& pb = proc_of(r.proc);
      pb.sync += r.t1 - r.t0;
      if (r.kind == GrabKind::kRemote && r.queue >= 0 &&
          r.queue < static_cast<int>(run_.procs.size()))
        add_checked(run_.steal_iters[static_cast<std::size_t>(r.proc)]
                                    [static_cast<std::size_t>(r.queue)],
                    span_of(r));
      break;
    }
    case TraceEv::kChunk: {
      ProcBreakdown& pb = proc_of(r.proc);
      const std::int64_t iters = span_of(r);
      pb.exec += r.t1 - r.t0;
      add_checked(pb.iterations, iters);
      ++pb.chunks;
      add_checked(run_.executed_iterations, iters);
      const OwnedSpan s{r.begin, std::min(r.end, cur_n_), r.proc};
      if (s.begin < s.end) {
        score_span(s);
        cur_spans_.push_back(s);
      }
      break;
    }
    case TraceEv::kMiss:
    case TraceEv::kInval:
      proc_of(r.proc).memory += r.t1 - r.t0;
      break;
    case TraceEv::kStall:
      proc_of(r.proc).stall += r.t1 - r.t0;
      break;
    case TraceEv::kFaultSteal:
      if (r.proc >= 0 && r.proc < static_cast<int>(run_.procs.size()) &&
          r.queue >= 0 && r.queue < static_cast<int>(run_.procs.size()))
        add_checked(run_.fault_steal_iters[static_cast<std::size_t>(r.proc)]
                                          [static_cast<std::size_t>(r.queue)],
                    r.n);
      break;
    case TraceEv::kAbandoned:
      add_checked(run_.abandoned_iterations, r.n);
      break;
    case TraceEv::kRunEnd: {
      run_.makespan = r.t0;
      for (ProcBreakdown& pb : run_.procs)
        pb.idle = std::max(0.0, run_.makespan - pb.exec - pb.sync - pb.stall);
      in_run_ = false;
      done_.push_back(std::move(run_));
      run_ = TraceAnalysis{};
      break;
    }
    case TraceEv::kDone:
    case TraceEv::kLost:
    case TraceEv::kLoopEnd:
    case TraceEv::kBarrier:
      break;  // no aggregate beyond what the events above capture
    case TraceEv::kRunBegin:
      break;  // handled before the switch
  }
}

std::vector<TraceAnalysis> TraceAnalyzer::finish() {
  if (in_run_) throw std::runtime_error("trace ends without run_end");
  return std::move(done_);
}

std::vector<TraceAnalysis> analyze_trace(
    const std::vector<TraceRecord>& records) {
  TraceAnalyzer analyzer;
  for (const TraceRecord& r : records) analyzer.add(r);
  return analyzer.finish();
}

std::vector<TraceAnalysis> analyze_trace_file(const std::string& path) {
  return analyze_trace(read_trace(path));
}

}  // namespace afs
