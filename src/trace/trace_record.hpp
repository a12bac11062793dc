// The trace subsystem's shared record model.
//
// A simulator trace is a sequence of TraceRecords, one per narrated
// MetricsSink event. BinaryTraceSink (trace/binary_sink.hpp) writes them
// as a compact .cctrace file; TraceReader (trace/trace_reader.hpp)
// decodes the file back into TraceRecords, so every consumer (analysis,
// the Gantt renderer, trace_report and its --jsonl dump) works on the
// same decoded records.
#pragma once

#include <cstdint>
#include <string>

#include "sched/grab.hpp"

namespace afs {

/// Per-cell trace path: `<out_dir>/<id>.p<P>.<sched>.cctrace` with the
/// scheduler label sanitized to a file-name-safe set (alnum,
/// '-', '.'; everything else becomes '_'). One file per (scheduler, P)
/// sweep cell is what lets --trace compose with --jobs=N: each cell owns
/// its writer, so parallel cells never interleave records.
inline std::string trace_cell_path(const std::string& out_dir,
                                   const std::string& id,
                                   const std::string& label, int procs) {
  std::string safe;
  safe.reserve(label.size());
  for (char c : label)
    safe += ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
             (c >= 'A' && c <= 'Z') || c == '-' || c == '.')
                ? c
                : '_';
  return out_dir + "/" + id + ".p" + std::to_string(procs) + "." + safe +
         ".cctrace";
}

/// Event discriminator. Values are also the binary opcodes (opcode 0 is
/// reserved for string definitions), so they are part of the .cctrace
/// format and must never be renumbered — add new events at the end.
enum class TraceEv : std::uint8_t {
  kRunBegin = 1,
  kLoopBegin = 2,
  kGrab = 3,
  kChunk = 4,
  kMiss = 5,
  kInval = 6,
  kDone = 7,
  kStall = 8,
  kLost = 9,
  kFaultSteal = 10,
  kAbandoned = 11,
  kLoopEnd = 12,
  kBarrier = 13,
  kRunEnd = 14,
};

constexpr const char* to_string(TraceEv ev) {
  switch (ev) {
    case TraceEv::kRunBegin: return "run_begin";
    case TraceEv::kLoopBegin: return "loop_begin";
    case TraceEv::kGrab: return "grab";
    case TraceEv::kChunk: return "chunk";
    case TraceEv::kMiss: return "miss";
    case TraceEv::kInval: return "inval";
    case TraceEv::kDone: return "done";
    case TraceEv::kStall: return "stall";
    case TraceEv::kLost: return "lost";
    case TraceEv::kFaultSteal: return "fault_steal";
    case TraceEv::kAbandoned: return "abandoned";
    case TraceEv::kLoopEnd: return "loop_end";
    case TraceEv::kBarrier: return "barrier";
    case TraceEv::kRunEnd: return "run_end";
  }
  return "?";
}

/// One decoded trace event. Only the fields of the event's type are
/// meaningful; every other field keeps its default, so whole-record
/// equality (used by the round-trip tests) is well defined. Field
/// mapping per event (the JSON keys trace_report --jsonl prints are in
/// docs/SIMULATOR.md, "Trace schema"):
///
///   run_begin   machine, program, scheduler, p
///   loop_begin  epoch, n, p
///   grab        proc, kind, queue, begin, end, t0, t1
///   chunk       proc, begin, end, t0, t1
///   miss        proc, block, size, t0, t1
///   inval       proc, block, copies, t0, t1
///   done        proc, t0 (= t)
///   stall       proc, t0, t1
///   lost        proc, t0 (= t)
///   fault_steal proc (thief), queue (victim), n (iters)
///   abandoned   n (iters)
///   loop_end    epoch, t0 (= end)
///   barrier     epoch, size (= cost), t0 (= total)
///   run_end     t0 (= makespan)
struct TraceRecord {
  TraceEv ev = TraceEv::kRunBegin;
  std::string machine{};  // braced: designated initializers may omit them
  std::string program{};
  std::string scheduler{};
  int p = 0;
  int epoch = 0;
  int proc = 0;
  GrabKind kind = GrabKind::kNone;
  int queue = 0;
  int copies = 0;
  std::int64_t n = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t block = 0;
  double size = 0.0;
  double t0 = 0.0;
  double t1 = 0.0;

  bool operator==(const TraceRecord&) const = default;
};

}  // namespace afs
