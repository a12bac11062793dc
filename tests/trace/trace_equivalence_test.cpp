// The trace subsystem's core property: a .cctrace and its JSON-lines
// rendering (`trace_report --jsonl`, i.e. trace_json) carry *identical*
// records — every line parses as strict JSON and rebuilds the decoded
// TraceRecord bit-exact, through every scheduler family and under
// kitchen-sink fault injection. On top of the decoded stream this file
// also checks the trace conservation law (narrated + abandoned ==
// announced) and the paper's headline observable: AFS keeps a far higher
// epoch-to-epoch affinity score than central-queue self-scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "service/json.hpp"
#include "sim/machine_sim.hpp"
#include "sim/perturbation.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

MachineConfig quiet(MachineConfig m) {
  m.epoch_jitter = 0.0;
  return m;
}

/// Every fault family at once (mirrors the batching-equivalence test's
/// kitchen sink): deaths mid-chunk, link bursts, memory spikes, stalls —
/// so lost / fault_steal / abandoned / stall records are all exercised.
PerturbationConfig kitchen_sink() {
  PerturbationConfig pc;
  pc.seed = 2026;
  pc.stall_mean_interval = 3000.0;
  pc.stall_duration = 250.0;
  pc.losses.push_back({1, 2000.0});  // early enough to hit small test runs
  pc.mem_spike_prob = 0.1;
  pc.mem_spike_latency = 80.0;
  pc.burst_mean_interval = 8000.0;
  pc.burst_duration = 1500.0;
  pc.burst_multiplier = 3.0;
  return pc;
}

void run_traced(const MachineConfig& m, const LoopProgram& prog,
                const std::string& spec, int p, MetricsSink& sink,
                const PerturbationConfig* pc) {
  SimOptions opts;
  opts.trace = &sink;
  if (pc != nullptr) opts.perturb = *pc;
  MachineSim sim(m, opts);
  auto sched = make_scheduler(spec);
  sim.run(prog, *sched, p);
}

std::vector<TraceRecord> decode(std::istringstream in) {
  TraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

/// Rebuilds a TraceRecord from one parsed JSON line, reading exactly the
/// keys docs/SIMULATOR.md ("Trace schema") documents for its event.
TraceRecord record_from_json(const service::JsonValue& v) {
  const auto field = [&v](const char* key) -> const service::JsonValue& {
    static const service::JsonValue missing;
    const service::JsonValue* f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing key " << key;
    return f != nullptr ? *f : missing;
  };
  const auto str = [&](const char* key) { return field(key).string; };
  const auto real = [&](const char* key) { return field(key).number; };
  const auto i64 = [&](const char* key) {
    return static_cast<std::int64_t>(field(key).number);
  };
  const auto i32 = [&](const char* key) {
    return static_cast<int>(field(key).number);
  };

  TraceRecord r;
  const std::string ev = str("ev");
  for (int e = static_cast<int>(TraceEv::kRunBegin);
       e <= static_cast<int>(TraceEv::kRunEnd); ++e)
    if (ev == to_string(static_cast<TraceEv>(e))) r.ev = static_cast<TraceEv>(e);
  EXPECT_EQ(ev, to_string(r.ev)) << "unknown ev";
  switch (r.ev) {
    case TraceEv::kRunBegin:
      r.machine = str("machine");
      r.program = str("program");
      r.scheduler = str("scheduler");
      r.p = i32("p");
      break;
    case TraceEv::kLoopBegin:
      r.epoch = i32("epoch");
      r.n = i64("n");
      r.p = i32("p");
      break;
    case TraceEv::kGrab: {
      r.proc = i32("proc");
      const std::string kind = str("kind");
      for (GrabKind k : {GrabKind::kNone, GrabKind::kCentral, GrabKind::kLocal,
                         GrabKind::kRemote, GrabKind::kStatic})
        if (kind == to_string(k)) r.kind = k;
      r.queue = i32("queue");
      r.begin = i64("begin");
      r.end = i64("end");
      r.t0 = real("t0");
      r.t1 = real("t1");
      break;
    }
    case TraceEv::kChunk:
      r.proc = i32("proc");
      r.begin = i64("begin");
      r.end = i64("end");
      r.t0 = real("t0");
      r.t1 = real("t1");
      break;
    case TraceEv::kMiss:
      r.proc = i32("proc");
      r.block = i64("block");
      r.size = real("size");
      r.t0 = real("t0");
      r.t1 = real("t1");
      break;
    case TraceEv::kInval:
      r.proc = i32("proc");
      r.block = i64("block");
      r.copies = i32("copies");
      r.t0 = real("t0");
      r.t1 = real("t1");
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      r.proc = i32("proc");
      r.t0 = real("t");
      break;
    case TraceEv::kStall:
      r.proc = i32("proc");
      r.t0 = real("t0");
      r.t1 = real("t1");
      break;
    case TraceEv::kFaultSteal:
      r.proc = i32("proc");
      r.queue = i32("queue");
      r.n = i64("iters");
      break;
    case TraceEv::kAbandoned:
      r.n = i64("iters");
      break;
    case TraceEv::kLoopEnd:
      r.epoch = i32("epoch");
      r.t0 = real("end");
      break;
    case TraceEv::kBarrier:
      r.epoch = i32("epoch");
      r.size = real("cost");
      r.t0 = real("total");
      break;
    case TraceEv::kRunEnd:
      r.t0 = real("makespan");
      break;
  }
  return r;
}

/// Checks that `line` is one strict JSON object holding exactly `want`:
/// every documented field equal, and nothing else (re-rendering the
/// rebuilt record reproduces the line byte for byte).
void expect_line_matches(const std::string& line, const TraceRecord& want,
                         const std::string& label) {
  service::JsonValue v;
  std::string error;
  ASSERT_TRUE(service::parse_json(line, v, error))
      << label << ": " << error << ": " << line;
  ASSERT_TRUE(v.is_object()) << label << ": " << line;
  const TraceRecord got = record_from_json(v);
  EXPECT_EQ(got, want) << label << ": " << line;
  EXPECT_EQ(trace_json(got), line) << label;
}

/// Runs one deterministic cell through the binary sink and returns the
/// decoded records after asserting that each one's JSON line parses back
/// to the identical record.
std::vector<TraceRecord> check_equivalence(const MachineConfig& m,
                                           const LoopProgram& prog,
                                           const std::string& spec, int p,
                                           const PerturbationConfig* pc) {
  std::ostringstream binary_out;
  {
    BinaryTraceSink binary(binary_out);
    run_traced(m, prog, spec, p, binary, pc);
  }
  std::vector<TraceRecord> records =
      decode(std::istringstream(binary_out.str()));

  const std::string label = m.name + "/" + spec + "/" + prog.name +
                            "/P=" + std::to_string(p);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string line = trace_json(records[i]);
    expect_line_matches(line, records[i],
                        label + ": record " + std::to_string(i));
    if (::testing::Test::HasFailure()) break;  // one mismatch is enough
  }
  return records;
}

void expect_conserved(const std::vector<TraceRecord>& records,
                      const std::string& spec) {
  for (const TraceAnalysis& a : analyze_trace(records)) {
    EXPECT_TRUE(a.conserved())
        << spec << ": " << a.executed_iterations << " executed + "
        << a.abandoned_iterations << " abandoned != " << a.total_iterations
        << " announced";
  }
}

TEST(TraceEquivalence, AllPaperSchedulersDecodeIdentically) {
  const MachineConfig m = quiet(iris());
  const LoopProgram prog = GaussKernel::program(48);
  for (const std::string& spec : paper_scheduler_specs()) {
    const std::vector<TraceRecord> records =
        check_equivalence(m, prog, spec, 4, nullptr);
    ASSERT_FALSE(records.empty()) << spec;
    EXPECT_EQ(records.front().ev, TraceEv::kRunBegin) << spec;
    EXPECT_EQ(records.back().ev, TraceEv::kRunEnd) << spec;
    expect_conserved(records, spec);
  }
}

TEST(TraceEquivalence, KitchenSinkPerturbationsDecodeIdentically) {
  const PerturbationConfig pc = kitchen_sink();
  const MachineConfig m = quiet(ksr1());
  const LoopProgram prog = SorKernel::program(48, 4);
  for (const char* spec : {"AFS", "GSS", "STATIC", "SS"}) {
    const std::vector<TraceRecord> records =
        check_equivalence(m, prog, spec, 8, &pc);

    // The kitchen sink must actually exercise the fault records, or this
    // test silently stops covering them.
    bool saw_stall = false, saw_lost = false;
    for (const TraceRecord& r : records) {
      saw_stall |= r.ev == TraceEv::kStall;
      saw_lost |= r.ev == TraceEv::kLost;
    }
    EXPECT_TRUE(saw_stall) << spec;
    EXPECT_TRUE(saw_lost) << spec;

    // Conservation law, through the binary reader: every announced
    // iteration is either narrated in a chunk or abandoned.
    expect_conserved(records, spec);
  }
}

TEST(TraceEquivalence, AffinitySchedulingScoresAboveSelfScheduling) {
  // The paper's mechanism, quantified: on a cache-friendly SOR sweep at
  // P=8, AFS re-executes almost every iteration on its previous-epoch
  // owner, while central-queue self-scheduling scatters them. Keep the
  // machine's natural epoch jitter: with perfectly synchronized epochs a
  // deterministic central queue replays the same assignment every epoch
  // and scores a (meaningless) 1.0.
  const MachineConfig m = iris();
  const LoopProgram prog = SorKernel::program(64, 6);

  const auto score = [&](const char* spec) {
    std::ostringstream out;
    double result = 0.0;
    {
      BinaryTraceSink sink(out);
      run_traced(m, prog, spec, 8, sink, nullptr);
    }
    const auto runs = analyze_trace(decode(std::istringstream(out.str())));
    EXPECT_EQ(runs.size(), 1u) << spec;
    for (const TraceAnalysis& a : runs) {
      EXPECT_GT(a.scored_iterations, 0) << spec;
      result = a.affinity_score();
    }
    return result;
  };

  const double afs = score("AFS");
  const double ss = score("SS");
  EXPECT_GT(afs, 0.8);
  EXPECT_GT(afs, ss);
}

TEST(TraceReport, JsonlPrintsOneParseableLinePerRecord) {
  // The real tool on a real file: a fault-injected SOR/AFS run, so every
  // event type the engine narrates under faults is in the dump.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "afs_trace_jsonl_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "sor.p8.AFS.cctrace").string();
  {
    BinaryTraceSink sink(path);
    const PerturbationConfig pc = kitchen_sink();
    run_traced(quiet(ksr1()), SorKernel::program(48, 4), "AFS", 8, sink, &pc);
    sink.finalize();
  }
  const std::vector<TraceRecord> records = read_trace(path);
  ASSERT_FALSE(records.empty());

  const std::string cmd =
      std::string(AFS_TRACE_REPORT) + " --jsonl '" + path + "'";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string output;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    output.append(buf, n);
  EXPECT_EQ(::pclose(pipe), 0) << cmd;

  ASSERT_FALSE(output.empty());
  EXPECT_EQ(output.back(), '\n');
  std::vector<std::string> lines;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), records.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expect_line_matches(lines[i], records[i], "line " + std::to_string(i));
    if (HasFailure()) break;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace afs
