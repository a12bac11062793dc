// The simulator's trace sink: a BinaryTraceSink attached to a run must
// narrate it completely (begin/end framing, every grab and miss), decode
// cleanly through TraceReader, and — critically — attaching it must not
// perturb the simulation itself.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "service/json.hpp"
#include "sim/machine_sim.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

std::vector<TraceRecord> decode(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

int count_with_ev(const std::vector<TraceRecord>& records, TraceEv ev) {
  int n = 0;
  for (const TraceRecord& r : records)
    if (r.ev == ev) ++n;
  return n;
}

TEST(TraceSink, StreamIsWellFormedAndComplete) {
  std::ostringstream out;
  BinaryTraceSink sink(out);

  SimOptions opts;
  opts.trace = &sink;
  MachineSim sim(iris(), opts);
  auto sched = make_scheduler("AFS");
  const SimResult r = sim.run(GaussKernel::program(32), *sched, 4);
  sink.finalize();

  const std::vector<TraceRecord> records = decode(out.str());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(static_cast<std::int64_t>(records.size()), sink.records_written());

  // Framing: exactly one run_begin / run_end, first and last.
  EXPECT_EQ(count_with_ev(records, TraceEv::kRunBegin), 1);
  EXPECT_EQ(count_with_ev(records, TraceEv::kRunEnd), 1);
  EXPECT_EQ(records.front().ev, TraceEv::kRunBegin);
  EXPECT_EQ(records.back().ev, TraceEv::kRunEnd);

  // Gauss on 32 rows has 31 epochs, each one loop.
  EXPECT_EQ(count_with_ev(records, TraceEv::kLoopBegin), 31);
  EXPECT_EQ(count_with_ev(records, TraceEv::kLoopEnd), 31);
  EXPECT_EQ(count_with_ev(records, TraceEv::kBarrier), 31);

  // Narration completeness: one grab record per scheduler grab, one miss
  // record per cache miss, one done record per processor per loop.
  const std::int64_t grabs = r.local_grabs + r.remote_grabs + r.central_grabs;
  EXPECT_EQ(count_with_ev(records, TraceEv::kGrab), grabs);
  EXPECT_EQ(count_with_ev(records, TraceEv::kMiss), r.misses);
  EXPECT_EQ(count_with_ev(records, TraceEv::kDone), 31 * 4);
}

TEST(TraceSink, TracingDoesNotPerturbTheRun) {
  auto run_once = [](MetricsSink* trace) {
    SimOptions opts;
    opts.trace = trace;
    MachineSim sim(ksr1(), opts);
    auto sched = make_scheduler("AFS");
    return sim.run(GaussKernel::program(64), *sched, 8);
  };
  std::ostringstream out;
  BinaryTraceSink sink(out);
  const SimResult traced = run_once(&sink);
  const SimResult plain = run_once(nullptr);

  EXPECT_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.busy, plain.busy);
  EXPECT_EQ(traced.sync, plain.sync);
  EXPECT_EQ(traced.comm, plain.comm);
  EXPECT_EQ(traced.idle, plain.idle);
  EXPECT_EQ(traced.misses, plain.misses);
  EXPECT_EQ(traced.units_transferred, plain.units_transferred);
  EXPECT_EQ(traced.local_grabs, plain.local_grabs);
  EXPECT_EQ(traced.remote_grabs, plain.remote_grabs);
  EXPECT_GT(sink.records_written(), 0);
}

TEST(TraceSink, SetTraceSinkAttachesAndDetaches) {
  std::ostringstream out;
  BinaryTraceSink sink(out);
  MachineSim sim(iris());
  auto sched = make_scheduler("GSS");

  sim.set_trace_sink(&sink);
  sim.run(GaussKernel::program(16), *sched, 2);
  const std::int64_t traced_records = sink.records_written();
  EXPECT_GT(traced_records, 0);

  sim.set_trace_sink(nullptr);
  auto sched2 = make_scheduler("GSS");
  sim.run(GaussKernel::program(16), *sched2, 2);
  EXPECT_EQ(sink.records_written(), traced_records);  // nothing new
}

TEST(TraceSink, PathConstructorRejectsUnwritableFile) {
  EXPECT_THROW(BinaryTraceSink("/nonexistent_dir_xyz/trace.cctrace"),
               std::runtime_error);
}

TEST(TraceSink, EscapesControlAndQuoteCharacters) {
  // Machine and program names are caller-supplied; their JSON rendering
  // (trace_report --jsonl) must stay one parseable line.
  std::ostringstream out;
  BinaryTraceSink sink(out);
  MachineConfig m = iris();
  m.name = "we\"ird\\na\tme\x01";
  sink.on_run_begin(m, "prog\nname", "sched", 2);
  sink.finalize();
  const std::vector<TraceRecord> records = decode(out.str());
  ASSERT_EQ(records.size(), 1u);

  const std::string line = trace_json(records[0]);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  service::JsonValue v;
  std::string error;
  ASSERT_TRUE(service::parse_json(line, v, error)) << error << ": " << line;
  ASSERT_NE(v.find("machine"), nullptr);
  EXPECT_EQ(v.find("machine")->string, m.name);
  ASSERT_NE(v.find("program"), nullptr);
  EXPECT_EQ(v.find("program")->string, "prog\nname");
}

}  // namespace
}  // namespace afs
