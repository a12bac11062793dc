// BinaryTraceSink + TraceReader: the .cctrace encoding must round-trip
// every event type and field bit-exactly (including negative queue
// indexes, repeated strings, and extreme doubles), publish files
// atomically, and reject malformed input loudly instead of decoding
// garbage — including under a fixed-seed mutation fuzz of real traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/sor.hpp"
#include "machines/machine_config.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_record.hpp"
#include "util/rng.hpp"
#include "workload/loop_spec.hpp"

namespace afs {
namespace {

MachineConfig machine(const std::string& name) {
  MachineConfig m;
  m.name = name;
  return m;
}

std::vector<TraceRecord> decode(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

/// Narrates one synthetic run exercising every event type and some
/// hostile field values; returns the records the reader should yield.
std::vector<TraceRecord> narrate_kitchen_sink(MetricsSink& sink) {
  std::vector<TraceRecord> want;
  const auto add = [&want](TraceRecord r) { want.push_back(std::move(r)); };

  sink.on_run_begin(machine("m/с✓"), "prog \"q\"", "AFS", 3);
  add({.ev = TraceEv::kRunBegin, .machine = "m/с✓", .program = "prog \"q\"",
       .scheduler = "AFS", .p = 3});

  sink.on_loop_begin(0, 100, 3);
  add({.ev = TraceEv::kLoopBegin, .p = 3, .epoch = 0, .n = 100});

  Grab g;
  g.range = {0, 40};
  g.kind = GrabKind::kStatic;
  g.queue = -1;  // static grabs touch no queue: negative must survive
  sink.on_grab(0, g, 0.0, 1.5);
  add({.ev = TraceEv::kGrab, .proc = 0, .kind = GrabKind::kStatic,
       .queue = -1, .begin = 0, .end = 40, .t0 = 0.0, .t1 = 1.5});

  sink.on_chunk(0, 0, 40, 1.5, 101.25);
  add({.ev = TraceEv::kChunk, .proc = 0, .begin = 0, .end = 40, .t0 = 1.5,
       .t1 = 101.25});

  BlockAccess a;
  a.block = 7;
  a.size = 16.0;
  sink.on_miss(0, a, 2.0, 18.0);
  add({.ev = TraceEv::kMiss, .proc = 0, .block = 7, .size = 16.0, .t0 = 2.0,
       .t1 = 18.0});

  sink.on_invalidate(1, 7, 2, 18.0, 20.0);
  add({.ev = TraceEv::kInval, .proc = 1, .copies = 2, .block = 7, .t0 = 18.0,
       .t1 = 20.0});

  sink.on_stall(2, 30.0, 30.0625);
  add({.ev = TraceEv::kStall, .proc = 2, .t0 = 30.0, .t1 = 30.0625});

  sink.on_proc_lost(2, 55.5);
  add({.ev = TraceEv::kLost, .proc = 2, .t0 = 55.5});

  sink.on_fault_steal(1, 2, 17);
  add({.ev = TraceEv::kFaultSteal, .proc = 1, .queue = 2, .n = 17});

  sink.on_abandoned(43);
  add({.ev = TraceEv::kAbandoned, .n = 43});

  sink.on_proc_done(0, 101.25);
  add({.ev = TraceEv::kDone, .proc = 0, .t0 = 101.25});

  sink.on_loop_end(0, 103.0);
  add({.ev = TraceEv::kLoopEnd, .epoch = 0, .t0 = 103.0});

  // A hostile double: non-round, many significant bits.
  const double cost = 0.1 + 1e-13;
  sink.on_barrier(0, cost, 103.0 + cost);
  add({.ev = TraceEv::kBarrier, .epoch = 0, .size = cost,
       .t0 = 103.0 + cost});

  sink.on_run_end(1e300);
  add({.ev = TraceEv::kRunEnd, .t0 = 1e300});

  // Second run in the same file: strings already interned, XOR registers
  // carry over — both must still decode exactly.
  sink.on_run_begin(machine("m/с✓"), "prog \"q\"", "SS", 2);
  add({.ev = TraceEv::kRunBegin, .machine = "m/с✓", .program = "prog \"q\"",
       .scheduler = "SS", .p = 2});
  sink.on_run_end(std::numeric_limits<double>::min());
  add({.ev = TraceEv::kRunEnd, .t0 = std::numeric_limits<double>::min()});

  return want;
}

TEST(BinaryTraceSink, KitchenSinkRoundTripsExactly) {
  std::ostringstream out;
  BinaryTraceSink sink(out);
  const std::vector<TraceRecord> want = narrate_kitchen_sink(sink);
  sink.finalize();

  const std::string bytes = out.str();
  ASSERT_GE(bytes.size(), sizeof BinaryTraceSink::kMagic);
  EXPECT_EQ(bytes.compare(0, 4, "CCTR"), 0);
  EXPECT_EQ(bytes[4], 1);  // version

  const std::vector<TraceRecord> got = decode(bytes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "record " << i << " ("
                               << to_string(want[i].ev) << ")";
  EXPECT_EQ(sink.records_written(), static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(sink.bytes_written(), static_cast<std::int64_t>(bytes.size()));
}

TEST(BinaryTraceSink, GrabKindsAndLargeValuesRoundTrip) {
  std::ostringstream out;
  BinaryTraceSink sink(out);
  sink.on_run_begin(machine("m"), "p", "s", 2);
  const std::int64_t big = std::int64_t{1} << 60;
  int proc = 0;
  for (GrabKind k : {GrabKind::kNone, GrabKind::kCentral, GrabKind::kLocal,
                     GrabKind::kRemote, GrabKind::kStatic}) {
    Grab g;
    g.range = {big, big + 1000};
    g.kind = k;
    g.queue = proc % 2 ? -1 : proc;
    sink.on_grab(proc, g, 1.0 * proc, 1.0 * proc + 0.5);
    ++proc;
  }
  sink.on_run_end(5.0);
  sink.finalize();

  const std::vector<TraceRecord> got = decode(out.str());
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[1].kind, GrabKind::kNone);
  EXPECT_EQ(got[3].kind, GrabKind::kLocal);
  EXPECT_EQ(got[4].kind, GrabKind::kRemote);
  EXPECT_EQ(got[5].kind, GrabKind::kStatic);
  EXPECT_EQ(got[2].begin, big);
  EXPECT_EQ(got[2].end, big + 1000);
  EXPECT_EQ(got[2].queue, -1);  // proc 1: odd procs grabbed with queue -1
}

TEST(TraceReader, RejectsMalformedInput) {
  {  // empty
    std::istringstream in("");
    EXPECT_THROW(TraceReader r(in), std::runtime_error);
  }
  {  // bad magic
    std::istringstream in("CCTX\x01\x00\x00\x00");
    EXPECT_THROW(TraceReader r(in), std::runtime_error);
  }
  {  // future version byte
    std::istringstream in(std::string("CCTR\x09\x00\x00\x00", 8));
    EXPECT_THROW(TraceReader r(in), std::runtime_error);
  }
  {  // unknown opcode after a valid header
    std::string bytes("CCTR\x01\x00\x00\x00", 8);
    bytes.push_back(static_cast<char>(0x7f));
    std::istringstream in(bytes);
    TraceReader r(in);
    TraceRecord rec;
    EXPECT_THROW(r.next(rec), std::runtime_error);
  }
  {  // record truncated mid-field
    std::ostringstream out;
    BinaryTraceSink sink(out);
    sink.on_run_begin(machine("m"), "p", "s", 2);
    sink.on_run_end(10.0);
    sink.finalize();
    const std::string whole = out.str();
    std::istringstream in(whole.substr(0, whole.size() - 1));
    TraceReader r(in);
    TraceRecord rec;
    EXPECT_TRUE(r.next(rec));  // run_begin still intact
    EXPECT_THROW(r.next(rec), std::runtime_error);
  }
  {  // dangling string reference: run_begin body referencing id 9
    std::string bytes("CCTR\x01\x00\x00\x00", 8);
    bytes.push_back(static_cast<char>(TraceEv::kRunBegin));
    bytes.push_back(9);  // machine id never defined
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(2);
    std::istringstream in(bytes);
    TraceReader r(in);
    TraceRecord rec;
    EXPECT_THROW(r.next(rec), std::runtime_error);
  }
  // A processor count outside 1..64 in run_begin or loop_begin: a 20-byte
  // file announcing P=4096 must not make analyze_trace allocate P x P
  // steal matrices.
  const auto with_procs = [](TraceEv ev, std::uint64_t p) {
    std::string bytes("CCTR\x01\x00\x00\x00", 8);
    bytes += std::string("\x00\x00\x01m", 4);  // string 0 = "m"
    if (ev == TraceEv::kLoopBegin) {
      bytes.push_back(static_cast<char>(TraceEv::kRunBegin));
      bytes += std::string("\x00\x00\x00\x02", 4);  // m, m, m, P=2
    }
    bytes.push_back(static_cast<char>(ev));
    if (ev == TraceEv::kRunBegin)
      bytes += std::string("\x00\x00\x00", 3);  // machine, program, sched
    else
      bytes += std::string("\x00\x0a", 2);  // epoch 0, n = 10
    for (; p >= 0x80; p >>= 7)
      bytes.push_back(static_cast<char>((p & 0x7f) | 0x80));
    bytes.push_back(static_cast<char>(p));
    return bytes;
  };
  for (TraceEv ev : {TraceEv::kRunBegin, TraceEv::kLoopBegin}) {
    for (std::uint64_t p : {std::uint64_t{0}, std::uint64_t{65},
                            std::uint64_t{4096}, std::uint64_t{1} << 40}) {
      std::istringstream in(with_procs(ev, p));
      TraceReader r(in);
      TraceRecord rec;
      if (ev == TraceEv::kLoopBegin) {
        ASSERT_TRUE(r.next(rec));  // the run_begin before it
      }
      try {
        r.next(rec);
        ADD_FAILURE() << to_string(ev) << " accepted P=" << p;
      } catch (const std::runtime_error& e) {
        // The reader's record-indexed error names the record.
        EXPECT_NE(std::string(e.what()).find(
                      "record " +
                      std::to_string(ev == TraceEv::kLoopBegin ? 1 : 0)),
                  std::string::npos)
            << e.what();
      }
    }
    const std::vector<TraceRecord> ok = decode(with_procs(ev, 64));
    ASSERT_FALSE(ok.empty());  // the machine cap itself is fine
    EXPECT_EQ(ok.back().p, 64);
  }
  {  // an int field above INT_MAX: a chunk's proc of 2^31
    std::string bytes("CCTR\x01\x00\x00\x00", 8);
    bytes.push_back(static_cast<char>(TraceEv::kChunk));
    bytes += std::string("\x80\x80\x80\x80\x08", 5);  // proc = 2^31
    bytes += std::string("\x00\x02\x00\x00", 4);  // begin, end, t0, t1
    std::istringstream in(bytes);
    TraceReader r(in);
    TraceRecord rec;
    EXPECT_THROW(r.next(rec), std::runtime_error);
  }
}

/// Decodes and analyzes `bytes`. A mutant may decode or not, but it may
/// fail only with the reader's or the analysis's std::runtime_error — no
/// other exception, and (under the sanitizers) no memory error or UB.
bool decodes_and_analyzes(const std::string& bytes) {
  try {
    analyze_trace(decode(bytes));
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(TraceReader, SurvivesMutatedTraces) {
  // Two seeds: the synthetic kitchen sink (every event type, hostile
  // values) and a real SOR/AFS trace (long XOR-chained time fields).
  std::vector<std::string> seeds;
  {
    std::ostringstream out;
    BinaryTraceSink sink(out);
    narrate_kitchen_sink(sink);
    sink.finalize();
    seeds.push_back(out.str());
  }
  {
    std::ostringstream out;
    BinaryTraceSink sink(out);
    SimOptions opts;
    opts.trace = &sink;
    MachineSim sim(iris(), opts);
    auto sched = make_scheduler("AFS");
    sim.run(SorKernel::program(32, 3), *sched, 4);
    sink.finalize();
    seeds.push_back(out.str());
  }
  for (const std::string& seed : seeds) ASSERT_TRUE(decodes_and_analyzes(seed));

  XorShift64 rng(0x5eed7ace);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = seeds[static_cast<std::size_t>(round) % seeds.size()];
    const int mutations = 1 + static_cast<int>(below(3));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      switch (below(3)) {
        case 0:  // flip some bits of one byte
          bytes[below(bytes.size())] ^= static_cast<char>(1 + below(255));
          break;
        case 1:  // truncate
          bytes.resize(below(bytes.size()));
          break;
        default: {  // insert random bytes
          std::string junk(1 + below(8), '\0');
          for (char& c : junk) c = static_cast<char>(below(256));
          bytes.insert(below(bytes.size() + 1), junk);
          break;
        }
      }
    }
    if (!decodes_and_analyzes(bytes)) ++rejected;
  }
  EXPECT_GT(rejected, 500);  // the mutator really is hostile
}

/// Temp files of `path` (named `<path>.tmp.<writer>`) in its directory.
int temp_files_of(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp";
  int n = 0;
  for (const auto& e : std::filesystem::directory_iterator(p.parent_path()))
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(BinaryTraceSink, FinalizePublishesAtomicallyAbandonDiscards) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "afs_cctrace_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "cell.cctrace").string();

  {
    BinaryTraceSink sink(path);
    sink.on_run_begin(machine("m"), "p", "s", 1);
    // While streaming, only the temp file exists: a crash mid-run can
    // never leave a half-written published trace behind.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(temp_files_of(path), 1);
    sink.on_run_end(1.0);
    sink.finalize();
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_EQ(temp_files_of(path), 0);
  }
  const std::vector<TraceRecord> got = read_trace(path);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].ev, TraceEv::kRunBegin);
  EXPECT_EQ(got[1].ev, TraceEv::kRunEnd);

  const std::string dropped = (dir / "dropped.cctrace").string();
  {
    BinaryTraceSink sink(dropped);
    sink.on_run_begin(machine("m"), "p", "s", 1);
    sink.abandon();
  }
  EXPECT_FALSE(std::filesystem::exists(dropped));
  EXPECT_EQ(temp_files_of(dropped), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace afs
