// analyze_trace on hand-built record sequences: the arithmetic of the
// per-processor breakdown, the steal matrix, the affinity score, and the
// conservation law are all small enough to verify against pencil-and-
// paper numbers; schema violations must throw rather than mis-aggregate.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_record.hpp"
#include "workload/graphs.hpp"

namespace afs {
namespace {

TraceRecord run_begin(int p) {
  return {.ev = TraceEv::kRunBegin, .machine = "m", .program = "prog",
          .scheduler = "X", .p = p};
}
TraceRecord loop_begin(int epoch, std::int64_t n, int p) {
  return {.ev = TraceEv::kLoopBegin, .p = p, .epoch = epoch, .n = n};
}
TraceRecord grab(int proc, GrabKind kind, int queue, std::int64_t b,
                 std::int64_t e, double t0, double t1) {
  return {.ev = TraceEv::kGrab, .proc = proc, .kind = kind, .queue = queue,
          .begin = b, .end = e, .t0 = t0, .t1 = t1};
}
TraceRecord chunk(int proc, std::int64_t b, std::int64_t e, double t0,
                  double t1) {
  return {.ev = TraceEv::kChunk, .proc = proc, .begin = b, .end = e,
          .t0 = t0, .t1 = t1};
}
TraceRecord loop_end(int epoch, double end) {
  return {.ev = TraceEv::kLoopEnd, .epoch = epoch, .t0 = end};
}
TraceRecord run_end(double makespan) {
  return {.ev = TraceEv::kRunEnd, .t0 = makespan};
}

TEST(TraceAnalysis, BreakdownArithmetic) {
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      grab(0, GrabKind::kLocal, 0, 0, 6, 0.0, 1.0),
      chunk(0, 0, 6, 1.0, 13.0),
      {.ev = TraceEv::kMiss, .proc = 0, .block = 3, .size = 4.0, .t0 = 2.0,
       .t1 = 5.0},
      grab(1, GrabKind::kCentral, 0, 6, 10, 0.0, 2.0),
      chunk(1, 6, 10, 2.0, 10.0),
      {.ev = TraceEv::kStall, .proc = 1, .t0 = 10.0, .t1 = 14.0},
      loop_end(0, 14.0),
      run_end(20.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();

  EXPECT_EQ(a.scheduler, "X");
  EXPECT_EQ(a.p, 2);
  EXPECT_EQ(a.epochs, 1);
  EXPECT_DOUBLE_EQ(a.makespan, 20.0);

  ASSERT_EQ(a.procs.size(), 2u);
  EXPECT_DOUBLE_EQ(a.procs[0].exec, 12.0);
  EXPECT_DOUBLE_EQ(a.procs[0].memory, 3.0);
  EXPECT_DOUBLE_EQ(a.procs[0].busy(), 9.0);
  EXPECT_DOUBLE_EQ(a.procs[0].sync, 1.0);
  EXPECT_DOUBLE_EQ(a.procs[0].idle, 20.0 - 12.0 - 1.0);
  EXPECT_EQ(a.procs[0].iterations, 6);
  EXPECT_EQ(a.procs[0].chunks, 1);

  EXPECT_DOUBLE_EQ(a.procs[1].exec, 8.0);
  EXPECT_DOUBLE_EQ(a.procs[1].sync, 2.0);
  EXPECT_DOUBLE_EQ(a.procs[1].stall, 4.0);
  EXPECT_DOUBLE_EQ(a.procs[1].idle, 20.0 - 8.0 - 2.0 - 4.0);

  EXPECT_EQ(a.total_iterations, 10);
  EXPECT_EQ(a.executed_iterations, 10);
  EXPECT_EQ(a.abandoned_iterations, 0);
  EXPECT_TRUE(a.conserved());
  // Single epoch: nothing has a previous-epoch owner yet.
  EXPECT_EQ(a.scored_iterations, 0);
  EXPECT_DOUBLE_EQ(a.affinity_score(), 0.0);
}

TEST(TraceAnalysis, ExecImbalanceIsMaxOverMeanMinusOne) {
  // P0 executes for 12, P1 for 8: mean 10, max 12 -> imbalance 0.2.
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 6, 0.0, 12.0),
      chunk(1, 6, 10, 0.0, 8.0),
      loop_end(0, 12.0),
      run_end(12.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs.front().exec_imbalance(), 0.2);

  // Perfect balance scores exactly 0.
  std::vector<TraceRecord> even = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 5, 0.0, 7.0),
      chunk(1, 5, 10, 0.0, 7.0),
      loop_end(0, 7.0),
      run_end(7.0),
  };
  EXPECT_DOUBLE_EQ(analyze_trace(even).front().exec_imbalance(), 0.0);

  // An empty analysis (no procs) is defined as balanced, not NaN.
  EXPECT_DOUBLE_EQ(TraceAnalysis{}.exec_imbalance(), 0.0);
}

TEST(TraceAnalysis, AffinityScoreCountsPreviousEpochOwners) {
  // Epoch 0: P0 runs [0,6), P1 runs [6,10).
  // Epoch 1: P0 runs [0,8), P1 runs [8,10) — P0 keeps its 6, steals 2 of
  // P1's; P1 keeps 2. Affine = 8 of 10 scored.
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 6, 0.0, 6.0),
      chunk(1, 6, 10, 0.0, 4.0),
      loop_end(0, 6.0),
      loop_begin(1, 10, 2),
      chunk(0, 0, 8, 6.0, 14.0),
      chunk(1, 8, 10, 6.0, 8.0),
      loop_end(1, 14.0),
      run_end(14.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();
  EXPECT_EQ(a.scored_iterations, 10);
  EXPECT_EQ(a.affine_iterations, 8);
  EXPECT_DOUBLE_EQ(a.affinity_score(), 0.8);
}

TEST(TraceAnalysis, StealMatrixFromRemoteGrabsAndFaultSteals) {
  std::vector<TraceRecord> recs = {
      run_begin(3),
      loop_begin(0, 30, 3),
      grab(2, GrabKind::kRemote, 0, 0, 5, 0.0, 1.0),  // P2 steals 5 from P0
      chunk(2, 0, 5, 1.0, 6.0),
      grab(2, GrabKind::kRemote, 1, 10, 12, 6.0, 7.0),  // and 2 from P1
      chunk(2, 10, 12, 7.0, 9.0),
      chunk(0, 5, 10, 0.0, 5.0),
      chunk(1, 12, 20, 0.0, 8.0),
      {.ev = TraceEv::kFaultSteal, .proc = 0, .queue = 2, .n = 7},
      chunk(0, 20, 27, 5.0, 12.0),
      {.ev = TraceEv::kAbandoned, .n = 3},
      loop_end(0, 12.0),
      run_end(12.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();

  EXPECT_EQ(a.steal_iters[2][0], 5);
  EXPECT_EQ(a.steal_iters[2][1], 2);
  EXPECT_EQ(a.steal_iters[0][2], 0);
  EXPECT_EQ(a.remote_steals(), 7);
  EXPECT_EQ(a.fault_steal_iters[0][2], 7);
  EXPECT_EQ(a.fault_steals(), 7);

  EXPECT_EQ(a.total_iterations, 30);
  EXPECT_EQ(a.executed_iterations, 27);
  EXPECT_EQ(a.abandoned_iterations, 3);
  EXPECT_TRUE(a.conserved());
}

TEST(TraceAnalysis, DetectsConservationViolation) {
  std::vector<TraceRecord> recs = {
      run_begin(1),
      loop_begin(0, 10, 1),
      chunk(0, 0, 6, 0.0, 6.0),  // 4 iterations vanish: not conserved
      loop_end(0, 6.0),
      run_end(6.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs.front().conserved());
}

TEST(TraceAnalysis, MultipleRunsAnalyzeIndependently) {
  std::vector<TraceRecord> recs = {
      run_begin(1), loop_begin(0, 4, 1), chunk(0, 0, 4, 0.0, 4.0),
      loop_end(0, 4.0), run_end(4.0),
      run_begin(2), loop_begin(0, 6, 2), chunk(0, 0, 3, 0.0, 3.0),
      chunk(1, 3, 6, 0.0, 3.0), loop_end(0, 3.0), run_end(3.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].p, 1);
  EXPECT_EQ(runs[0].total_iterations, 4);
  EXPECT_EQ(runs[1].p, 2);
  EXPECT_EQ(runs[1].total_iterations, 6);
  EXPECT_TRUE(runs[0].conserved());
  EXPECT_TRUE(runs[1].conserved());
}

TEST(TraceAnalysis, RejectsSchemaViolations) {
  EXPECT_THROW(analyze_trace({chunk(0, 0, 4, 0.0, 4.0)}),
               std::runtime_error);  // event outside a run
  EXPECT_THROW(analyze_trace({run_begin(1), loop_begin(0, 4, 1)}),
               std::runtime_error);  // missing run_end
  EXPECT_THROW(analyze_trace({run_begin(1), run_begin(1)}),
               std::runtime_error);  // nested run_begin
  EXPECT_THROW(
      analyze_trace({run_begin(1), chunk(5, 0, 4, 0.0, 4.0), run_end(4.0)}),
      std::runtime_error);  // processor index out of range
}

/// Field-by-field equality, doubles compared exactly.
void expect_same_analysis(const TraceAnalysis& a, const TraceAnalysis& b,
                          const std::string& what) {
  EXPECT_EQ(a.machine, b.machine) << what;
  EXPECT_EQ(a.program, b.program) << what;
  EXPECT_EQ(a.scheduler, b.scheduler) << what;
  EXPECT_EQ(a.p, b.p) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.records, b.records) << what;
  EXPECT_EQ(a.epochs, b.epochs) << what;
  ASSERT_EQ(a.procs.size(), b.procs.size()) << what;
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    EXPECT_EQ(a.procs[i].exec, b.procs[i].exec) << what << " proc " << i;
    EXPECT_EQ(a.procs[i].memory, b.procs[i].memory) << what << " proc " << i;
    EXPECT_EQ(a.procs[i].sync, b.procs[i].sync) << what << " proc " << i;
    EXPECT_EQ(a.procs[i].stall, b.procs[i].stall) << what << " proc " << i;
    EXPECT_EQ(a.procs[i].idle, b.procs[i].idle) << what << " proc " << i;
    EXPECT_EQ(a.procs[i].iterations, b.procs[i].iterations)
        << what << " proc " << i;
    EXPECT_EQ(a.procs[i].chunks, b.procs[i].chunks) << what << " proc " << i;
  }
  EXPECT_EQ(a.steal_iters, b.steal_iters) << what;
  EXPECT_EQ(a.fault_steal_iters, b.fault_steal_iters) << what;
  EXPECT_EQ(a.total_iterations, b.total_iterations) << what;
  EXPECT_EQ(a.executed_iterations, b.executed_iterations) << what;
  EXPECT_EQ(a.abandoned_iterations, b.abandoned_iterations) << what;
  EXPECT_EQ(a.affine_iterations, b.affine_iterations) << what;
  EXPECT_EQ(a.scored_iterations, b.scored_iterations) << what;
  EXPECT_EQ(a.affinity_score(), b.affinity_score()) << what;
  EXPECT_EQ(a.exec_imbalance(), b.exec_imbalance()) << what;
}

TEST(TraceAnalysis, InMemoryAnalysisEqualsTheCellsTraceFile) {
  // The frontier's cells analyze their record stream in memory; a
  // .cctrace of the same cell, decoded and analyzed, must agree exactly.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "afs_in_memory_analysis";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<LoopProgram> programs{
      SorKernel::program(256, 8), GaussKernel::program(192),
      TransitiveClosureKernel::program(clique_graph(320, 160))};
  for (const LoopProgram& program : programs) {
    for (const char* spec : {"AFS", "SS", "TAILOR(0.5)"}) {
      for (int p : {2, 8}) {
        const std::string what =
            program.name + " " + spec + " P=" + std::to_string(p);
        TraceAnalysisSink analysis;
        SimOptions in_memory;
        in_memory.trace = &analysis;
        auto s1 = make_scheduler(spec);
        const SimResult r1 = MachineSim(iris(), in_memory).run(program, *s1, p);
        const std::vector<TraceAnalysis> got = analysis.finish();

        const std::string path = (dir / "cell.cctrace").string();
        {
          BinaryTraceSink file(path);
          SimOptions traced;
          traced.trace = &file;
          auto s2 = make_scheduler(spec);
          const SimResult r2 = MachineSim(iris(), traced).run(program, *s2, p);
          file.finalize();
          EXPECT_EQ(r1.makespan, r2.makespan) << what;
        }
        const std::vector<TraceAnalysis> want = analyze_trace_file(path);
        ASSERT_EQ(got.size(), 1u) << what;
        ASSERT_EQ(want.size(), 1u) << what;
        expect_same_analysis(got.front(), want.front(), what);
        EXPECT_TRUE(got.front().conserved()) << what;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace afs
