#include "sim/machine_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/synthetic.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "workload/graphs.hpp"

namespace afs {
namespace {

// A frictionless machine: work costs time, everything else is free.
MachineConfig ideal_machine() {
  MachineConfig m;
  m.name = "ideal";
  m.max_processors = 64;
  m.work_unit_time = 1.0;
  m.local_sync_time = 0.0;
  m.remote_sync_time = 0.0;
  return m;
}

TEST(MachineSim, SerialBalancedLoopTakesTotalWork) {
  MachineSim sim(ideal_machine());
  auto sched = make_scheduler("STATIC");
  const auto prog = balanced_program(1000, 2.0);
  const SimResult r = sim.run(prog, *sched, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 2000.0);
  EXPECT_EQ(r.iterations, 1000);
}

TEST(MachineSim, PerfectSpeedupOnIdealMachine) {
  MachineSim sim(ideal_machine());
  const auto prog = balanced_program(1024);
  for (int p : {2, 4, 8}) {
    auto sched = make_scheduler("STATIC");
    const SimResult r = sim.run(prog, *sched, p);
    EXPECT_NEAR(r.makespan, 1024.0 / p, 1e-9) << "P=" << p;
  }
}

TEST(MachineSim, IdealSerialTimeMatchesWorkSum) {
  MachineSim sim(ideal_machine());
  EXPECT_DOUBLE_EQ(sim.ideal_serial_time(balanced_program(100, 3.0)), 300.0);
  EXPECT_DOUBLE_EQ(sim.ideal_serial_time(triangular_program(100)), 5050.0);
}

/// The serial time the long way: every iteration's work added in order,
/// through the loop's own work function.
double serial_time_by_iteration(const MachineConfig& m,
                                const LoopProgram& program) {
  double total = 0.0;
  for (int e = 0; e < program.epochs; ++e) {
    for (const ParallelLoopSpec& spec : program.epoch_loops(e)) {
      if (spec.work_sum && !spec.footprint) {
        total += spec.work_sum(0, spec.n);
      } else {
        for (std::int64_t i = 0; i < spec.n; ++i) total += spec.work(i);
      }
    }
  }
  return total * m.work_unit_time;
}

TEST(MachineSim, IdealSerialTimeClosedFormIsExact) {
  // A uniform-work loop is summed in one multiply, and a transitive-
  // closure epoch from one popcount of its trace row, when that is exact.
  // Every speedup column divides by this time, so it must equal the
  // per-iteration sum bit for bit: on every registered figure (fig05,
  // fig06 and fig16 are closures), on tab6's Gauss N=4096, and on grid
  // kernels, where fractional WORK takes the per-iteration fallback.
  const auto check = [](const MachineConfig& m, const LoopProgram& p,
                        const std::string& what) {
    EXPECT_EQ(MachineSim(m).ideal_serial_time(p),
              serial_time_by_iteration(m, p))
        << what;
  };
  int figures = 0;
  for (const Experiment& e : all_experiments()) {
    if (!e.make_spec) continue;
    const FigureSpec spec = e.make_spec();
    check(spec.machine, spec.program, e.id);
    ++figures;
  }
  EXPECT_GE(figures, 15);
  check(ksr1(), GaussKernel::program(4096), "tab6");
  for (const char* kernel :
       {"gauss:300", "gauss:300,0.3", "gauss:257,3", "gauss:100,0.1",
        "sor:200,4", "sor:200,4,1.5", "sor:64,3,0.1", "adjoint:64,0.7",
        "balanced:1000,0.1", "triangular:500", "tc-random:300,0.05,7",
        "tc-clique:130,50"})
    check(iris(), parse_kernel_spec(kernel), kernel);
  check(iris(), TransitiveClosureKernel::program(clique_graph(90, 40), 0.25),
        "tc w=0.25");
}

TEST(MachineSim, ClosureSerialTimeSkipsTheIterations) {
  // fig16's closure has 1024 epochs of 1024 iterations: its serial time
  // reads one popcount per epoch and never calls work(i).
  const LoopProgram& closure =
      registered_closure(ClosureGraph::kClique1024).program;
  LoopProgram counted = closure;
  counted.epoch_loops = [loops = closure.epoch_loops](int e) {
    std::vector<ParallelLoopSpec> specs = loops(e);
    for (ParallelLoopSpec& s : specs)
      s.work = [](std::int64_t) -> double {
        throw std::logic_error("work(i) called");
      };
    return specs;
  };
  EXPECT_EQ(MachineSim(ksr1()).ideal_serial_time(counted),
            serial_time_by_iteration(ksr1(), closure));
}

TEST(MachineSim, DeterministicAcrossRuns) {
  MachineSim sim(iris());
  const auto prog = triangular_program(500);
  auto s1 = make_scheduler("GSS");
  auto s2 = make_scheduler("GSS");
  const SimResult a = sim.run(prog, *s1, 4);
  const SimResult b = sim.run(prog, *s2, 4);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.central_grabs, b.central_grabs);
}

TEST(MachineSim, JitterSeedChangesTiming) {
  SimOptions o1, o2;
  o1.jitter_seed = 1;
  o2.jitter_seed = 2;
  MachineSim sim1(iris(), o1), sim2(iris(), o2);
  const auto prog = triangular_program(500);
  auto s1 = make_scheduler("GSS");
  auto s2 = make_scheduler("GSS");
  EXPECT_NE(sim1.run(prog, *s1, 4).makespan, sim2.run(prog, *s2, 4).makespan);
}

TEST(MachineSim, SyncCostsAccumulate) {
  MachineConfig m = ideal_machine();
  m.remote_sync_time = 10.0;
  MachineSim sim(m);
  auto sched = make_scheduler("SS");  // one central op per iteration
  const SimResult r = sim.run(balanced_program(100), *sched, 1);
  // 100 grabs x 10 units of sync + 100 units of work.
  EXPECT_DOUBLE_EQ(r.sync, 1000.0);
  EXPECT_DOUBLE_EQ(r.makespan, 1100.0);
}

TEST(MachineSim, CentralQueueSerializesUnderContention) {
  // With sync = work, P self-scheduling processors convoy on the queue:
  // makespan is bounded below by N * sync_time.
  MachineConfig m = ideal_machine();
  m.remote_sync_time = 1.0;
  MachineSim sim(m);
  auto sched = make_scheduler("SS");
  const SimResult r = sim.run(balanced_program(1000), *sched, 8);
  EXPECT_GE(r.makespan, 1000.0);
}

TEST(MachineSim, StaticHasZeroSyncTime) {
  MachineConfig m = ideal_machine();
  m.remote_sync_time = 50.0;
  m.local_sync_time = 50.0;
  MachineSim sim(m);
  auto sched = make_scheduler("STATIC");
  const SimResult r = sim.run(balanced_program(800), *sched, 4);
  EXPECT_DOUBLE_EQ(r.sync, 0.0);
}

TEST(MachineSim, WorkSumFastPathMatchesPerIteration) {
  // The analytic-chunk fast path must agree with per-iteration charging.
  MachineSim sim(ideal_machine());
  auto prog_fast = triangular_program(300);
  LoopProgram prog_slow = prog_fast;
  const auto base = prog_slow.epoch_loops;
  prog_slow.epoch_loops = [base](int e) {
    auto loops = base(e);
    for (auto& l : loops) l.work_sum = nullptr;  // force the slow path
    return loops;
  };
  auto s1 = make_scheduler("GSS");
  auto s2 = make_scheduler("GSS");
  EXPECT_NEAR(sim.run(prog_fast, *s1, 4).makespan,
              sim.run(prog_slow, *s2, 4).makespan, 1e-6);
}

TEST(MachineSim, BarrierCostPerEpoch) {
  MachineConfig m = ideal_machine();
  m.barrier_base = 7.0;
  MachineSim sim(m);
  auto sched = make_scheduler("STATIC");
  LoopProgram prog = balanced_program(100);
  prog.epochs = 5;
  const SimResult r = sim.run(prog, *sched, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 5 * 100.0 + 5 * 7.0);
}

TEST(MachineSim, DelayedStartShiftsCompletion) {
  MachineSim sim_base(ideal_machine());
  SimOptions delayed;
  delayed.perturb.start_delays = {0.0, 500.0};
  MachineSim sim_delayed(ideal_machine(), delayed);
  const auto prog = balanced_program(1000);
  auto s1 = make_scheduler("STATIC");
  auto s2 = make_scheduler("STATIC");
  const double t0 = sim_base.run(prog, *s1, 2).makespan;
  const double t1 = sim_delayed.run(prog, *s2, 2).makespan;
  EXPECT_DOUBLE_EQ(t0, 500.0);
  EXPECT_DOUBLE_EQ(t1, 1000.0);  // delayed worker finishes at 500+500
}

TEST(MachineSim, DynamicSchedulerAbsorbsDelayBetter) {
  // The §4.5 premise: with GSS, a delayed processor's work is picked up by
  // the others, so the delay costs far less than under STATIC.
  SimOptions delayed;
  delayed.perturb.start_delays = {0.0, 400.0};
  MachineSim sim(ideal_machine(), delayed);
  const auto prog = balanced_program(1000);
  auto st = make_scheduler("STATIC");
  auto gss = make_scheduler("GSS");
  const double t_static = sim.run(prog, *st, 2).makespan;
  const double t_gss = sim.run(prog, *gss, 2).makespan;
  EXPECT_LT(t_gss, t_static - 100.0);
}

TEST(MachineSim, RejectsTooManyProcessors) {
  MachineSim sim(iris());  // max 8
  auto sched = make_scheduler("GSS");
  EXPECT_THROW(sim.run(balanced_program(10), *sched, 9), CheckFailure);
}

TEST(MachineSim, SchedStatsCaptured) {
  MachineSim sim(ideal_machine());
  auto sched = make_scheduler("SS");
  const SimResult r = sim.run(balanced_program(64), *sched, 2);
  EXPECT_EQ(r.sched_stats.total().total_grabs(), 64);
}

}  // namespace
}  // namespace afs
