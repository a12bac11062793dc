// Planning builds only what a cell's key and cost need. The registered
// transitive-closure programs' activity traces and fig09's L4 cost tables
// are built by their first reader — a render's serial time, a simulating
// cell, the BEST-STATIC oracle — once per process, and what they feed is
// bit-identical to an eager build's.
//
// The first test must run first in its process: it checks that nothing
// was built before the plans ran. ctest runs each test in a process of
// its own, and gtest runs this file's tests in order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiments/registry.hpp"
#include "kernels/l4.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"
#include "sched/static_scheduler.hpp"
#include "sim/machine_sim.hpp"
#include "store/result_store.hpp"
#include "util/hash.hpp"
#include "util/lazy.hpp"
#include "workload/graphs.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

const std::vector<ClosureGraph> kGraphs{
    ClosureGraph::kRandom512, ClosureGraph::kClique320,
    ClosureGraph::kClique640, ClosureGraph::kClique1024};

BoolMatrix graph_of(ClosureGraph g) {
  switch (g) {
    case ClosureGraph::kRandom512: return random_graph(512, 0.08, 1992);
    case ClosureGraph::kClique320: return clique_graph(320, 160);
    case ClosureGraph::kClique640: return clique_graph(640, 320);
    case ClosureGraph::kClique1024: return clique_graph(1024, 409);
  }
  return {};
}

/// The closure program built eagerly — the trace first, then loops that
/// read it — and without a work_sum, so its serial time adds every term
/// one at a time. The oracle for the lazy build.
LoopProgram eager_closure(const BoolMatrix& graph,
                          std::shared_ptr<const BitMatrix>& trace) {
  const std::int64_t n = graph.rows();
  const double row_units = static_cast<double>(n) / 4.0;
  trace = std::make_shared<const BitMatrix>(
      TransitiveClosureKernel::active_trace(graph));
  LoopProgram p;
  p.name = "tc-" + std::to_string(n);
  // The graph's bytes hashed one at a time, as text keys are.
  p.key = "tc(n=" + std::to_string(n) + ",w=" + key_double(2.0) + ",graph=" +
          hex64(fnv1a64(std::string_view(
              reinterpret_cast<const char*>(graph.data()),
              static_cast<std::size_t>(n * n)))) +
          ")";
  p.epochs = static_cast<int>(n);
  const double heavy = static_cast<double>(n) * 2.0;
  p.epoch_loops = [n, heavy, row_units, trace](int k) {
    ParallelLoopSpec spec;
    spec.n = n;
    spec.work = [heavy, trace, k](std::int64_t j) {
      return trace->test(k, j) ? heavy : 1.0;
    };
    spec.footprint = [row_units, trace, k](std::int64_t j,
                                           std::vector<BlockAccess>& out) {
      if (!trace->test(k, j)) return;
      out.push_back({static_cast<std::int64_t>(k), row_units, false});
      out.push_back({j, row_units, true});
    };
    return std::vector<ParallelLoopSpec>{spec};
  };
  return p;
}

/// BEST-STATIC over `trace`, as fig05 and fig06 build it.
std::unique_ptr<Scheduler> eager_best_static(
    std::shared_ptr<const BitMatrix> trace) {
  return std::make_unique<BestStaticScheduler>(
      EpochCostProvider([trace](int epoch) {
        return IterationCostFn([trace, epoch](std::int64_t j) {
          return trace->test(epoch, j) ? static_cast<double>(trace->cols())
                                       : 1.0;
        });
      }));
}

bool any_built() {
  for (ClosureGraph g : kGraphs)
    if (registered_closure(g).trace->built()) return true;
  return registered_l4().tables_built();
}

TEST(LazyBuild, PlanningBuildsNoTraceOrTable) {
  ASSERT_FALSE(any_built()) << "run this test in a fresh process";
  // Plan as a warm pass and as a daemon request do: keys from a store.
  const fs::path dir = fs::path(::testing::TempDir()) / "lazy_build";
  fs::remove_all(dir);
  ResultStore store((dir / "store").string());
  ExperimentContext ctx;
  ctx.cli.out_dir = dir.string();
  ctx.store = &store;
  std::vector<ExperimentPlan> plans;
  for (const char* id : {"fig05", "fig06", "fig16", "tab4", "ablation_afs",
                         "frontier_tradeoff", "fig09"}) {
    plans.push_back(find_experiment(id)->plan(ctx));
    EXPECT_FALSE(plans.back().cells.empty()) << id;
    EXPECT_FALSE(any_built()) << "planning " << id;
    // Rebuilding a figure's spec, as a sandbox worker does, builds
    // nothing either.
    if (find_experiment(id)->make_spec) find_experiment(id)->make_spec();
    EXPECT_FALSE(any_built()) << id << "'s spec";
  }
  // Each plan costs its cells as an eager build did: n^2 per processor
  // for a closure, 50 * 1180 for L4.
  EXPECT_EQ(plans[0].cells.front().cost, 512.0 * 512.0 * 1);
  EXPECT_EQ(plans[2].cells.front().cost, 1024.0 * 1024.0 * 1);
  EXPECT_EQ(plans[6].cells.front().cost, 50.0 * 1180.0 * 1);
  fs::remove_all(dir);
}

TEST(LazyBuild, FirstReadersBuildOnceUnderConcurrentReads) {
  std::atomic<int> builds{0};
  const Lazy<std::vector<int>> lazy([&builds] {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::vector<int>(1000, 7);
  });
  EXPECT_FALSE(lazy.built());
  EXPECT_EQ(builds.load(), 0);
  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads};
  std::vector<const std::vector<int>*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      --waiting;
      while (waiting.load() > 0) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] = &lazy.get();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_TRUE(lazy.built());
  for (const auto* s : seen) {
    EXPECT_EQ(s, seen[0]);
    EXPECT_EQ(s->size(), 1000u);
  }
}

TEST(LazyBuild, SerialTimesMatchAnEagerBuild) {
  for (ClosureGraph g : kGraphs) {
    const BoolMatrix graph = graph_of(g);
    std::shared_ptr<const BitMatrix> trace;
    const LoopProgram eager = eager_closure(graph, trace);
    const ClosureProgram& lazy = registered_closure(g);
    EXPECT_EQ(lazy.program.key, eager.key);
    // In a fresh process the render's serial time is the trace's first
    // reader.
    for (const MachineConfig& m : {iris(), ksr1()})
      EXPECT_EQ(MachineSim(m).ideal_serial_time(lazy.program),
                MachineSim(m).ideal_serial_time(eager))
          << lazy.program.key << " on " << m.name;
    ASSERT_TRUE(lazy.trace->built());
    const BitMatrix& built = lazy.trace->get();
    std::int64_t mismatches = 0;
    for (std::int64_t k = 0; k < graph.rows(); ++k)
      for (std::int64_t j = 0; j < graph.rows(); ++j)
        if (built.test(k, j) != trace->test(k, j)) ++mismatches;
    EXPECT_EQ(mismatches, 0) << lazy.program.key;
  }
  // fig09: the L4 tables' first reader is the serial time too.
  L4Kernel drawn_first;
  const double units = drawn_first.total_units();
  const LoopProgram l4 = registered_l4().program();
  EXPECT_EQ(MachineSim(iris()).ideal_serial_time(l4),
            MachineSim(iris()).ideal_serial_time(drawn_first.program()));
  EXPECT_TRUE(registered_l4().tables_built());
  EXPECT_EQ(registered_l4().total_units(), units);
}

TEST(LazyBuild, OracleAndCellsMatchAnEagerBuild) {
  // fig05's BEST-STATIC factory is its trace's first reader: its
  // partitions, and whole simulated cells, match an eager build's.
  const Experiment& fig05 = *find_experiment("fig05");
  const FigureSpec spec = fig05.make_spec();
  const SchedulerEntry& oracle = spec.schedulers.back();
  ASSERT_EQ(oracle.key, "BEST-STATIC@tc-trace");
  std::shared_ptr<const BitMatrix> trace;
  const LoopProgram eager =
      eager_closure(graph_of(ClosureGraph::kRandom512), trace);
  {
    auto lazy_sched = oracle.make();
    EXPECT_TRUE(registered_closure(ClosureGraph::kRandom512).trace->built());
    auto eager_sched = eager_best_static(trace);
    auto& a = dynamic_cast<BestStaticScheduler&>(*lazy_sched);
    auto& b = dynamic_cast<BestStaticScheduler&>(*eager_sched);
    for (int epoch = 0; epoch < spec.program.epochs; ++epoch) {
      a.start_loop(512, 8);
      b.start_loop(512, 8);
      ASSERT_EQ(a.partition().size(), b.partition().size());
      for (std::size_t i = 0; i < a.partition().size(); ++i) {
        EXPECT_EQ(a.partition()[i].begin, b.partition()[i].begin) << epoch;
        EXPECT_EQ(a.partition()[i].end, b.partition()[i].end) << epoch;
      }
    }
  }
  for (int p : {1, 4}) {
    const SimResult lazy_best =
        run_figure_cell(spec, oracle, p, spec.sim_options);
    auto eager_sched = eager_best_static(trace);
    const SimResult eager_best =
        MachineSim(spec.machine).run(eager, *eager_sched, p);
    EXPECT_EQ(serialize_sim_result(lazy_best), serialize_sim_result(eager_best))
        << "BEST-STATIC P=" << p;
    const SimResult lazy_afs =
        run_figure_cell(spec, spec.schedulers.front(), p, spec.sim_options);
    auto afs = make_scheduler(spec.schedulers.front().key);
    EXPECT_EQ(serialize_sim_result(lazy_afs),
              serialize_sim_result(MachineSim(spec.machine).run(eager, *afs, p)))
        << spec.schedulers.front().label << " P=" << p;
  }
}

TEST(LazyBuild, StatedCostsMatchTheDerivedCost) {
  // A program that states its cost states what program_cost would derive
  // from its loops.
  const auto derived = [](LoopProgram p) {
    p.cost = 0.0;
    return program_cost(p);
  };
  for (const LoopProgram& p :
       {TransitiveClosureKernel::program(clique_graph(96, 40)),
        TransitiveClosureKernel::program(random_graph(70, 0.1, 3), 0.25),
        TransitiveClosureKernel::closure(clique_graph(33, 10)).program,
        L4Kernel().program(), L4Kernel(L4Config{7, 3, 0.25}).program()}) {
    EXPECT_GT(p.cost, 0.0) << p.key;
    EXPECT_EQ(program_cost(p), derived(p)) << p.key;
  }
}

}  // namespace
}  // namespace afs
