// The experiment registry: every paper reproduction keyed by id, the
// cached-cell helper the bespoke tables run through, and one queue for a
// run of several experiments (blocks in registry order, repeated keys
// served from the store, stored cells served at admission, a failing
// table reported rather than fatal).
// End-to-end coverage of a whole pass lives in CI's sweep-service job and
// the perf/ smoke test; these tests pin the registry contract itself.
#include "experiments/registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "store/result_store.hpp"
#include "util/check.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(Registry, AllHistoricalBinariesAreRegistered) {
  const std::set<std::string> expected{
      "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
      "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
      "fig17", "tab2",  "tab3",  "tab4",  "tab5",  "tab6",  "tab7",
      "ablation_afs", "trend_comm_ratio", "frontier_tradeoff"};
  std::set<std::string> actual;
  for (const Experiment& e : all_experiments()) actual.insert(e.id);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(all_experiments().size(), expected.size());  // ids are unique
}

TEST(Registry, EntriesAreWellFormed) {
  for (const Experiment& e : all_experiments()) {
    EXPECT_FALSE(e.title.empty()) << e.id;
    EXPECT_TRUE(e.plan != nullptr) << e.id;
    EXPECT_FALSE(e.csv_ids.empty()) << e.id;
  }
}

TEST(Registry, FindExperimentByIdAndUnknown) {
  const Experiment* fig04 = find_experiment("fig04");
  ASSERT_NE(fig04, nullptr);
  EXPECT_EQ(fig04->id, "fig04");
  EXPECT_EQ(fig04->kind, ExperimentKind::kFigure);
  EXPECT_EQ(find_experiment("fig99"), nullptr);
  EXPECT_EQ(find_experiment(""), nullptr);
}

/// Runs a table cell to completion on the caller's thread.
SimResult run_now(const SweepCellSpec& cell) {
  const CancelToken token;
  return cell.run(token);
}

TEST(Registry, RunCellCachedServesTheSecondLookup) {
  ResultStore store(fresh_dir("registry_cells"));
  ExperimentContext ctx;
  ctx.store = &store;

  const SharedProgram program(balanced_program(256));
  const SimResult cold =
      run_now(table_cell(ctx, "AFS", iris(), program, "AFS", 4));
  EXPECT_EQ(store.hits(), 0);
  EXPECT_EQ(store.writes(), 1);

  const SimResult warm =
      run_now(table_cell(ctx, "AFS", iris(), program, "AFS", 4));
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.remote_grabs, cold.remote_grabs);

  // No store in the context: same numbers, nothing served or written.
  ExperimentContext bare;
  const SimResult direct =
      run_now(table_cell(bare, "AFS", iris(), program, "AFS", 4));
  EXPECT_EQ(direct.makespan, cold.makespan);
  EXPECT_EQ(store.writes(), 1);
}

TEST(Registry, RunCellCachedKeysEngineToggles) {
  // tab7's batching A/B check must simulate both engines, not be served
  // the batched result twice.
  ResultStore store(fresh_dir("registry_toggles"));
  ExperimentContext ctx;
  ctx.store = &store;
  const SharedProgram program(balanced_program(128));
  const SweepCellSpec batched =
      table_cell(ctx, "GSS", iris(), program, "GSS", 2);
  SimOptions unbatched;
  unbatched.batch_iterations = false;
  const SweepCellSpec ab =
      table_cell(ctx, "GSS", iris(), program, "GSS", 2, unbatched);
  EXPECT_NE(batched.key, ab.key);  // distinct keys: never queue-linked
  run_now(batched);
  run_now(ab);
  EXPECT_EQ(store.writes(), 2);
  EXPECT_EQ(store.hits(), 0);
}

/// The "== " header lines of a run's output, in order.
std::vector<std::string> headers_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (line.rfind("== ", 0) == 0) out.push_back(line);
  return out;
}

TEST(RunQueue, RepeatedKeysHitInEitherOrder) {
  // fig07 and tab5 share 25 of their 89 cells. Planned together on one
  // queue, the second instance of each waits for the first to publish, so
  // a cold store serves it: 25 hits, 64 misses, 64 writes — every time,
  // in both registry orders, under four workers.
  const Experiment* fig07 = find_experiment("fig07");
  const Experiment* tab5 = find_experiment("tab5");
  ASSERT_NE(fig07, nullptr);
  ASSERT_NE(tab5, nullptr);
  for (const auto& order : {std::vector<const Experiment*>{fig07, tab5},
                            std::vector<const Experiment*>{tab5, fig07}}) {
    for (int round = 0; round < 20; ++round) {
      const std::string dir = fresh_dir("run_queue_keys");
      ResultStore store(dir + "/.store");
      ExperimentContext ctx;
      ctx.cli.out_dir = dir;
      ctx.cli.jobs = 4;
      ctx.store = &store;
      std::ostringstream out;
      std::size_t cells = 0;
      const std::vector<int> codes = run_experiments(order, ctx, out, &cells);
      ASSERT_EQ(codes, (std::vector<int>{0, 0}));
      EXPECT_EQ(cells, 89u);
      EXPECT_EQ(store.hits(), 25) << order.front()->id << " round " << round;
      EXPECT_EQ(store.misses(), 64) << order.front()->id << " round " << round;
      EXPECT_EQ(store.writes(), 64) << order.front()->id << " round " << round;
    }
  }
}

TEST(RunQueue, AdmissionServesStoredCellsAndQueuesOnlyMisses) {
  // The daemon's path: fig07 + tab5 planned under a request's StoreView
  // and looked up at admission. Cold, every first instance misses there
  // and is queued, and each of the 25 repeated keys is queued without a
  // lookup, to run after its first instance and hit: the view counts the
  // batch witness, 25/64/64. Warm, admission serves all 89 cells and
  // queues none. Both runs write the same CSVs.
  const std::vector<const Experiment*> selected{find_experiment("fig07"),
                                                find_experiment("tab5")};
  const std::string dir = fresh_dir("run_queue_admission");
  ResultStore store(dir + "/.store");
  CellQueue queue(4);
  std::string cold_csvs;
  for (const bool warm : {false, true}) {
    StoreView view(store);
    ExperimentContext ctx;
    ctx.cli.out_dir = dir;
    ctx.store = &view;
    std::ostringstream out;
    ExperimentRun run(selected, ctx, out);
    std::vector<std::size_t> index;
    std::vector<SweepCellSpec> misses = run.take_misses(view, index);
    EXPECT_EQ(misses.size(), warm ? 0u : 89u);
    SweepOptions opts;
    opts.queue = &queue;
    run_sweep(std::move(misses), opts, [&](std::size_t k, CellOutcome o) {
      run.land(index[k], std::move(o));
    });
    EXPECT_EQ(run.codes(), (std::vector<int>{0, 0}));
    EXPECT_EQ(view.hits(), warm ? 89 : 25);
    EXPECT_EQ(view.misses(), warm ? 0 : 64);
    EXPECT_EQ(view.writes(), warm ? 0 : 64);
    std::string csvs;
    for (const char* id : {"fig07", "tab5"}) {
      std::ifstream in(dir + "/" + id + ".csv");
      std::stringstream text;
      text << in.rdbuf();
      csvs += text.str();
    }
    EXPECT_FALSE(csvs.empty());
    if (warm)
      EXPECT_EQ(csvs, cold_csvs);
    else
      cold_csvs = csvs;
  }
  // The views' counts are exactly the store's.
  EXPECT_EQ(store.hits(), 25 + 89);
  EXPECT_EQ(store.misses(), 64);
  EXPECT_EQ(store.writes(), 64);
}

TEST(RunQueue, BlocksPrintInRegistryOrder) {
  // Cells run costliest first across experiments, but each block prints
  // only once it and every block before it are complete.
  std::vector<const Experiment*> selected;
  for (const char* id : {"fig10", "tab5", "fig07", "tab3", "trend_comm_ratio",
                         "fig11"})
    selected.push_back(find_experiment(id));
  const std::string dir = fresh_dir("run_queue_order");
  ExperimentContext ctx;
  ctx.cli.out_dir = dir;
  ctx.cli.jobs = 4;
  std::ostringstream out;
  const std::vector<int> codes = run_experiments(selected, ctx, out);
  EXPECT_EQ(codes, std::vector<int>(selected.size(), 0));
  const std::vector<std::string> headers = headers_of(out.str());
  ASSERT_EQ(headers.size(), selected.size()) << out.str();
  for (std::size_t i = 0; i < selected.size(); ++i)
    EXPECT_EQ(headers[i],
              "== " + selected[i]->id + ": " + selected[i]->title + " ==");
  // Each block follows its own header: tab5's table is not inside fig10's.
  const std::string text = out.str();
  EXPECT_LT(text.find(headers[1]), text.find("AFS remote/queue"));
}

TEST(RunQueue, FailingTableCellReportsInsteadOfCrashing) {
  // One table cell breaks an invariant: its table prints a failure
  // report, writes <id>.failures.json and exits 1; the next experiment
  // on the queue is unaffected.
  const Experiment broken = table_experiment(
      "broken_table", "A table with a failing cell", {"broken_table"},
      [](const ExperimentContext& ctx) {
        ExperimentPlan plan;
        plan.cells.push_back(table_cell(ctx, "AFS", iris(),
                                        SharedProgram(balanced_program(64)),
                                        "AFS", 2));
        plan.cells.push_back({"BROKEN", 2, [](const CancelToken&) -> SimResult {
                                AFS_CHECK_MSG(false, "cell broke");
                                return {};
                              }});
        plan.render = [](std::vector<CellOutcome>&, std::ostream& out) {
          out << "rendered\n";
          return 0;
        };
        return plan;
      });
  const std::string dir = fresh_dir("run_queue_failure");
  for (int jobs : {1, 4}) {
    ExperimentContext ctx;
    ctx.cli.out_dir = dir;
    ctx.cli.jobs = jobs;
    std::ostringstream out;
    const std::vector<int> codes =
        run_experiments({&broken, find_experiment("fig10")}, ctx, out);
    EXPECT_EQ(codes, (std::vector<int>{1, 0})) << "jobs=" << jobs;
    EXPECT_EQ(out.str().find("rendered"), std::string::npos);
    EXPECT_NE(out.str().find("1 of 2 cells failed"), std::string::npos)
        << out.str();
    std::ifstream report(dir + "/broken_table.failures.json");
    std::stringstream text;
    text << report.rdbuf();
    EXPECT_NE(text.str().find("\"scheduler\":\"BROKEN\",\"procs\":2,"
                              "\"kind\":\"invariant\""),
              std::string::npos)
        << text.str();
    EXPECT_TRUE(fs::exists(dir + "/fig10.csv"));
  }
}

TEST(Registry, SchedulerDisplayNameMatchesTheBuiltScheduler) {
  for (const char* spec : {"AFS", "GSS", "SS", "FACTORING", "TRAPEZOID"})
    EXPECT_EQ(scheduler_display_name(spec), make_scheduler(spec)->name())
        << spec;
}

}  // namespace
}  // namespace afs
