// The experiment registry: every paper reproduction keyed by id, the
// cached-cell helper the bespoke tables run through, and one queue for a
// run of several experiments (blocks in registry order whichever thread
// renders them, repeated keys served from the store, stored cells served
// at admission, a failing table or plan reported rather than fatal, no
// render once the caller's token fired).
// End-to-end coverage of a whole pass lives in CI's sweep-service job and
// the perf/ smoke test; these tests pin the registry contract itself.
#include "experiments/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

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

/// The bytes of <dir>/<id>.csv for each id, concatenated.
std::string read_csvs(const std::string& dir,
                      const std::vector<std::string>& ids) {
  std::string csvs;
  for (const std::string& id : ids) {
    std::ifstream in(dir + "/" + id + ".csv");
    std::stringstream text;
    text << in.rdbuf();
    csvs += text.str();
  }
  return csvs;
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
    const std::string csvs = read_csvs(dir, {"fig07", "tab5"});
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

TEST(RunQueue, OutputDoesNotDependOnJobs) {
  // --jobs=1 runs cells and renders in the caller; --jobs=4 runs both on
  // the run's workers. Over one out-dir and one store — a parallel pass
  // that simulates, then a serial and a parallel replay — every pass
  // prints the same bytes, writes the same CSVs and returns the same codes.
  const std::vector<std::string> ids{"fig03", "fig07", "tab5"};
  std::vector<const Experiment*> selected;
  for (const std::string& id : ids) selected.push_back(find_experiment(id));
  const std::string dir = fresh_dir("run_queue_jobs");
  ResultStore store(dir + "/.store");
  std::string first_out, first_csvs;
  for (const int jobs : {4, 1, 4}) {
    ExperimentContext ctx;
    ctx.cli.out_dir = dir;
    ctx.cli.jobs = jobs;
    ctx.store = &store;
    std::ostringstream out;
    EXPECT_EQ(run_experiments(selected, ctx, out),
              (std::vector<int>{0, 0, 0}))
        << "jobs=" << jobs;
    const std::string csvs = read_csvs(dir, ids);
    if (first_out.empty()) {
      first_out = out.str();
      first_csvs = csvs;
      EXPECT_EQ(headers_of(first_out).size(), ids.size()) << first_out;
      continue;
    }
    EXPECT_EQ(out.str(), first_out) << "jobs=" << jobs;
    EXPECT_EQ(csvs, first_csvs) << "jobs=" << jobs;
  }
  EXPECT_EQ(store.misses(), store.writes());
  EXPECT_GT(store.hits(), store.misses());  // the replays were served
}

TEST(RunQueue, FailuresReportInBlockOrder) {
  // A plan that throws leaves a block without cells whose render reports
  // the error; a render may write diagnostics for stderr (tab7's
  // invariant reports). With stderr in the run's own stream, each block's
  // stderr comes right after its text and before the next block, and its
  // EXIT_FAILURE sits in its own slot, whichever thread rendered it.
  Experiment broken;
  broken.id = "broken_plan";
  broken.title = "A plan that throws";
  broken.kind = ExperimentKind::kTable;
  broken.csv_ids = {"broken_plan"};
  broken.plan = [](const ExperimentContext&) -> ExperimentPlan {
    throw std::runtime_error("no plan today");
  };
  Experiment noisy;
  noisy.id = "noisy";
  noisy.title = "A render with diagnostics";
  noisy.kind = ExperimentKind::kTable;
  noisy.csv_ids = {"noisy"};
  noisy.plan = [](const ExperimentContext&) {
    ExperimentPlan plan;
    plan.cells.push_back(
        {"CELL", 1, [](const CancelToken&) { return SimResult{}; }});
    plan.render = [](std::vector<CellOutcome>&, std::ostream& out,
                     std::ostream& err) {
      out << "rendered\n";
      err << "invariant broke\n";
      return EXIT_FAILURE;
    };
    return plan;
  };
  const std::vector<const Experiment*> selected{
      find_experiment("fig10"), &broken, &noisy, find_experiment("fig03")};
  const std::string dir = fresh_dir("run_queue_failed_plan");
  for (const int jobs : {1, 4}) {
    ExperimentContext ctx;
    ctx.cli.out_dir = dir;
    ctx.cli.jobs = jobs;
    std::ostringstream out;
    std::streambuf* const saved = std::cerr.rdbuf(out.rdbuf());
    const std::vector<int> codes = run_experiments(selected, ctx, out);
    std::cerr.rdbuf(saved);
    EXPECT_EQ(codes, (std::vector<int>{0, EXIT_FAILURE, EXIT_FAILURE, 0}))
        << "jobs=" << jobs;
    const std::string text = out.str();
    const std::size_t at[] = {
        text.find("== fig10: "),
        text.find("== broken_plan: A plan that throws ==\n"),
        text.find("\nbroken_plan failed: no plan today\n"),
        text.find("== noisy: A render with diagnostics ==\n"
                  "rendered\ninvariant broke\n"),
        text.find("== fig03: ")};
    for (std::size_t i = 0; i < std::size(at); ++i)
      ASSERT_NE(at[i], std::string::npos) << "jobs=" << jobs << "\n" << text;
    EXPECT_TRUE(std::is_sorted(std::begin(at), std::end(at)))
        << "jobs=" << jobs << "\n" << text;
  }
}

/// An experiment of one cell whose render counts itself.
Experiment probe_experiment(const std::string& id,
                            std::function<SimResult(const CancelToken&)> cell,
                            std::atomic<int>& renders) {
  Experiment e;
  e.id = id;
  e.title = "probe";
  e.kind = ExperimentKind::kTable;
  e.csv_ids = {id};
  e.plan = [cell = std::move(cell), &renders](const ExperimentContext&) {
    ExperimentPlan plan;
    plan.cells.push_back({"CELL", 1, cell});
    plan.render = [&renders](std::vector<CellOutcome>&, std::ostream& out,
                             std::ostream&) {
      ++renders;
      out << "rendered\n";
      return 0;
    };
    return plan;
  };
  return e;
}

TEST(RunQueue, NoRenderStartsOnceTheTokenFired) {
  // The first experiment renders before anything fires. The second's cell
  // waits for that render, then fires the caller's token; the third's
  // holds its worker until the token has fired (serially it never
  // starts). The first block still prints: its render ran before the
  // token fired, though under --jobs it may print only after. The other
  // two blocks complete after the token fired, so neither render may
  // start and nothing prints after the first block.
  for (const int jobs : {1, 4}) {
    CancelToken token;
    std::atomic<int> renders{0};
    const Experiment done = probe_experiment(
        "done", [](const CancelToken&) { return SimResult{}; }, renders);
    const Experiment fires = probe_experiment(
        "fires",
        [&token, &renders](const CancelToken&) {
          while (renders.load() == 0) std::this_thread::yield();
          token.cancel();
          return SimResult{};
        },
        renders);
    const Experiment holds = probe_experiment(
        "holds",
        [](const CancelToken& t) {
          while (!t.cancelled()) {
          }
          return SimResult{};
        },
        renders);
    ExperimentContext ctx;
    ctx.cli.out_dir = fresh_dir("run_queue_cancel");
    ctx.cli.jobs = jobs;
    ctx.cancel = &token;
    std::ostringstream out;
    EXPECT_EQ(run_experiments({&done, &fires, &holds}, ctx, out),
              std::vector<int>{0})
        << "jobs=" << jobs;
    EXPECT_EQ(renders.load(), 1) << "jobs=" << jobs;
    EXPECT_EQ(out.str(), "== done: probe ==\nrendered\n") << "jobs=" << jobs;
  }
}

TEST(RunQueue, FailingTableCellReportsInsteadOfCrashing) {
  // One table cell breaks an invariant: its table prints a failure
  // report, writes <id>.failures.json and exits 1; the next experiment
  // on the queue is unaffected. on_cell_failure reports the cell as its
  // block prints, between its header and the next block's.
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
        plan.render = [](std::vector<CellOutcome>&, std::ostream& out,
                         std::ostream&) {
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
    ctx.on_cell_failure = [&out](const std::string& id, const CellFailure& f) {
      out << "cell_error " << id << " " << f.label << " " << f.kind << "\n";
    };
    const std::vector<int> codes =
        run_experiments({&broken, find_experiment("fig10")}, ctx, out);
    EXPECT_EQ(codes, (std::vector<int>{1, 0})) << "jobs=" << jobs;
    const std::string printed = out.str();
    EXPECT_EQ(printed.find("rendered"), std::string::npos);
    EXPECT_NE(printed.find("1 of 2 cells failed"), std::string::npos)
        << printed;
    const std::size_t notice =
        printed.find("cell_error broken_table BROKEN invariant\n");
    ASSERT_NE(notice, std::string::npos) << printed;
    EXPECT_EQ(printed.find("cell_error", notice + 1), std::string::npos);
    EXPECT_LT(printed.find("== broken_table: "), notice);
    EXPECT_LT(notice, printed.find("== fig10: "));
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
