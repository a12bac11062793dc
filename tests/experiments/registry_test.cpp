// The experiment registry: every paper reproduction keyed by id, the
// cached-cell helper the bespoke tables run through, and one queue for a
// run of several experiments (blocks in registry order whichever thread
// renders them, repeated keys served from the store, stored cells served
// at admission, a failing table or plan reported rather than fatal, no
// render once the caller's token fired). Under --jobs the run streams:
// each experiment's cells run while the next is planned, and a rendered
// block prints at once. Plans key their cells from one prefix, and share
// one build of each registered transitive-closure program.
// End-to-end coverage of a whole pass lives in CI's sweep-service job and
// the perf/ smoke test; these tests pin the registry contract itself.
#include "experiments/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "store/result_store.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "workload/graphs.hpp"

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
      run_now(table_cell(ctx, "AFS", SharedMachine(iris()), program, "AFS", 4));
  EXPECT_EQ(store.hits(), 0);
  EXPECT_EQ(store.writes(), 1);

  const SimResult warm =
      run_now(table_cell(ctx, "AFS", SharedMachine(iris()), program, "AFS", 4));
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.remote_grabs, cold.remote_grabs);

  // No store in the context: same numbers, nothing served or written.
  ExperimentContext bare;
  const SimResult direct =
      run_now(table_cell(bare, "AFS", SharedMachine(iris()), program, "AFS",
                         4));
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
      table_cell(ctx, "GSS", SharedMachine(iris()), program, "GSS", 2);
  SimOptions unbatched;
  unbatched.batch_iterations = false;
  const SweepCellSpec ab = table_cell(
      ctx, "GSS", SharedMachine(iris(), unbatched), program, "GSS", 2);
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
        plan.cells.push_back(table_cell(ctx, "AFS", SharedMachine(iris()),
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

/// A stream buffer that workers may write while another thread reads it.
class SharedText final : public std::streambuf {
 public:
  bool contains(const std::string& part) {
    std::scoped_lock lock(mu_);
    return text_.find(part) != std::string::npos;
  }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      std::scoped_lock lock(mu_);
      text_ += static_cast<char>(c);
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::scoped_lock lock(mu_);
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::mutex mu_;
  std::string text_;
};

/// Waits up to ten seconds for `ready`; returns whether it came true.
bool wait_for(const std::function<bool()>& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A cell of cost `cost` that runs `body`.
SweepCellSpec cell_of(std::string label, double cost,
                      std::function<void()> body = [] {}) {
  SweepCellSpec c;
  c.label = std::move(label);
  c.procs = 1;
  c.cost = cost;
  c.run = [body = std::move(body)](const CancelToken&) {
    body();
    return SimResult{};
  };
  return c;
}

/// An experiment whose plan is `cells()` and whose render prints
/// "<id> rendered".
Experiment scripted(const std::string& id,
                    std::function<std::vector<SweepCellSpec>()> cells) {
  Experiment e;
  e.id = id;
  e.title = "scripted";
  e.kind = ExperimentKind::kTable;
  e.csv_ids = {id};
  e.plan = [id, cells = std::move(cells)](const ExperimentContext&) {
    ExperimentPlan plan;
    plan.cells = cells();
    plan.render = [id](std::vector<CellOutcome>&, std::ostream& out,
                       std::ostream&) {
      out << id << " rendered\n";
      return 0;
    };
    return plan;
  };
  return e;
}

TEST(StreamedRun, AnEarlierCellRunsWhileALaterExperimentPlans) {
  // Under --jobs each experiment's cells go to the workers as soon as it
  // is planned, so the second plan sees the first experiment's cell run.
  // Planning every experiment before the first cell starts would leave
  // the bounded wait to time out.
  std::atomic<bool> ran{false};
  bool seen = false;
  const Experiment first = scripted("first", [&] {
    return std::vector<SweepCellSpec>{cell_of("A", 1.0, [&] { ran = true; })};
  });
  const Experiment second = scripted("second", [&] {
    seen = wait_for([&] { return ran.load(); });
    return std::vector<SweepCellSpec>{cell_of("B", 1.0)};
  });
  ExperimentContext ctx;
  ctx.cli.out_dir = fresh_dir("streamed_plan");
  ctx.cli.jobs = 2;
  std::ostringstream out;
  EXPECT_EQ(run_experiments({&first, &second}, ctx, out),
            (std::vector<int>{0, 0}));
  EXPECT_TRUE(seen);
  EXPECT_EQ(out.str(),
            "== first: scripted ==\nfirst rendered\n"
            "== second: scripted ==\nsecond rendered\n");
}

TEST(StreamedRun, ARenderedBlockPrintsBeforeLaterCellsLand) {
  // The second experiment's cell holds its worker until the first block
  // is out: a finished render prints its block at once, not at the next
  // landing.
  SharedText text;
  std::ostream out(&text);
  std::atomic<bool> seen{false};
  const Experiment first = scripted(
      "first", [] { return std::vector<SweepCellSpec>{cell_of("A", 1.0)}; });
  const Experiment second = scripted("second", [&] {
    return std::vector<SweepCellSpec>{cell_of("B", 1.0, [&] {
      seen = wait_for([&] { return text.contains("first rendered\n"); });
    })};
  });
  ExperimentContext ctx;
  ctx.cli.out_dir = fresh_dir("streamed_print");
  ctx.cli.jobs = 2;
  EXPECT_EQ(run_experiments({&first, &second}, ctx, out),
            (std::vector<int>{0, 0}));
  EXPECT_TRUE(seen.load());
  EXPECT_TRUE(text.contains("second rendered\n"));
}

TEST(StreamedRun, OneWorkerStartsALaterPlansCostlierCellFirst) {
  // A run's cells share one batch that grows as experiments are planned,
  // so the costliest ready cell starts first whichever experiment planned
  // it. On one worker the first cell holds it until the third plan, so
  // the first two experiments' cells are all queued by then: the
  // second's costly cell starts before the first's cheaper ones.
  std::mutex mu;
  std::vector<std::string> started;
  std::atomic<bool> third_planned{false};
  const auto cell = [&](const std::string& label, double cost,
                        std::function<void()> body = [] {}) {
    return cell_of(label, cost, [&, label, body] {
      {
        std::scoped_lock lock(mu);
        started.push_back(label);
      }
      body();
    });
  };
  const Experiment first = scripted("first", [&] {
    return std::vector<SweepCellSpec>{
        cell("hold", 100.0,
             [&] { wait_for([&] { return third_planned.load(); }); }),
        cell("cheap1", 1.0), cell("cheap2", 1.0)};
  });
  const Experiment second = scripted("second", [&] {
    return std::vector<SweepCellSpec>{cell("costly", 50.0)};
  });
  const Experiment third = scripted("third", [&] {
    third_planned = true;
    return std::vector<SweepCellSpec>{};
  });
  ExperimentContext ctx;
  ctx.cli.out_dir = fresh_dir("streamed_order");
  std::ostringstream out;
  ExperimentRun run({&first, &second, &third}, ctx, out);
  CellQueue queue(1);
  run.stream(queue, SweepOptions{});
  run.finish();
  EXPECT_EQ(started,
            (std::vector<std::string>{"hold", "costly", "cheap1", "cheap2"}));
  EXPECT_EQ(run.codes(), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(headers_of(out.str()).size(), 3u) << out.str();
}

/// A store that records every key a cell looks up and serves nothing:
/// while probing, a cell stops at its lookup.
class KeyRecorder final : public CellStore {
 public:
  bool load(const CellKey& key, SimResult&) override {
    texts.push_back(key.text);
    return false;
  }
  void save(const CellKey&, const SimResult&) override {}
  bool probing() const override { return true; }
  std::vector<std::string> texts;
};

TEST(Registry, PlannedKeysAreTheKeysCellsLookUp) {
  // Plans key their cells from one prefix per machine and options. Every
  // registered cell with a plan-time key looks up exactly that key when
  // it runs; a figure cell's text is make_cell_key's; and the texts are
  // byte for byte those of the builds before the prefix, whose digest is
  // pinned here: a store primed by an earlier build serves this one.
  KeyRecorder store;
  ExperimentContext ctx;
  ctx.store = &store;
  ctx.cli.out_dir = fresh_dir("registry_keys");
  const CancelToken token;
  std::uint64_t digest = kFnvOffsetBasis;
  int keyed = 0;
  for (const Experiment& e : all_experiments()) {
    ExperimentPlan plan = e.plan(ctx);
    const std::optional<FigureSpec> spec =
        e.make_spec ? std::optional<FigureSpec>(e.make_spec()) : std::nullopt;
    for (std::size_t k = 0; k < plan.cells.size(); ++k) {
      const SweepCellSpec& c = plan.cells[k];
      if (c.key == 0) continue;  // tab7's fault ladder keys cells as they run
      store.texts.clear();
      c.run(token);
      ASSERT_EQ(store.texts.size(), 1u) << e.id << " cell " << k;
      const std::string& text = store.texts.front();
      EXPECT_EQ(fnv1a64(text), c.key) << e.id << " cell " << k;
      if (spec) {
        const std::size_t np = spec->procs.size();
        EXPECT_EQ(text, make_cell_key(spec->machine, spec->program.key,
                                      spec->schedulers[k / np].key,
                                      spec->procs[k % np], spec->sim_options)
                            .text)
            << e.id << " cell " << k;
      }
      digest = fnv1a64(text, digest);
      ++keyed;
    }
  }
  EXPECT_EQ(keyed, 1042);
  EXPECT_EQ(hex64(digest), "c239461234b634b7");
}

TEST(SharedClosure, PlansHoldTheOneRegisteredTrace) {
  // fig06, tab4 and ablation_afs run clique(640,320); fig16 and
  // ablation_afs clique(1024,409). Each plan (and fig06's BEST-STATIC
  // oracle) holds the one registered trace of its graph rather than a
  // build of its own: every plan adds an owner to that trace, and
  // dropping the plans gives them back.
  ExperimentContext ctx;
  ctx.cli.out_dir = fresh_dir("shared_closure");
  const auto held_by = [&ctx](ClosureGraph graph,
                              const std::vector<std::string>& ids) {
    const std::shared_ptr<const Lazy<BitMatrix>>& trace =
        registered_closure(graph).trace;
    const long idle = trace.use_count();
    std::vector<ExperimentPlan> plans;
    for (const std::string& id : ids) {
      const long before = trace.use_count();
      plans.push_back(find_experiment(id)->plan(ctx));
      EXPECT_GT(trace.use_count(), before) << id;
    }
    plans.clear();
    EXPECT_EQ(trace.use_count(), idle);
  };
  held_by(ClosureGraph::kClique640, {"fig06", "tab4", "ablation_afs"});
  held_by(ClosureGraph::kClique1024, {"fig16", "ablation_afs"});
}

TEST(SharedClosure, KeysMatchAFreshBuild) {
  const std::vector<std::pair<ClosureGraph, BoolMatrix>> graphs{
      {ClosureGraph::kRandom512, random_graph(512, 0.08, 1992)},
      {ClosureGraph::kClique320, clique_graph(320, 160)},
      {ClosureGraph::kClique640, clique_graph(640, 320)},
      {ClosureGraph::kClique1024, clique_graph(1024, 409)}};
  for (const auto& [graph, matrix] : graphs) {
    const ClosureProgram& shared = registered_closure(graph);
    const LoopProgram fresh = TransitiveClosureKernel::program(matrix);
    EXPECT_EQ(shared.program.key, fresh.key);
    EXPECT_EQ(shared.program.name, fresh.name);
    EXPECT_EQ(shared.program.epochs, fresh.epochs);
    EXPECT_EQ(shared.trace->get().rows(), matrix.rows());
  }
}

TEST(SharedClosure, BuiltOnceUnderConcurrentFirstUse) {
  // Daemon readers plan concurrently: four threads asking for a graph's
  // program for the first time at once all get the one build. The run's
  // workers read a trace first from several cells at once: four threads
  // reading it for the first time at once all get the one trace, built
  // by one of them. fig09's L4 tables likewise.
  constexpr int kThreads = 4;
  const auto at_once = [](const std::function<void(int)>& body) {
    std::atomic<int> waiting{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        --waiting;
        while (waiting.load() > 0) std::this_thread::yield();
        body(t);
      });
    for (std::thread& t : threads) t.join();
  };
  std::vector<const ClosureProgram*> seen(kThreads);
  std::vector<const Lazy<BitMatrix>*> lazies(kThreads);
  at_once([&](int t) {
    const ClosureProgram& c = registered_closure(ClosureGraph::kClique320);
    seen[static_cast<std::size_t>(t)] = &c;
    lazies[static_cast<std::size_t>(t)] = c.trace.get();
  });
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(lazies[static_cast<std::size_t>(t)], lazies[0]);
  }

  // Run alone, as ctest runs it, nothing has read the trace or the tables
  // yet (LazyBuild.PlanningBuildsNoTraceOrTable checks that plans do not).
  const ClosureProgram& c = registered_closure(ClosureGraph::kClique320);
  std::vector<const BitMatrix*> traces(kThreads);
  at_once([&](int t) {
    // A simulating cell's first epoch and a render's serial time read the
    // trace through epoch_loops; the oracle reads it directly.
    if (t % 2 == 0) c.program.epoch_loops(t);
    traces[static_cast<std::size_t>(t)] = &c.trace->get();
  });
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(traces[static_cast<std::size_t>(t)], traces[0]);
  EXPECT_TRUE(c.trace->built());

  const L4Kernel& l4 = registered_l4();
  const LoopProgram program = l4.program();
  std::vector<const std::vector<double>*> tables(kThreads);
  at_once([&](int t) {
    if (t % 2 == 0) program.epoch_loops(0);
    tables[static_cast<std::size_t>(t)] = &l4.costs(0, 0);
  });
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(tables[static_cast<std::size_t>(t)], tables[0]);
  EXPECT_TRUE(l4.tables_built());
}

TEST(Registry, SchedulerDisplayNameMatchesTheBuiltScheduler) {
  for (const char* spec : {"AFS", "GSS", "SS", "FACTORING", "TRAPEZOID"})
    EXPECT_EQ(scheduler_display_name(spec), make_scheduler(spec)->name())
        << spec;
}

}  // namespace
}  // namespace afs
