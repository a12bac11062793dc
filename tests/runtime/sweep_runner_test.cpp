// Tests for the run queue: bit-identical merges across serial and
// parallel execution, costliest-first order, the "runs after" edge (a
// repeated key, a dependent cell), the deterministic retry schedule,
// cooperative timeouts and cancellation, and the failure report. Cheap
// cells are synthetic (a pure function of the cell key); the simulator
// only appears where the contract under test is "a real simulation run
// obeys the token".
#include "runtime/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/figure.hpp"
#include "kernels/gauss.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "runtime/cell_executor.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "util/check.hpp"

namespace afs {
namespace {

/// Bitwise equality of every field the checkpoint serializes.
bool identical(const SimResult& a, const SimResult& b) {
  if (!(a.makespan == b.makespan && a.busy == b.busy && a.sync == b.sync &&
        a.comm == b.comm && a.idle == b.idle && a.barrier == b.barrier &&
        a.stall_time == b.stall_time && a.hits == b.hits &&
        a.misses == b.misses && a.invalidations == b.invalidations &&
        a.units_transferred == b.units_transferred &&
        a.local_grabs == b.local_grabs && a.remote_grabs == b.remote_grabs &&
        a.central_grabs == b.central_grabs && a.iterations == b.iterations &&
        a.lost_processor_count == b.lost_processor_count &&
        a.stolen_under_fault == b.stolen_under_fault &&
        a.abandoned_iterations == b.abandoned_iterations &&
        a.sched_stats.loops == b.sched_stats.loops &&
        a.sched_stats.queues.size() == b.sched_stats.queues.size()))
    return false;
  for (std::size_t q = 0; q < a.sched_stats.queues.size(); ++q) {
    const QueueStats& qa = a.sched_stats.queues[q];
    const QueueStats& qb = b.sched_stats.queues[q];
    if (!(qa.local_grabs == qb.local_grabs &&
          qa.remote_grabs == qb.remote_grabs &&
          qa.iters_local == qb.iters_local &&
          qa.iters_remote == qb.iters_remote))
      return false;
  }
  return true;
}

/// A synthetic but awkward SimResult: a pure function of (label, procs)
/// with values that punish any serialization that rounds (thirds, huge
/// magnitudes, a denormal) plus per-queue stats.
SimResult synthetic_result(const std::string& label, int procs) {
  SimResult r;
  const double base = static_cast<double>(label.size() * 1000 + procs);
  r.makespan = base / 3.0;
  r.busy = base * 1e12 + 1.0 / 7.0;
  r.sync = 5e-324;  // smallest denormal
  r.comm = -0.0;
  r.idle = base * 0.1;
  r.barrier = 1e-300;
  r.stall_time = 0.0;
  r.hits = static_cast<std::int64_t>(base) * 1'000'000'007LL;
  r.misses = procs;
  r.invalidations = -procs;  // counters are signed; keep the parser honest
  r.units_transferred = base + 0.5;
  r.local_grabs = 1;
  r.remote_grabs = 2;
  r.central_grabs = 3;
  r.iterations = 4;
  r.lost_processor_count = 0;
  r.stolen_under_fault = 5;
  r.abandoned_iterations = 6;
  r.sched_stats.loops = procs;
  r.sched_stats.queues.resize(static_cast<std::size_t>(procs));
  for (int q = 0; q < procs; ++q) {
    r.sched_stats.queues[static_cast<std::size_t>(q)] = {q + 1, q + 2,
                                                         q * 10LL, q * 20LL};
  }
  return r;
}

std::vector<SweepCellSpec> synthetic_cells(
    const std::vector<std::string>& labels, const std::vector<int>& procs,
    std::atomic<int>* computed = nullptr) {
  std::vector<SweepCellSpec> cells;
  for (const std::string& label : labels)
    for (int p : procs)
      cells.push_back({label, p, [label, p, computed](const CancelToken&) {
                         if (computed) computed->fetch_add(1);
                         return synthetic_result(label, p);
                       }});
  return cells;
}

/// The queue's outcomes, collected the way a one-experiment caller sees
/// them, plus the order in which on_done saw the cells.
struct Collected {
  std::map<std::string, std::map<int, SimResult>> results;
  std::vector<CellFailure> failures;  // in on_done order
  std::vector<std::size_t> order;

  bool complete() const { return failures.empty(); }
  bool invariant_break() const {
    return std::any_of(failures.begin(), failures.end(),
                       [](const CellFailure& f) {
                         return f.kind == "invariant";
                       });
  }
};

Collected run_queue(std::vector<SweepCellSpec> cells,
                    const SweepOptions& opts) {
  Collected c;
  std::vector<std::pair<std::string, int>> ids;
  for (const SweepCellSpec& cell : cells) ids.emplace_back(cell.label, cell.procs);
  run_sweep(std::move(cells), opts, [&](std::size_t k, CellOutcome o) {
    c.order.push_back(k);
    if (o.result)
      c.results[ids[k].first][ids[k].second] = std::move(*o.result);
    else
      c.failures.push_back(std::move(o.failure));
  });
  return c;
}

TEST(SweepRunner, SerialAndParallelMergeBitIdentical) {
  // Real simulations: the merged map must not depend on which thread ran
  // a cell or in what order cells finished.
  const auto program = GaussKernel::program(96);
  const std::vector<std::string> labels{"AFS", "GSS", "SS"};
  const std::vector<int> procs{1, 2, 4};
  auto make_cells = [&] {
    std::vector<SweepCellSpec> cells;
    for (const std::string& label : labels)
      for (int p : procs)
        cells.push_back({label, p, [&program, label, p](const CancelToken& t) {
                           SimOptions opts;
                           opts.cancel = &t;
                           MachineSim sim(iris(), opts);
                           auto sched = make_scheduler(label);
                           return sim.run(program, *sched, p);
                         }});
    return cells;
  };

  SweepOptions serial;
  SweepOptions parallel;
  parallel.jobs = 4;
  const Collected a = run_queue(make_cells(), serial);
  const Collected b = run_queue(make_cells(), parallel);

  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  ASSERT_EQ(a.results.size(), labels.size());
  for (const std::string& label : labels)
    for (int p : procs) {
      ASSERT_TRUE(identical(a.results.at(label).at(p),
                            b.results.at(label).at(p)))
          << label << " P=" << p;
    }
}

TEST(SweepRunner, SerializationRoundTripsBitExactly) {
  const SimResult r = synthetic_result("AFS(k=2)", 7);
  SimResult back;
  ASSERT_TRUE(parse_sim_result(serialize_sim_result(r), back));
  EXPECT_TRUE(identical(r, back));

  // And for a real simulation result, queues included.
  MachineSim sim(ksr1());
  auto sched = make_scheduler("AFS");
  const SimResult real = sim.run(GaussKernel::program(64), *sched, 8);
  ASSERT_TRUE(parse_sim_result(serialize_sim_result(real), back));
  EXPECT_TRUE(identical(real, back));
}

TEST(SweepRunner, ParseRejectsCorruption) {
  const std::string good = serialize_sim_result(synthetic_result("GSS", 3));
  SimResult out;
  ASSERT_TRUE(parse_sim_result(good, out));

  EXPECT_FALSE(parse_sim_result("", out));
  EXPECT_FALSE(parse_sim_result("wrong-schema\n", out));
  // Truncation anywhere — including losing only the end marker — fails.
  for (std::size_t cut : {good.size() / 4, good.size() / 2, good.size() - 2})
    EXPECT_FALSE(parse_sim_result(good.substr(0, cut), out)) << cut;
  // A non-numeric field fails.
  std::string bad = good;
  bad.replace(bad.find("busy "), 5, "busy x");
  EXPECT_FALSE(parse_sim_result(bad, out));
}

TEST(SweepRunner, RetryScheduleIsDeterministic) {
  SweepOptions opts;
  opts.max_retries = 3;
  opts.backoff_base = 0.05;
  opts.backoff_max = 10.0;
  // Pure: same cell and attempt, same delay. Different cells decorrelate.
  for (int attempt = 1; attempt <= 3; ++attempt)
    EXPECT_EQ(retry_backoff(opts, "AFS", 4, attempt),
              retry_backoff(opts, "AFS", 4, attempt));
  EXPECT_NE(retry_backoff(opts, "AFS", 4, 1), retry_backoff(opts, "GSS", 4, 1));
  // Jitter is in [0.5, 1.5) x base*2^(attempt-1), clamped.
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double d = retry_backoff(opts, "SS", 2, attempt);
    const double scale = opts.backoff_base * std::ldexp(1.0, attempt - 1);
    EXPECT_GE(d, std::min(0.5 * scale, opts.backoff_max));
    EXPECT_LE(d, std::min(1.5 * scale, opts.backoff_max));
  }
  SweepOptions clamped = opts;
  clamped.backoff_max = 0.01;
  EXPECT_EQ(retry_backoff(clamped, "SS", 2, 10), 0.01);

  // End to end: a cell that fails twice then succeeds sleeps exactly the
  // schedule, on every rerun.
  auto flaky_sweep = [&] {
    std::vector<double> delays;
    SweepOptions o;
    o.max_retries = 3;
    o.sleep_fn = [&delays](double s) { delays.push_back(s); };
    std::atomic<int> calls{0};
    std::vector<SweepCellSpec> cells{
        {"FLAKY", 2, [&calls](const CancelToken&) {
           if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
           return synthetic_result("FLAKY", 2);
         }}};
    const Collected outcome = run_queue(cells, o);
    EXPECT_TRUE(outcome.complete());
    return delays;
  };
  const std::vector<double> run1 = flaky_sweep();
  const std::vector<double> run2 = flaky_sweep();
  SweepOptions o;
  o.max_retries = 3;
  ASSERT_EQ(run1.size(), 2u);
  EXPECT_EQ(run1, run2);
  EXPECT_EQ(run1[0], retry_backoff(o, "FLAKY", 2, 1));
  EXPECT_EQ(run1[1], retry_backoff(o, "FLAKY", 2, 2));
}

TEST(SweepRunner, RetryBackoffSurvivesDegenerateInputs) {
  SweepOptions opts;
  opts.backoff_max = 10.0;

  // A zero (or negative) base means "retry immediately", not NaN/garbage.
  opts.backoff_base = 0.0;
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 1), 0.0);
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 7), 0.0);
  opts.backoff_base = -1.0;
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 1), 0.0);

  // Absurd attempt numbers must not overflow ldexp into inf before the
  // clamp: the delay saturates at backoff_max and stays finite.
  opts.backoff_base = 0.05;
  for (int attempt : {64, 1100, 10'000, 1'000'000'000}) {
    const double d = retry_backoff(opts, "AFS", 4, attempt);
    EXPECT_TRUE(std::isfinite(d)) << attempt;
    EXPECT_EQ(d, opts.backoff_max) << attempt;
  }
}

TEST(SweepRunner, RetryBackoffGoldenSchedule) {
  // The exact schedule is part of the service contract: clients and the
  // daemon both derive sleeps from it, and operators read these numbers
  // out of logs. Pin it so a "harmless" tweak to the hash or jitter shape
  // shows up as a test diff, not as a silently different fleet cadence.
  SweepOptions opts;  // defaults: base 0.05, max 2.0, seed 0xaf55eed
  const struct {
    const char* label;
    int procs;
    int attempt;
    double delay;
  } golden[] = {
      {"request", 0, 1, 0x1.d9038c80df98cp-5},
      {"request", 0, 2, 0x1.5284c4d65428p-4},
      {"request", 0, 3, 0x1.1e50cfaf2431bp-3},
      {"AFS", 4, 1, 0x1.c700aeeb2b13dp-5},
      {"GSS", 8, 2, 0x1.28bfa07f520e5p-3},
  };
  for (const auto& g : golden)
    EXPECT_EQ(retry_backoff(opts, g.label, g.procs, g.attempt), g.delay)
        << g.label << " P=" << g.procs << " attempt " << g.attempt;
}

TEST(SweepRunner, PoisonedCellIsNeverRetried) {
  // A PoisonedCellError is the sandbox saying "this cell has already
  // crashed its budget of workers" — retrying would just burn more
  // workers, so the runner records it and moves on.
  SweepOptions opts;
  opts.max_retries = 5;
  opts.sleep_fn = [](double) { FAIL() << "poison must not sleep/retry"; };
  int calls = 0;
  std::vector<SweepCellSpec> cells = synthetic_cells({"OK"}, {1});
  cells.push_back({"BAD", 2, [&calls](const CancelToken&) -> SimResult {
                     ++calls;
                     throw PoisonedCellError("quarantined after 3 crashes");
                   }});
  const Collected outcome = run_queue(cells, opts);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(outcome.invariant_break());
  EXPECT_EQ(outcome.results.at("OK").size(), 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "poison");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_NE(outcome.failures[0].message.find("quarantined"),
            std::string::npos);
}

TEST(SweepRunner, DegradedModeIsNeverRetried) {
  // DegradedError means the worker pool is refusing new work entirely;
  // retrying the same cell against a dead pool is pointless.
  SweepOptions opts;
  opts.max_retries = 5;
  opts.sleep_fn = [](double) { FAIL() << "degraded must not sleep/retry"; };
  int calls = 0;
  std::vector<SweepCellSpec> cells{
      {"ANY", 1, [&calls](const CancelToken&) -> SimResult {
         ++calls;
         throw DegradedError("restart budget exhausted; cache-only");
       }}};
  const Collected outcome = run_queue(cells, opts);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "degraded");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
}

TEST(SweepRunner, ExhaustedRetriesIsolateTheFailingCell) {
  SweepOptions opts;
  opts.max_retries = 1;
  opts.sleep_fn = [](double) {};
  std::vector<SweepCellSpec> cells = synthetic_cells({"OK"}, {1, 2});
  cells.push_back({"BAD", 1, [](const CancelToken&) -> SimResult {
                     throw std::runtime_error("always \"broken\"");
                   }});
  const Collected outcome = run_queue(cells, opts);

  EXPECT_FALSE(outcome.complete());
  EXPECT_FALSE(outcome.invariant_break());
  EXPECT_EQ(outcome.results.at("OK").size(), 2u);  // neighbours unaffected
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "error");
  EXPECT_EQ(outcome.failures[0].attempts, 2);  // first try + one retry

  const std::string report =
      failure_report_json("isolate", 3, outcome.failures);
  EXPECT_NE(report.find("\"schema\":\"afs-sweep-failures-v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"sweep\":\"isolate\""), std::string::npos);
  EXPECT_NE(report.find("\"cells_total\":3"), std::string::npos);
  EXPECT_NE(report.find("\"cells_completed\":2"), std::string::npos);
  EXPECT_NE(report.find("\"cells_failed\":1"), std::string::npos);
  EXPECT_NE(report.find("\"scheduler\":\"BAD\",\"procs\":1,"
                        "\"kind\":\"error\",\"attempts\":2"),
            std::string::npos);
  EXPECT_NE(report.find("always \\\"broken\\\""), std::string::npos)
      << "message must be JSON-escaped: " << report;
}

TEST(SweepRunner, InvariantBreakIsNeverRetried) {
  SweepOptions opts;
  opts.max_retries = 5;
  int calls = 0;
  std::vector<SweepCellSpec> cells{
      {"BROKEN", 1, [&calls](const CancelToken&) -> SimResult {
         ++calls;
         AFS_CHECK_MSG(calls == 0, "engine contract violated");  // throws
         return synthetic_result("BROKEN", 1);
       }}};
  const Collected outcome = run_queue(cells, opts);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "invariant");
  EXPECT_TRUE(outcome.invariant_break());
}

TEST(SweepRunner, CellTimeoutInterruptsARealSimulation) {
  // SS over 50M iterations takes ~1s+ of wall clock (one event per grab);
  // a 50 ms deadline must cut it off at an event boundary long before the
  // end, and a timeout is not retried.
  const auto program = balanced_program(50'000'000);
  SweepOptions opts;
  opts.cell_timeout = 0.05;
  std::vector<SweepCellSpec> cells{
      {"SS", 2, [&program](const CancelToken& t) {
         SimOptions o;
         o.cancel = &t;
         MachineSim sim(iris(), o);
         auto sched = make_scheduler("SS");
         return sim.run(program, *sched, 2);
       }}};
  const Collected outcome = run_queue(cells, opts);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "timeout");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_TRUE(outcome.results.empty());  // no partial result escapes
}

TEST(SweepRunner, SweepTimeoutCancelsRunningAndQueuedCells) {
  // Two workers get stuck in cooperative cells; six more cells sit in the
  // queue. When the run deadline fires the stuck cells observe it and
  // the queued cells fail without ever starting.
  SweepOptions opts;
  opts.jobs = 2;
  opts.sweep_timeout = 0.05;
  std::atomic<int> started{0};
  std::vector<SweepCellSpec> cells;
  for (int p = 1; p <= 2; ++p)
    cells.push_back({"STUCK", p, [&started](const CancelToken& t) -> SimResult {
                       started.fetch_add(1);
                       for (;;)
                         if (t.cancelled())
                           throw CancelledError("observed deadline");
                     }});
  for (int p = 1; p <= 6; ++p)
    cells.push_back({"QUEUED", p, [&started, p](const CancelToken&) {
                       started.fetch_add(1);
                       return synthetic_result("QUEUED", p);
                     }});
  const Collected outcome = run_queue(cells, opts);

  EXPECT_EQ(started.load(), 2);  // the queued six never began
  EXPECT_EQ(outcome.failures.size(), 8u);
  EXPECT_FALSE(outcome.invariant_break());
  for (const CellFailure& f : outcome.failures) {
    EXPECT_EQ(f.kind, "cancelled") << f.label;
    if (f.label == "QUEUED") {
      EXPECT_EQ(f.attempts, 0);
    }
  }
}

TEST(SweepRunner, RejectsDuplicateCellsAndBadOptions) {
  // Within one experiment a (label, P) cell is unique: a figure with a
  // repeated scheduler is rejected when it is planned. (Across
  // experiments the same label and P are different cells.)
  auto spec = std::make_shared<FigureSpec>();
  spec->id = "dup";
  spec->machine = iris();
  spec->program = GaussKernel::program(16);
  spec->procs = {2};
  spec->schedulers = {entry("AFS"), entry("AFS")};
  EXPECT_THROW(plan_figure(spec, nullptr), CheckFailure);

  // An edge must point at an earlier cell.
  std::vector<SweepCellSpec> forward = synthetic_cells({"A", "B"}, {1});
  forward[0].after = 1;
  EXPECT_THROW(run_queue(forward, SweepOptions{}), CheckFailure);

  SweepOptions bad;
  bad.jobs = 0;
  EXPECT_THROW(bad.validate(), CheckFailure);
  bad = SweepOptions{};
  bad.backoff_max = bad.backoff_base / 2.0;
  EXPECT_THROW(bad.validate(), CheckFailure);
}

TEST(SweepRunner, CostliestReadyCellStartsFirst) {
  // One worker, so the start order is the queue order: descending cost,
  // declaration order breaking ties.
  CellQueue queue(1);
  SweepOptions opts;
  opts.queue = &queue;  // queued mode, on the borrowed one-worker queue
  std::vector<SweepCellSpec> cells =
      synthetic_cells({"A", "B", "C", "D", "E"}, {1});
  const double costs[] = {1.0, 5.0, 3.0, 5.0, 0.5};
  std::vector<std::size_t> started;
  std::mutex mu;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    cells[k].cost = costs[k];
    cells[k].run = [k, &started, &mu, run = cells[k].run](
                       const CancelToken& t) {
      std::scoped_lock lock(mu);
      started.push_back(k);
      return run(t);
    };
  }
  const Collected c = run_queue(cells, opts);
  EXPECT_TRUE(c.complete());
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 3, 2, 0, 4}));

  // jobs == 1 is the reference: declaration order, whatever the costs.
  started.clear();
  const Collected serial = run_queue(cells, SweepOptions{});
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(serial.order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepRunner, PostedTaskRunsBeforeQueuedCells) {
  // One worker: a task posted while a cell runs starts next, ahead of the
  // cells still queued, and one posted just before the queue is destroyed
  // still runs.
  std::vector<std::string> order;
  std::atomic<bool> last_ran{false};
  {
    CellQueue queue(1);
    SweepOptions opts;
    opts.queue = &queue;
    std::vector<SweepCellSpec> cells = synthetic_cells({"A", "B", "C"}, {1});
    for (std::size_t k = 0; k < cells.size(); ++k) {
      cells[k].cost = 3.0 - static_cast<double>(k);  // A, B, C in turn
      cells[k].run = [&, k, label = cells[k].label,
                      run = cells[k].run](const CancelToken& t) {
        order.push_back(label);
        if (k == 0) queue.post([&order] { order.push_back("task"); });
        return run(t);
      };
    }
    EXPECT_TRUE(run_queue(cells, opts).complete());
    queue.post([&last_ran] { last_ran = true; });
  }
  EXPECT_EQ(order, (std::vector<std::string>{"A", "task", "B", "C"}));
  EXPECT_TRUE(last_ran);
}

TEST(SweepRunner, BatchGrowsUntilClosed) {
  // Cells added to an open batch join its cells already queued: a key
  // repeated from an earlier add runs after its first instance, even on
  // an idle worker; an add with a bad edge adds nothing; a batch closed
  // without cells is never heard from.
  CellQueue queue(2);
  queue.close(queue.open(SweepOptions{}, {}));
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> landed;
  CellQueue::Batch* batch = queue.open(
      SweepOptions{}, {nullptr, [&](std::size_t k, CellOutcome o) {
                         EXPECT_TRUE(o.result) << k;
                         std::scoped_lock lock(mu);
                         landed.push_back(k);
                         cv.notify_all();
                       }});
  std::atomic<bool> second_added{false}, first_done{false}, ordered{false};
  std::vector<SweepCellSpec> first = synthetic_cells({"A"}, {1});
  first[0].key = 7;
  first[0].run = [&](const CancelToken&) {
    while (!second_added) std::this_thread::yield();
    first_done = true;
    return synthetic_result("A", 1);
  };
  queue.add(batch, std::move(first));

  std::vector<SweepCellSpec> bad = synthetic_cells({"X", "Y"}, {1});
  bad[0].after = 2;  // cell 1 of the batch runs after cell 2
  EXPECT_THROW(queue.add(batch, std::move(bad)), CheckFailure);

  std::vector<SweepCellSpec> second = synthetic_cells({"A"}, {1});
  second[0].key = 7;
  second[0].cost = 100.0;
  second[0].run = [&](const CancelToken&) {
    ordered = first_done.load();
    return synthetic_result("A", 1);
  };
  queue.add(batch, std::move(second));
  second_added = true;
  queue.close(batch);
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return landed.size() == 2; });
  std::sort(landed.begin(), landed.end());  // sinks may land in any order
  EXPECT_EQ(landed, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(ordered.load());
}

TEST(SweepRunner, RepeatedKeyRunsAfterItsFirstInstance) {
  // Each repeated key's later instances may start only once the first
  // instance has finished (published, in a store-backed cell) — even when
  // they are costlier, and under four workers.
  for (int round = 0; round < 20; ++round) {
    std::vector<SweepCellSpec> cells;
    auto finished = std::make_shared<std::vector<std::atomic<bool>>>(8);
    std::atomic<int> violations{0};
    for (int k = 0; k < 24; ++k) {
      const int first = k % 8;  // cells 0..7 are first instances
      SweepCellSpec c;
      c.label = "K" + std::to_string(k);
      c.procs = 1;
      c.key = 1000 + static_cast<std::uint64_t>(first);
      c.cost = k;  // later instances are costlier
      c.run = [k, first, finished, &violations](const CancelToken&) {
        if (k == first)
          (*finished)[static_cast<std::size_t>(first)] = true;
        else if (!(*finished)[static_cast<std::size_t>(first)])
          ++violations;
        return synthetic_result("K", 1);
      };
      cells.push_back(std::move(c));
    }
    SweepOptions opts;
    opts.jobs = 4;
    const Collected c = run_queue(std::move(cells), opts);
    EXPECT_TRUE(c.complete());
    EXPECT_EQ(violations.load(), 0) << "round " << round;
  }
}

TEST(SweepRunner, DependentCellSeesItsPredecessorsResult) {
  // tab7's ladder: a baseline cell hands its makespan to the cells that
  // run after it, which scale their inputs by it.
  for (int jobs : {1, 4}) {
    auto baselines = std::make_shared<std::vector<double>>(6, -1.0);
    std::vector<SweepCellSpec> cells;
    for (int b = 0; b < 6; ++b) {
      const int base = static_cast<int>(cells.size());
      SweepCellSpec baseline;
      baseline.label = "BASE" + std::to_string(b);
      baseline.procs = 1;
      baseline.run = [b, baselines](const CancelToken&) {
        SimResult r;
        r.makespan = 100.0 + b;
        (*baselines)[static_cast<std::size_t>(b)] = r.makespan;
        return r;
      };
      cells.push_back(std::move(baseline));
      for (int level = 1; level <= 3; ++level) {
        SweepCellSpec dep;
        dep.label = "DEP" + std::to_string(b);
        dep.procs = level;
        dep.cost = 10.0;  // costlier than its baseline: order is the edge's
        dep.after = base;
        dep.run = [b, level, baselines](const CancelToken&) {
          SimResult r;
          r.makespan = (*baselines)[static_cast<std::size_t>(b)] * level;
          return r;
        };
        cells.push_back(std::move(dep));
      }
    }
    SweepOptions opts;
    opts.jobs = jobs;
    const Collected c = run_queue(std::move(cells), opts);
    ASSERT_TRUE(c.complete());
    for (int b = 0; b < 6; ++b)
      for (int level = 1; level <= 3; ++level)
        EXPECT_EQ(c.results.at("DEP" + std::to_string(b)).at(level).makespan,
                  (100.0 + b) * level)
            << "jobs=" << jobs;
  }
}

TEST(SweepRunner, CellAfterAFailedCellFailsWithoutRunning) {
  SweepOptions opts;
  opts.jobs = 2;
  std::atomic<int> dependents_ran{0};
  std::vector<SweepCellSpec> cells;
  cells.push_back({"BASE", 1, [](const CancelToken&) -> SimResult {
                     AFS_CHECK_MSG(false, "baseline broke");
                     return {};
                   }});
  for (int p = 1; p <= 3; ++p) {
    SweepCellSpec dep{"DEP", p, [&dependents_ran](const CancelToken&) {
                        ++dependents_ran;
                        return synthetic_result("DEP", 1);
                      }};
    dep.after = 0;
    cells.push_back(std::move(dep));
  }
  const Collected c = run_queue(std::move(cells), opts);
  EXPECT_EQ(dependents_ran.load(), 0);
  ASSERT_EQ(c.failures.size(), 4u);
  for (const CellFailure& f : c.failures) {
    EXPECT_EQ(f.kind, "invariant") << f.label;
    if (f.label == "DEP") {
      EXPECT_EQ(f.attempts, 0);
      EXPECT_NE(f.message.find("runs after BASE P=1"), std::string::npos)
          << f.message;
    }
  }
}

TEST(SweepRunner, TokenFiredMidQueueCancelsQueuedCellsUnrun) {
  // The caller's token fires while the first cell runs; every cell still
  // queued fails as "cancelled" with zero attempts and never runs.
  for (int jobs : {1, 2}) {
    CancelToken caller;
    SweepOptions opts;
    opts.jobs = jobs;
    opts.cancel = &caller;
    std::atomic<int> ran{0};
    std::atomic<bool> holder_started{jobs == 1};
    std::vector<SweepCellSpec> cells;
    cells.push_back({"FIRE", 1, [&](const CancelToken&) {
                       ++ran;
                       // Pooled: fire only once the other worker is busy,
                       // so no worker is idle when the token fires.
                       while (!holder_started) {
                       }
                       caller.cancel();
                       return synthetic_result("FIRE", 1);
                     }});
    cells.front().cost = 1.0;  // starts first in pooled mode too
    for (int p = 1; p <= 6; ++p)
      cells.push_back({"QUEUED", p, [&ran](const CancelToken&) {
                         ++ran;
                         return synthetic_result("QUEUED", 1);
                       }});
    if (jobs > 1) {
      // The second worker's cell: running when the token fires, it
      // observes it and stops.
      cells[1].cost = 0.5;
      cells[1].run = [&](const CancelToken& t) -> SimResult {
        ++ran;
        holder_started = true;
        while (!t.cancelled()) {
        }
        throw CancelledError("observed the caller's token");
      };
    }
    const Collected c = run_queue(std::move(cells), opts);
    EXPECT_EQ(ran.load(), jobs) << "jobs=" << jobs;
    ASSERT_EQ(c.failures.size(), 6u) << "jobs=" << jobs;
    int unstarted = 0;
    for (const CellFailure& f : c.failures) {
      EXPECT_EQ(f.kind, "cancelled");
      if (f.attempts == 0) ++unstarted;
    }
    EXPECT_EQ(unstarted, jobs == 1 ? 6 : 5) << "jobs=" << jobs;
  }

  // Two batches on one shared queue: firing one batch's token cancels
  // that batch's queued cells, while the other batch — its token never
  // fired — runs every cell. One worker, so the first batch's cells would
  // all start before the second's if the token did not stop them.
  CellQueue queue(1);
  CancelToken doomed_token;
  std::atomic<int> doomed_ran{0}, kept_ran{0};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<CellOutcome> doomed(7), kept(8);
  int landed = 0;
  const auto sink = [&](std::vector<CellOutcome>& into) {
    return BatchSink{nullptr, [&, out = &into](std::size_t k, CellOutcome o) {
                       std::scoped_lock lock(mu);
                       (*out)[k] = std::move(o);
                       ++landed;
                       cv.notify_all();
                     }};
  };
  std::vector<SweepCellSpec> a;
  a.push_back({"FIRE", 1, [&](const CancelToken& t) -> SimResult {
                 ++doomed_ran;
                 doomed_token.cancel();
                 while (!t.cancelled()) {
                 }
                 throw CancelledError("observed its batch's token");
               }});
  a.front().cost = 10.0;  // the batch's costliest cell: it starts first
  for (int p = 1; p <= 6; ++p)
    a.push_back({"QUEUED", p, [&doomed_ran](const CancelToken&) {
                   ++doomed_ran;
                   return synthetic_result("QUEUED", 1);
                 }});
  std::vector<SweepCellSpec> b;
  for (int p = 1; p <= 8; ++p)
    b.push_back({"OTHER", p, [&](const CancelToken& t) {
                   EXPECT_FALSE(t.cancelled());
                   ++kept_ran;
                   return synthetic_result("OTHER", 1);
                 }});
  SweepOptions a_opts;
  a_opts.cancel = &doomed_token;
  queue.submit(std::move(a), a_opts, sink(doomed));
  queue.submit(std::move(b), SweepOptions{}, sink(kept));
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return landed == 15; });
  }
  EXPECT_EQ(doomed_ran.load(), 1);
  for (const CellOutcome& o : doomed) {
    ASSERT_FALSE(o.result);
    EXPECT_EQ(o.failure.kind, "cancelled");
  }
  EXPECT_EQ(kept_ran.load(), 8);
  for (const CellOutcome& o : kept) EXPECT_TRUE(o.result);

  // A batch whose token fired before it was submitted runs nothing.
  CancelToken already;
  already.cancel();
  SweepOptions late;
  late.cancel = &already;
  late.queue = &queue;
  std::atomic<int> late_ran{0};
  const Collected c = run_queue(
      synthetic_cells({"LATE"}, {1, 2, 3}, &late_ran), late);
  EXPECT_EQ(late_ran.load(), 0);
  ASSERT_EQ(c.failures.size(), 3u);
  for (const CellFailure& f : c.failures) {
    EXPECT_EQ(f.kind, "cancelled");
    EXPECT_EQ(f.attempts, 0);
  }
}

}  // namespace
}  // namespace afs
