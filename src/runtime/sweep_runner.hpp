// The run queue: every cell of a run — all the experiments one
// `afs_sweep run` or daemon request selected — on one pool, and in the
// daemon every request's cells on the same pool.
//
// A cell is one simulation, loaded from the store or simulated. Cell
// costs are skewed (under a millisecond to over half a second), which is
// the paper's own problem one level up: a self-scheduled queue of coarse,
// skewed units loses at the tail unless the big units start first. So
// the queue starts the costliest ready cell first and hands each outcome
// back to its submitter as it lands, with production-harness semantics:
//
//   * per-cell fault isolation — an exception inside one cell becomes a
//     structured CellFailure record; the rest of the queue completes;
//   * deadline + retry — each cell attempt gets its own token with a
//     wall-clock timeout (enforced cooperatively via CancelToken at
//     simulation event boundaries), and transient errors are retried with
//     bounded exponential backoff whose schedule is derived from a seed,
//     so reruns behave identically;
//   * ordering edges — a cell may run after an earlier one: a repeated
//     store key after its first instance (so its lookup hits), or a cell
//     whose inputs depend on another's result (tab7's fault ladder);
//   * graceful degradation — the caller still gets every completed cell
//     plus the failure list; only invariant breaks (CheckFailure) are
//     meant to fail a binary.
//
// A CellQueue is long-lived and shared: each submitter adds a *batch* —
// its cells, options, parent token and outcome sink — and all batches
// run on the one worker pool: the earliest batch's costliest ready cell
// first, a later batch's cells on the workers the earlier ones leave
// idle. A batch may grow until it is closed, so a submitter can hand
// over cells as it plans them. run_sweep() is one batch, waited for.
// Submitters may also post plain tasks (a run's block renders), which
// workers take before cells.
// The store is the only checkpoint: a killed run resumes by rerunning
// over the same store.
//
// Determinism: each cell builds its own scheduler and a reset simulator,
// so its SimResult depends only on (machine, program, scheduler, P, seed)
// — not on which thread ran it or in what order. With jobs == 1 and no
// queue every cell runs in the caller's thread in declaration order, the
// bit-identity reference. See docs/SWEEP_RUNNER.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "sim/sim_result.hpp"
#include "util/cancel.hpp"

namespace afs {

class CellQueue;

/// One unit of the queue. `run` must be thread-safe against the other
/// cells' closures (each should build its own simulator/scheduler) and
/// should poll the token (SimOptions::cancel does this) so deadlines can
/// interrupt it.
struct SweepCellSpec {
  std::string label;  ///< scheduler label, for reports and logs
  int procs = 0;      ///< processor count, likewise
  std::function<SimResult(const CancelToken&)> run;
  /// Estimated host cost (any unit): the pool starts the costliest ready
  /// cell first, declaration order breaking ties.
  double cost = 0.0;
  /// Store key hash, 0 for none. A key repeated later in the queue runs
  /// after its first instance, so its lookup sees what the first
  /// published.
  std::uint64_t key = 0;
  /// Index of an earlier cell this one runs after, or -1. A cell whose
  /// predecessor failed fails the same way without running.
  int after = -1;
};

/// Structured record of a cell that did not produce a result.
struct CellFailure {
  std::string label;
  int procs = 0;
  /// "timeout"   — the cell's own deadline fired;
  /// "cancelled" — the batch's token fired (caller abort, request
  ///               deadline or --sweep-timeout) before or during the
  ///               cell, including queued cells never started;
  /// "invariant" — CheckFailure: a broken engine/scheduler contract;
  /// "poison"    — PoisonedCellError: the cell crashed its executor's
  ///               workers repeatedly and is blacklisted (never retried);
  /// "degraded"  — DegradedError: the executor is in cache-only mode
  ///               (worker restart budget exhausted; never retried);
  /// "error"     — any other exception, after retries were exhausted.
  /// A cell that runs after a failed cell inherits that cell's kind.
  std::string kind;
  std::string message;  ///< what() of the final attempt
  int attempts = 0;     ///< attempts actually made (0 = never started)
};

/// What became of one cell: a result, or the failure that replaced it.
struct CellOutcome {
  std::optional<SimResult> result;
  CellFailure failure;  ///< meaningful only without a result
};

struct SweepOptions {
  int jobs = 1;              ///< worker threads; 1 = serial in-caller-thread
  double cell_timeout = 0.0;   ///< seconds of wall clock per attempt; 0 = off
  double sweep_timeout = 0.0;  ///< seconds for the whole batch; 0 = off
  int max_retries = 2;         ///< re-attempts after the first try
  double backoff_base = 0.05;  ///< seconds; first retry delay scale
  double backoff_max = 2.0;    ///< seconds; backoff growth cap
  std::uint64_t retry_seed = 0xaf55eedULL;  ///< jitters the retry schedule
  /// Borrowed long-lived queue (not owned) for run_sweep: its cells run
  /// there, beside any other batches, whatever `jobs` says. Without one,
  /// jobs > 1 builds a private queue of `jobs` workers, and jobs == 1
  /// runs the cells in the caller's thread.
  CellQueue* queue = nullptr;
  /// Optional parent cancellation token (not owned; must outlive the
  /// batch). The batch token is its child, so a caller-side abort — a
  /// service request deadline, a SIGINT in the batch driver — cancels
  /// like --sweep-timeout: running cells stop at the next event boundary
  /// and queued cells fail as "cancelled" without starting.
  const CancelToken* cancel = nullptr;
  /// Test hook: replaces the real backoff sleep (argument in seconds).
  std::function<void(double)> sleep_fn;

  /// Throws CheckFailure naming the offending field on invalid values.
  void validate() const;
};

/// Receives cell k's outcome.
using CellDoneFn = std::function<void(std::size_t k, CellOutcome outcome)>;

/// How a batch's submitter hears back. Both run on the queue's worker
/// threads, never two at once for one batch, and must not throw (one
/// that does ends the program rather than lose an outcome).
struct BatchSink {
  /// Optional: the batch's first cell is about to start.
  std::function<void()> on_start;
  /// Cell k's outcome, once per cell, as it lands.
  CellDoneFn on_done;
};

/// The long-lived cell queue: `workers` threads shared by every batch
/// submitted to it. Ready cells of all batches wait in one heap: batches
/// in submission order, a batch's cells costliest first (declaration
/// order breaking ties), so a worker only takes a later batch's cell when
/// no earlier batch has one ready: batches interleaved by cost would each
/// finish about when all of them do. A cell becomes ready once the cell
/// it runs after has landed. A batch whose token fires has its queued cells
/// failed as "cancelled" without running, while the other batches' cells
/// run on. Plain tasks (post) wait in a FIFO lane that workers take
/// before any cell.
class CellQueue {
 public:
  /// A batch: a handle from open(), valid until close().
  struct Batch;

  explicit CellQueue(int workers);
  /// Waits for every batch to be closed and land, then joins the workers.
  ~CellQueue();

  CellQueue(const CellQueue&) = delete;
  CellQueue& operator=(const CellQueue&) = delete;

  /// Opens an empty batch under `opts` (its timeouts, retries and parent
  /// token; `jobs` and `queue` are the queue's business). Retry notices
  /// and failures go to `log` when non-null.
  Batch* open(const SweepOptions& opts, BatchSink sink,
              std::ostream* log = nullptr);

  /// Appends `cells` to open `batch` and returns at once: they are
  /// numbered after its earlier cells, rank by cost among all of them,
  /// and may run after any earlier cell, a repeated key after its first
  /// instance in any earlier add. Edges are checked first: throws
  /// CheckFailure, adding nothing, on a cell without a runner or label,
  /// or one that runs after a later cell. Each cell's closure is
  /// released once it has run.
  void add(Batch* batch, std::vector<SweepCellSpec> cells);

  /// No more cells come: the batch lands once every cell added has. A
  /// batch closed without cells is never heard from.
  void close(Batch* batch);

  /// open, add and close: `cells` as one batch.
  void submit(std::vector<SweepCellSpec> cells, const SweepOptions& opts,
              BatchSink sink, std::ostream* log = nullptr);

  /// Runs `task` on the next free worker, ahead of every queued cell, and
  /// returns at once. Tasks start in posting order; one posted before the
  /// queue is destroyed still runs. A task must not throw (one that does
  /// ends the program).
  void post(std::function<void()> task);

 private:
  struct Ready {
    double cost;
    std::uint64_t batch;  // submission order
    std::size_t cell;     // declaration order within the batch
    Batch* owner;
    /// Heap order: the earliest batch on top, then its costliest cell,
    /// then its earliest-declared one.
    bool operator<(const Ready& o) const;
  };

  void worker_loop();
  /// Pre: mu_ held. Moves the queued cells of every batch whose token
  /// has fired out of the heap into `doomed`.
  void take_cancelled(std::vector<Ready>& doomed);
  /// Runs (or fails) one popped cell and hands its outcome over.
  void run_cell(const Ready& r);
  /// Pre: mu_ held; b is closed and landed. Takes b out of batches_.
  std::shared_ptr<Batch> retire(Batch& b);

  std::mutex mu_;
  std::condition_variable work_cv_;  // a cell or task became ready, or stop_
  std::condition_variable idle_cv_;  // a batch closed and fully landed
  std::vector<Ready> ready_;         // max-heap by Ready::operator<
  std::deque<std::function<void()>> tasks_;  // posted, not started
  std::vector<std::shared_ptr<Batch>> batches_;  // opened, not landed
  std::uint64_t next_batch_ = 0;
  bool stop_ = false;
  std::mutex log_mu_;  // one log line at a time, across batches
  ThreadPool pool_;    // runs one worker_loop per thread
};

/// Sets the edges of a batch — a cell keeps an explicit `after`, else a
/// repeated key runs after its first instance — and checks them: throws
/// CheckFailure on a cell without a runner or label, or one that runs
/// after a later cell.
void link_cells(std::vector<SweepCellSpec>& cells);

/// Runs `cells` as one batch under `opts` and waits for it: on
/// opts.queue when set, else with jobs > 1 on a private queue, costliest
/// ready cell first; with jobs == 1 in the caller's thread in declaration
/// order. Calls `on_done` once per cell, on the caller's thread, as each
/// cell finishes. Retry notices and failures go to `log` when non-null.
/// If `on_done` throws, the batch is cancelled and its remaining cells
/// land before the exception propagates.
void run_sweep(std::vector<SweepCellSpec> cells, const SweepOptions& opts,
               const CellDoneFn& on_done, std::ostream* log = nullptr);

/// The deterministic retry schedule: the delay (seconds) before retry
/// `attempt` (1-based: the delay after the attempt-th failed try) of cell
/// (label, procs). Exponential in `attempt` with seeded jitter in
/// [0.5, 1.5), clamped to opts.backoff_max. Pure — two calls with the same
/// arguments always agree, which is what makes reruns reproducible.
double retry_backoff(const SweepOptions& opts, const std::string& label,
                     int procs, int attempt);

/// Exact text serialization of a SimResult (hexfloat doubles, decimal
/// integers, trailing end marker) — the store's entry payload.
/// parse_sim_result round-trips it bit-identically; it returns false on
/// any truncation, unknown schema or malformed field. It parses in place,
/// reading the hexfloats with std::from_chars; a value in any other form
/// gets strtod's (or strtoll's) verdict, as the entry format always has.
std::string serialize_sim_result(const SimResult& r);
bool parse_sim_result(std::string_view text, SimResult& out);

/// Reads all of `s` as strtoll(…, 10) reads a NUL-terminated copy of it —
/// the verdict and value the store's text formats have always given —
/// with std::from_chars when `s` is a plain decimal.
bool parse_decimal(std::string_view s, std::int64_t& v);

/// Machine-readable failure report (schema "afs-sweep-failures-v1"; see
/// docs/SWEEP_RUNNER.md) of one experiment: its id, cell counts and its
/// failures, sorted by (label, procs).
std::string failure_report_json(const std::string& sweep_id, int cells_total,
                                std::vector<CellFailure> failures);

}  // namespace afs
