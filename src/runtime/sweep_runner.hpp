// The run queue: every cell of a run — all the experiments one
// `afs_sweep run` or daemon request selected — on one pool.
//
// A cell is one simulation, loaded from the store or simulated. Cell
// costs are skewed (under a millisecond to over half a second), which is
// the paper's own problem one level up: a self-scheduled queue of coarse,
// skewed units loses at the tail unless the big units start first. So
// run_sweep() starts the costliest ready cell first and hands each
// outcome back to the caller's thread as it lands, with production-
// harness semantics:
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
// The store is the only checkpoint: a killed run resumes by rerunning
// over the same store.
//
// Determinism: each cell builds its own scheduler and a reset simulator,
// so its SimResult depends only on (machine, program, scheduler, P, seed)
// — not on which thread ran it or in what order. With jobs == 1 every
// cell runs in the caller's thread in declaration order, the bit-identity
// reference. See docs/SWEEP_RUNNER.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/sim_result.hpp"
#include "util/cancel.hpp"

namespace afs {

class ThreadPool;

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
  /// "cancelled" — the queue-wide token fired (caller abort or
  ///               --sweep-timeout) before or during the cell, including
  ///               queued cells never started;
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
  double sweep_timeout = 0.0;  ///< seconds for the whole queue; 0 = off
  int max_retries = 2;         ///< re-attempts after the first try
  double backoff_base = 0.05;  ///< seconds; first retry delay scale
  double backoff_max = 2.0;    ///< seconds; backoff growth cap
  std::uint64_t retry_seed = 0xaf55eedULL;  ///< jitters the retry schedule
  /// Borrowed worker pool (not owned), so every run in a process (the
  /// daemon's requests) shares one set of worker threads. It must be idle
  /// when run_sweep is called; run_sweep drains it before returning.
  /// Without one, jobs > 1 builds a private pool of `jobs` threads. With
  /// jobs == 1 the pool is ignored and cells run in the caller's thread.
  ThreadPool* pool = nullptr;
  /// Optional parent cancellation token (not owned; must outlive the
  /// run). The queue-wide token is its child, so a caller-side abort — a
  /// service request deadline, a SIGINT in the batch driver — cancels
  /// like --sweep-timeout: running cells stop at the next event boundary
  /// and queued cells fail as "cancelled" without starting.
  const CancelToken* cancel = nullptr;
  /// Test hook: replaces the real backoff sleep (argument in seconds).
  std::function<void(double)> sleep_fn;

  /// Throws CheckFailure naming the offending field on invalid values.
  void validate() const;
};

/// Receives cell k's outcome, on the caller's thread.
using CellDoneFn = std::function<void(std::size_t k, CellOutcome outcome)>;

/// Runs `cells` as one queue under `opts`: with jobs > 1 on the pool,
/// costliest ready cell first; with jobs == 1 in the caller's thread in
/// declaration order. Calls `on_done` once per cell, on the caller's
/// thread, as each cell finishes, and releases each cell's closure as it
/// finishes. Retry notices and failures go to `log` when non-null. If
/// `on_done` throws, the queue is cancelled and drained before the
/// exception propagates.
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
/// any truncation, unknown schema or malformed field.
std::string serialize_sim_result(const SimResult& r);
bool parse_sim_result(const std::string& text, SimResult& out);

/// Machine-readable failure report (schema "afs-sweep-failures-v1"; see
/// docs/SWEEP_RUNNER.md) of one experiment: its id, cell counts and its
/// failures, sorted by (label, procs).
std::string failure_report_json(const std::string& sweep_id, int cells_total,
                                std::vector<CellFailure> failures);

}  // namespace afs
