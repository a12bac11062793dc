// Figure/table harness: runs a LoopProgram under a set of schedulers over
// a processor sweep on a simulated machine, collects completion times and
// metric breakdowns, prints the paper's series and writes CSV.
//
// Every registered figure experiment (experiments/registry.hpp) is a thin
// declaration of one FigureSpec plus its paper shape checks. For the run
// queue a figure splits into a plan — one cell per (scheduler, P) — and a
// render step that builds its block, CSV and shape checks from the
// cells' outcomes (plan_figure).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "machines/machine_config.hpp"
#include "runtime/cell_executor.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine_sim.hpp"
#include "trace/trace_record.hpp"
#include "util/table.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

class CellStore;  // store/result_store.hpp — optional, see FigureSpec
struct CellKey;     // store/cell_key.hpp

/// A named scheduler factory. A fresh scheduler is built per (P, run) so
/// state (caches of the sim persist per run; scheduler stats do not leak).
struct SchedulerEntry {
  std::string label;
  /// Store identity of the scheduler this factory builds (normally the
  /// make_scheduler spec string). Empty = opaque factory: the cell is
  /// always simulated, never served from or written to the result store.
  std::string key;
  std::function<std::unique_ptr<Scheduler>()> make;
};

/// Factory from a registry spec string (label and store key default to
/// the spec).
SchedulerEntry entry(const std::string& spec);
/// Opaque factory: no store key, so its cells bypass the result store.
SchedulerEntry entry(std::string label,
                     std::function<std::unique_ptr<Scheduler>()> make);
/// Factory with an explicit store key. Use only when `key`, together with
/// the program key, fully determines the scheduler's behavior (e.g. a
/// BEST-STATIC oracle derived from a cost model of that same program).
SchedulerEntry entry(std::string label, std::string key,
                     std::function<std::unique_ptr<Scheduler>()> make);

struct FigureSpec {
  std::string id;     ///< e.g. "fig04"
  std::string title;  ///< e.g. "Gaussian elimination on the Iris (N=768)"
  MachineConfig machine;
  LoopProgram program;
  std::vector<int> procs;
  std::vector<SchedulerEntry> schedulers;
  SimOptions sim_options;
  std::string out_dir = "bench_results";  ///< where <id>.csv lands
  /// When set, every (scheduler, P) sweep cell streams its own .cctrace
  /// to trace_cell_path(out_dir, id, label, P), finalized atomically
  /// when the cell completes and discarded when it fails — so tracing
  /// composes with parallel (--jobs=N) runs: cells never share a writer.
  bool trace = false;
  /// Optional content-addressed result store (not owned). When set, each
  /// cacheable (scheduler, P) cell — program and scheduler both carry
  /// store keys, and the run is neither traced nor host-timed — is first
  /// looked up by its CellKey and only simulated on a miss, after which
  /// the result is published for every future sweep. Served results are
  /// bit-identical to simulated ones (the store authenticates the full
  /// key text and the serializer round-trips exactly).
  CellStore* store = nullptr;
  /// Optional out-of-process executor (not owned) plus the declarative
  /// recipe a worker needs to rebuild this spec (runtime/
  /// cell_executor.hpp). When both are set, each store-missed cell is
  /// dispatched to the executor instead of simulating in-process — except
  /// traced and host-timed cells, whose side outputs (trace files, phase
  /// timers) do not travel over the wire; those always run in-process.
  /// Store hits are still served locally, which is what makes the
  /// executor's degraded mode genuinely cache-only.
  CellExecutor* executor = nullptr;
  CellExecSpec exec;
};

struct FigureResult {
  FigureSpec spec() = delete;  // (avoid accidental copies of the program)
  std::string id;
  /// results[scheduler_label][P] = simulation result (completed cells).
  std::map<std::string, std::map<int, SimResult>> results;
  double serial_time = 0.0;
  /// Cells that produced no result (timeout, retries exhausted, invariant
  /// break, sweep abort); empty on a fully successful sweep. The CSV and
  /// completion table cover the completed cells regardless.
  std::vector<CellFailure> failures;
  int cells_total = 0;

  double time(const std::string& label, int p) const;
  /// Completion-time table: rows = P, one column per scheduler.
  Table completion_table() const;
  /// Speedup of `a` over `b` at processor count p: time(b)/time(a).
  double advantage(const std::string& a, const std::string& b, int p) const;
};

/// One experiment split for the run queue: its cells, and a render step
/// that writes its block (everything under its "== id: title ==" header)
/// — tables, CSVs, shape checks — to `out` from the cells' outcomes,
/// indexed like `cells`, writes any diagnostics meant for stderr to `err`,
/// and returns the experiment's exit code.
using RenderFn = std::function<int(std::vector<CellOutcome>&,
                                   std::ostream& out, std::ostream& err)>;
struct ExperimentPlan {
  std::vector<SweepCellSpec> cells;
  RenderFn render;
};

/// Plans `spec` as one cell per (scheduler, P), in declaration order.
/// Each cell is served from spec->store when it holds the cell, else
/// simulated (in spec->executor's sandbox when it can be) and published.
/// The render prints the completion table, writes <out_dir>/<id>.csv
/// (covering every completed cell) and <id>.failures.json when cells
/// failed, then runs `shapes` on a complete grid; it exits nonzero only
/// on an invariant break. When `keep` is set, the render also moves the
/// merged result there.
ExperimentPlan plan_figure(
    std::shared_ptr<const FigureSpec> spec,
    std::function<bool(const FigureResult&, std::ostream&)> shapes,
    FigureResult* keep = nullptr);

/// Runs one figure on its own queue (plan_figure without shape checks),
/// printing its header and block to `out`. The default overload runs
/// serially, the bit-identity reference.
FigureResult run_figure(const FigureSpec& spec, std::ostream& out);
FigureResult run_figure(const FigureSpec& spec, std::ostream& out,
                        const SweepOptions& sweep);

/// Host-cost estimate of simulating `program`, per processor: the
/// iterations the engine steps one at a time (a footprint-free loop with
/// an analytic work_sum is charged per chunk, counted as one). A cell's
/// queue cost is this times its P. A program that states its cost
/// (LoopProgram::cost) is not expanded.
double program_cost(const LoopProgram& program);

/// A cell's SweepCellSpec::key: the key's hash, or 0 when uncacheable.
std::uint64_t key_hash(const CellKey& key);

/// The body every cell shares: serves `key` from `store` when it holds
/// it, else runs `simulate` and publishes its result (cacheable keys
/// only). Without a store it only simulates; while the store is probing
/// a miss returns an empty result without simulating.
SimResult load_or_simulate(CellStore* store, const CellKey& key,
                           const std::function<SimResult()>& simulate);

/// One simulation on this thread's warm simulator (or a fresh one when
/// options.epoch_batch is unset).
SimResult simulate_cell(const MachineConfig& machine,
                        const LoopProgram& program, Scheduler& sched,
                        int procs, const SimOptions& options);

/// Simulates exactly one (scheduler, P) cell of `spec` — the shared body
/// of the in-process sweep path and the sandbox worker's cell op, so both
/// produce bit-identical results by construction. Honors the test-only
/// AFS_CRASH_CELL hook ("<id>:<label>:<P>" in the environment makes that
/// one cell abort(), which is how CI proves a crash kills only a worker).
SimResult run_figure_cell(const FigureSpec& spec, const SchedulerEntry& se,
                          int procs, const SimOptions& options);

/// Epoch batching: this thread's warm simulator for (machine, options) —
/// constructed on first use, then reused for every subsequent cell whose
/// machine and options match, so repeated runs keep the warmed ProcCache/
/// Directory/event-ring allocations instead of rebuilding them per run.
/// The per-cell observer pointers (trace sink, cancellation token) are
/// re-attached on every call; a run() resets all simulated state, so a
/// warm simulator is behaviorally identical to a fresh one. Callers with
/// options.epoch_batch unset should construct their own simulator.
MachineSim& warm_machine_sim(const MachineConfig& machine,
                             const SimOptions& options);

/// Writes one long-format CSV (figure, scheduler, procs, time, speedup,
/// busy, sync, comm, idle, misses, steals) for downstream plotting.
void write_figure_csv(const FigureResult& result, const std::string& path);

/// Writes the engine's host wall-clock phase breakdown (one aggregate per
/// scheduler plus a sweep-wide total) as JSON. Only meaningful for runs
/// with SimOptions::time_phases set; cells without collected timers are
/// skipped and counted in "cells_untimed". Render with
/// tools/phase_report.py.
void write_phases_json(const FigureResult& result, const std::string& path);

/// Writes <out_dir>/<id>.failures.json (failure_report_json) when any
/// cell failed, else removes a stale one from an earlier run; returns its
/// path.
std::string publish_failure_report(const std::string& out_dir,
                                   const std::string& id, int cells_total,
                                   const std::vector<CellFailure>& failures);

}  // namespace afs
