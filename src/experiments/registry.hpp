// The experiment registry: every figure/table reproduction the repo knows
// how to run, keyed by id ("fig03".."fig17", "tab2".."tab7",
// "ablation_afs", "trend_comm_ratio", "frontier_tradeoff").
//
// Each entry plans its cells (a FigureSpec grid or a bespoke table's
// rows) and renders its block and paper shape checks from their results,
// so the afs_sweep driver — the one entry point, `afs_sweep run <id>` —
// runs any subset of experiments as one cell queue on one worker pool
// over one content-addressed result store, and the daemon answers a
// request's store hits at admission and queues only its misses
// (docs/SWEEP_RUNNER.md, docs/SWEEP_SERVICE.md).
#pragma once

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "experiments/figure.hpp"
#include "kernels/l4.hpp"
#include "kernels/transitive_closure.hpp"
#include "sim/machine_sim.hpp"
#include "store/cell_key.hpp"

namespace afs {

class CellStore;
class StoreView;

enum class ExperimentKind {
  kFigure,  ///< a FigureSpec grid of (scheduler, P) cells
  kTable,   ///< a bespoke table, rendered only from a complete set of cells
  kMicro,   ///< no experiment has this kind; kept for perf/workloads.cpp
};

/// Everything an experiment needs from its caller. The store is borrowed
/// (not owned) and optional: without one every cell is simulated.
struct ExperimentContext {
  bench::BenchCli cli;
  CellStore* store = nullptr;
  /// Optional caller-side cancellation (not owned): a service request
  /// deadline or the batch driver's SIGINT/SIGTERM token. The queue
  /// chains it under SweepOptions::cancel; once it fires, running cells
  /// stop at the next event boundary, queued cells never start, and no
  /// further block renders.
  const CancelToken* cancel = nullptr;
  /// Optional out-of-process cell executor (not owned): the supervised
  /// worker sandbox under --isolation=process. Figure cells dispatch
  /// store misses through it when untraced and untimed; bespoke tables
  /// (whose programs exist only as closures) always run in-process.
  CellExecutor* executor = nullptr;
  /// Where the queue reports retries and cell failures as they happen
  /// (not owned; null = nowhere). Blocks go to the run's own stream.
  std::ostream* log = nullptr;
  /// Optional observer of per-cell failures, invoked once per failed cell
  /// when its experiment's block renders (experiment id + the structured
  /// failure). The daemon uses it to stream "cell_error" responses for
  /// poisoned/degraded cells without re-parsing the failure report file.
  std::function<void(const std::string&, const CellFailure&)> on_cell_failure;
};

struct Experiment {
  std::string id;
  std::string title;
  ExperimentKind kind = ExperimentKind::kFigure;
  /// CSV basenames this experiment writes under out_dir (without ".csv"):
  /// usually just {id}; ablation_afs writes five.
  std::vector<std::string> csv_ids;
  /// Splits the experiment under `ctx` into its cells and render step.
  /// The render's exit code is nonzero only for failed cells that leave
  /// the experiment without its result (invariant breaks; any failure in
  /// a table), never for shape mismatches — those are data.
  std::function<ExperimentPlan(const ExperimentContext&)> plan;
  /// Rebuilds the experiment's FigureSpec (figure experiments only; null
  /// for tables). This is what lets a sandbox worker rerun one
  /// cell of a registered figure from nothing but the experiment id.
  std::function<FigureSpec()> make_spec;
};

/// All registered experiments in canonical order (figures, tables,
/// extras). Stable across calls.
const std::vector<Experiment>& all_experiments();

/// Lookup by id; nullptr when unknown.
const Experiment* find_experiment(const std::string& id);

/// Experiments planned one after another, whose blocks — "== id:
/// title ==" plus the render — print in the given order as the cells'
/// outcomes land: a block prints once it and every block before it are
/// complete, and its plan and results are released then. A block renders
/// on the thread that prints it, or under stream on a queue worker as
/// soon as its own cells are in. Once ctx.cancel fires no render starts;
/// the blocks whose render started before it still print, up to the
/// first that did not render. run_experiments feeds it from run_sweep
/// (--jobs=1) or streams it (stream); the daemon serves a request's store
/// hits at admission (take_misses) and feeds it the rest from its shared
/// queue. Outcomes may land on any thread.
class ExperimentRun {
 public:
  /// Prints the first experiment's header before anything is planned:
  /// the first byte is the run's set-up latency. `experiments` must not
  /// be empty; the context must outlive the run.
  ExperimentRun(std::vector<const Experiment*> experiments,
                const ExperimentContext& ctx, std::ostream& out);

  /// Plans every experiment and returns their cells, in experiment then
  /// declaration order. Call once.
  std::vector<SweepCellSpec> take_cells();

  /// Admission: runs each cell's closure with `view` (the store the
  /// cells were planned with) probing, so a stored cell lands at once
  /// and a missing one stops before it simulates. Returns the cells
  /// still to run, in order, with `index` mapping each back to its plan
  /// index. A cell that runs after one still to run (a repeated key, a
  /// dependent cell) is not looked up now: it runs after that one, edge
  /// remapped. Call once, instead of take_cells.
  std::vector<SweepCellSpec> take_misses(StoreView& view,
                                         std::vector<std::size_t>& index);

  /// Plans each experiment in turn and adds its cells to one batch on
  /// `queue`, under `opts`, as soon as it is planned: the workers load
  /// and render the early blocks while this thread plans the rest. Each
  /// block renders on a worker once its last cell lands, and prints from
  /// there as soon as it and every block before it have rendered;
  /// on_cell_failure fires as each block prints. Call once, instead of
  /// take_cells, then finish().
  void stream(CellQueue& queue, const SweepOptions& opts);

  /// Files cell k's outcome and prints every block now complete (under
  /// stream, posts the block's render once it is complete).
  void land(std::size_t k, CellOutcome outcome);

  /// Once every cell was handed out: waits until each has landed and
  /// each render is done. Under stream, call it before the run is
  /// destroyed.
  void finish();

  /// The experiments, in block order.
  const std::vector<const Experiment*>& experiments() const {
    return experiments_;
  }
  /// How many cells the experiments planned.
  std::size_t cell_count() const { return owner_.size(); }
  /// One exit code per printed block; fewer than experiments().size()
  /// until every block printed, or for good once ctx.cancel stopped a
  /// render.
  const std::vector<int>& codes() const { return codes_; }

 private:
  struct Block {
    RenderFn render;
    std::vector<CellOutcome> outcomes;
    std::size_t first = 0;    // index of the block's first cell
    std::size_t pending = 0;  // cells not landed yet
    int code = EXIT_FAILURE;            // the render's exit code
    std::string err;                    // its diagnostics, for std::cerr
    std::optional<std::string> error;   // what() of a render that threw
    // Under stream, what the worker leaves for the printer:
    std::vector<CellFailure> failures;  // for on_cell_failure
    std::string text;                   // the block under its header
    bool ran = false;       // ctx.cancel had not fired when it started
    bool rendered = false;  // the posted task is done
  };

  bool cancelled() const;
  void header(const Experiment& e);
  /// Plans the next experiment and returns its cells, numbered after
  /// every cell planned before.
  std::vector<SweepCellSpec> plan_next();
  /// Pre: mu_ held. Block b has all its cells: render it, or print.
  void complete(Block& b);
  /// Runs b's render into `out`, noting its code, its diagnostics and
  /// the error it threw.
  static void render(Block& b, std::ostream& out);
  /// Pre: mu_ held.
  void post_render(Block& b);
  /// Pre: mu_ held. Prints the blocks ready in order, up to the first
  /// that did not render.
  void print_ready();

  std::vector<const Experiment*> experiments_;
  const ExperimentContext& ctx_;
  std::ostream& out_;
  CellQueue* queue_ = nullptr;  // where blocks render, if not here
  // Everything below is guarded by mu_: outcomes land and renders finish
  // on workers while this thread plans.
  std::mutex mu_;
  std::condition_variable done_cv_;  // the last cell landed, or a render
  std::deque<Block> blocks_;  // one per planned experiment; never moves
  std::vector<std::size_t> owner_;  // cell -> block
  std::size_t unlanded_ = 0;        // planned cells not landed
  std::size_t rendering_ = 0;       // posted renders not done
  std::size_t next_ = 0;            // first block not printed
  std::vector<int> codes_;
};

/// The queue options of a run under `ctx`: --jobs, the cell and sweep
/// timeouts, --cell-retries and the caller's token.
SweepOptions sweep_options(const ExperimentContext& ctx);

/// Runs `experiments` as one queue: under --jobs an ExperimentRun
/// streamed into one batch, every cell on the one pool, costliest ready
/// cell first, and each block's render on the same workers once its cells
/// are in; --jobs=1 plans them all, then runs cells and renders in the
/// caller, in registry and declaration order. Each block prints in the
/// given order as soon as it and every block before it are complete.
/// Returns one exit code per printed block; fewer than
/// experiments.size() only when ctx.cancel fired. `cells`, when given,
/// receives the number of cells planned.
std::vector<int> run_experiments(
    const std::vector<const Experiment*>& experiments,
    const ExperimentContext& ctx, std::ostream& out,
    std::size_t* cells = nullptr);

// ---------------- helpers for registering experiments ---------------------

/// Packages a lazily-built FigureSpec + shape checks as an Experiment.
/// Its plan applies the shared CLI to the spec (procs override, out-dir,
/// --time-phases, per-cell tracing) and wires in the context's store and
/// executor (plan_figure).
Experiment figure_experiment(
    std::string id, std::string title, std::function<FigureSpec()> make_spec,
    std::function<bool(const FigureResult&, std::ostream&)> shapes);

/// Packages a bespoke table as an Experiment. A table's rows are
/// interdependent, so its render runs only on a complete set of cells;
/// otherwise the block reports the failed cells (and
/// <out-dir>/<id>.failures.json) and the experiment exits 1.
Experiment table_experiment(
    std::string id, std::string title, std::vector<std::string> csv_ids,
    std::function<ExperimentPlan(const ExperimentContext&)> plan);

/// A program shared by a table's cells, with its per-processor cost
/// estimate (program_cost) computed once.
struct SharedProgram {
  explicit SharedProgram(LoopProgram p)
      : program(std::make_shared<const LoopProgram>(std::move(p))),
        cost(program_cost(*program)) {}
  std::shared_ptr<const LoopProgram> program;
  double cost;
};

/// A machine and the options a table's cells run it under, shared by
/// those cells, with the store-key prefix they share rendered once.
struct SharedMachine {
  struct Setting {
    MachineConfig machine;
    SimOptions options;
    CellKeyPrefix key;
  };
  explicit SharedMachine(MachineConfig machine, SimOptions options = {});
  std::shared_ptr<const Setting> setting;
};

/// A table cell: `sched_spec` — a make_scheduler() spec, which doubles as
/// the scheduler's store key — running `program` on `machine` at `procs`
/// under its options, served from the context's store when it holds the
/// cell, else simulated on the worker's warm simulator and published.
/// `label` names the cell in failure reports.
SweepCellSpec table_cell(const ExperimentContext& ctx, std::string label,
                         const SharedMachine& machine,
                         const SharedProgram& program,
                         const std::string& sched_spec, int procs);

/// The body of a table cell, for cells whose options are only known when
/// they run (they depend on an earlier cell's result).
SimResult run_table_cell(CellStore* store, const MachineConfig& machine,
                         const LoopProgram& program,
                         const std::string& sched_spec, int procs,
                         SimOptions options, const CancelToken& token);

/// The transitive-closure graphs that registered experiments run.
enum class ClosureGraph {
  kRandom512,   ///< random_graph(512, 0.08, 1992): fig05
  kClique320,   ///< clique_graph(320, 160): frontier_tradeoff
  kClique640,   ///< clique_graph(640, 320): fig06, tab4, ablation_afs
  kClique1024,  ///< clique_graph(1024, 409): fig16, ablation_afs
};

/// The program of `graph` and its activity trace, shared read-only by
/// every plan and BEST-STATIC oracle that names the graph. The first plan
/// that names it, from whichever thread, builds the graph once for the
/// program's key and keeps it packed into bits. The trace is built from
/// those bits once per process by its first reader: a render's ideal
/// serial time, a simulating cell, or the oracle's factory. Planning
/// never builds it. A user grid builds its own program.
const ClosureProgram& registered_closure(ClosureGraph graph);

/// fig09's L4 kernel (the paper's 50 outer iterations), whose programs
/// share its cost tables: they are drawn once per process by their first
/// reader, never by a plan.
const L4Kernel& registered_l4();

/// Display name of the scheduler a spec string builds (e.g. "AFS" ->
/// "AFS(k=P)") without running anything — the bespoke tables label rows
/// with scheduler names, not spec strings.
std::string scheduler_display_name(const std::string& sched_spec);

// Family registration hooks (one translation unit per family); each
// appends its experiments in canonical order.
void register_iris_experiments(std::vector<Experiment>& experiments);       // fig03-09
void register_butterfly_experiments(std::vector<Experiment>& experiments);  // fig10-13
void register_scale_experiments(std::vector<Experiment>& experiments);      // fig14-17
void register_table_experiments(std::vector<Experiment>& experiments);      // tab2-7
void register_extra_experiments(std::vector<Experiment>& experiments);  // ablation etc.
void register_frontier_experiments(std::vector<Experiment>& experiments);  // adaptive frontier

}  // namespace afs
