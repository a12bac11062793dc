#include "experiments/registry.hpp"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sched/registry.hpp"
#include "store/cell_key.hpp"
#include "store/result_store.hpp"
#include "util/check.hpp"
#include "workload/graphs.hpp"

namespace afs {

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> experiments = [] {
    std::vector<Experiment> out;
    register_iris_experiments(out);
    register_butterfly_experiments(out);
    register_scale_experiments(out);
    register_table_experiments(out);
    register_extra_experiments(out);
    register_frontier_experiments(out);
    return out;
  }();
  return experiments;
}

const Experiment* find_experiment(const std::string& id) {
  for (const Experiment& e : all_experiments())
    if (e.id == id) return &e;
  return nullptr;
}

ExperimentRun::ExperimentRun(std::vector<const Experiment*> experiments,
                             const ExperimentContext& ctx, std::ostream& out)
    : experiments_(std::move(experiments)), ctx_(ctx), out_(out) {
  AFS_CHECK(!experiments_.empty());
  header(*experiments_.front());
}

void ExperimentRun::header(const Experiment& e) {
  out_ << "== " << e.id << ": " << e.title << " ==" << std::endl;
}

std::vector<SweepCellSpec> ExperimentRun::plan_next() {
  // Only this thread adds blocks, so it may read their count unlocked.
  const Experiment& e = *experiments_[blocks_.size()];
  ExperimentPlan plan;
  try {
    plan = e.plan(ctx_);
  } catch (const std::exception& ex) {
    // Reported in registry order, like any other failed render.
    plan.render = [what = std::string(ex.what())](
                      std::vector<CellOutcome>&, std::ostream&,
                      std::ostream&) -> int {
      throw std::runtime_error(what);
    };
  }
  std::scoped_lock lock(mu_);
  Block& b = blocks_.emplace_back();
  b.render = std::move(plan.render);
  b.first = owner_.size();
  b.pending = plan.cells.size();
  b.outcomes.resize(plan.cells.size());
  for (SweepCellSpec& c : plan.cells) {
    if (c.after >= 0) c.after += static_cast<int>(b.first);
    owner_.push_back(blocks_.size() - 1);
  }
  unlanded_ += plan.cells.size();
  if (b.pending == 0) complete(b);
  return std::move(plan.cells);
}

std::vector<SweepCellSpec> ExperimentRun::take_cells() {
  std::vector<SweepCellSpec> cells;
  while (blocks_.size() < experiments_.size())
    for (SweepCellSpec& c : plan_next()) cells.push_back(std::move(c));
  return cells;
}

std::vector<SweepCellSpec> ExperimentRun::take_misses(
    StoreView& view, std::vector<std::size_t>& index) {
  std::vector<SweepCellSpec> cells = take_cells();
  link_cells(cells);
  std::vector<SweepCellSpec> misses;
  index.clear();
  // Plan index -> position among the misses, or -1 once it has landed.
  std::vector<int> queued(cells.size(), -1);
  const CancelToken never;
  view.set_probing(true);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    SweepCellSpec& c = cells[k];
    const int pred_queued =
        c.after >= 0 ? queued[static_cast<std::size_t>(c.after)] : -1;
    if (pred_queued < 0) {
      // The cell's single lookup counts a hit exactly when it is served.
      const std::int64_t hits = view.hits();
      std::optional<SimResult> result;
      try {
        result = c.run(never);
      } catch (...) {
        // Left for the queue to classify when the cell runs for real.
      }
      if (result && view.hits() > hits) {
        land(k, CellOutcome{std::move(result), {}});
        continue;
      }
    }
    c.after = pred_queued;
    queued[k] = static_cast<int>(misses.size());
    misses.push_back(std::move(c));
    index.push_back(k);
  }
  view.set_probing(false);
  return misses;
}

void ExperimentRun::stream(CellQueue& queue, const SweepOptions& opts) {
  queue_ = &queue;
  CellQueue::Batch* batch = queue.open(
      opts,
      {nullptr,
       [this](std::size_t k, CellOutcome o) { land(k, std::move(o)); }},
      ctx_.log);
  try {
    while (blocks_.size() < experiments_.size())
      queue.add(batch, plan_next());
  } catch (...) {
    queue.close(batch);
    throw;
  }
  queue.close(batch);
}

bool ExperimentRun::cancelled() const {
  return ctx_.cancel != nullptr && ctx_.cancel->cancelled();
}

void ExperimentRun::complete(Block& b) {
  if (queue_ != nullptr)
    post_render(b);
  else
    print_ready();
}

void ExperimentRun::post_render(Block& b) {
  // The render consumes the outcomes; the failures are reported later,
  // when the block prints.
  if (ctx_.on_cell_failure)
    for (const CellOutcome& o : b.outcomes)
      if (!o.result) b.failures.push_back(o.failure);
  ++rendering_;
  queue_->post([this, &b] {
    // No one else touches the block until it is marked rendered.
    const bool ran = !cancelled();
    if (ran) {
      std::ostringstream text;
      render(b, text);
      b.text = std::move(text).str();
    }
    b.render = nullptr;  // release the plan and results now
    b.outcomes = {};
    std::scoped_lock lock(mu_);
    b.ran = ran;
    b.rendered = true;
    --rendering_;
    print_ready();
    done_cv_.notify_all();  // under the lock: finish() may end the run
  });
}

void ExperimentRun::render(Block& b, std::ostream& out) {
  std::ostringstream err;
  try {
    b.code = b.render(b.outcomes, out, err);
  } catch (const std::exception& ex) {
    b.error = ex.what();
  }
  b.err = std::move(err).str();
}

void ExperimentRun::land(std::size_t k, CellOutcome outcome) {
  std::scoped_lock lock(mu_);
  Block& b = blocks_[owner_[k]];
  b.outcomes[k - b.first] = std::move(outcome);
  if (--b.pending == 0) complete(b);
  if (--unlanded_ == 0) done_cv_.notify_all();
}

void ExperimentRun::finish() {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this] { return unlanded_ == 0 && rendering_ == 0; });
}

void ExperimentRun::print_ready() {
  for (; next_ < blocks_.size() && blocks_[next_].pending == 0; ++next_) {
    Block& b = blocks_[next_];
    if (queue_ != nullptr) {
      // A block whose render started before the token fired prints, as
      // it would have under --jobs=1 (its CSVs are out already).
      if (!b.rendered || !b.ran) return;
    } else if (cancelled()) {
      return;
    }
    const Experiment& e = *experiments_[next_];
    if (next_ > 0) header(e);
    if (queue_ != nullptr) {
      for (const CellFailure& f : b.failures) ctx_.on_cell_failure(e.id, f);
      out_ << b.text;
    } else {
      if (ctx_.on_cell_failure)
        for (const CellOutcome& o : b.outcomes)
          if (!o.result) ctx_.on_cell_failure(e.id, o.failure);
      render(b, out_);
    }
    std::cerr << b.err;
    if (b.error) std::cerr << e.id << " failed: " << *b.error << "\n";
    out_ << std::flush;
    codes_.push_back(b.code);
    b = Block{};  // the block is out: release its plan and results
  }
}

SweepOptions sweep_options(const ExperimentContext& ctx) {
  SweepOptions sweep;
  sweep.jobs = ctx.cli.jobs;
  sweep.cell_timeout = ctx.cli.cell_timeout;
  sweep.sweep_timeout = ctx.cli.sweep_timeout;
  if (ctx.cli.cell_retries >= 0) sweep.max_retries = ctx.cli.cell_retries;
  sweep.cancel = ctx.cancel;
  return sweep;
}

std::vector<int> run_experiments(
    const std::vector<const Experiment*>& experiments,
    const ExperimentContext& ctx, std::ostream& out, std::size_t* cells) {
  if (cells != nullptr) *cells = 0;
  if (experiments.empty()) return {};
  ExperimentRun run(experiments, ctx, out);
  const SweepOptions opts = sweep_options(ctx);
  if (opts.jobs == 1) {
    run_sweep(
        run.take_cells(), opts,
        [&run](std::size_t k, CellOutcome o) { run.land(k, std::move(o)); },
        ctx.log);
  } else {
    // The workers land the outcomes and render and print the blocks, so
    // this thread only plans.
    CellQueue queue(opts.jobs);
    run.stream(queue, opts);
    run.finish();
  }
  if (cells != nullptr) *cells = run.cell_count();
  return run.codes();
}

Experiment figure_experiment(
    std::string id, std::string title, std::function<FigureSpec()> make_spec,
    std::function<bool(const FigureResult&, std::ostream&)> shapes) {
  Experiment e;
  e.id = id;
  e.title = std::move(title);
  e.kind = ExperimentKind::kFigure;
  e.csv_ids = {id};
  e.make_spec = make_spec;
  e.plan = [id, make_spec = std::move(make_spec),
            shapes = std::move(shapes)](const ExperimentContext& ctx) {
    auto spec = std::make_shared<FigureSpec>(make_spec());
    const bench::BenchCli& cli = ctx.cli;
    if (!cli.procs.empty()) spec->procs = cli.procs;
    spec->out_dir = cli.out_dir;
    if (cli.time_phases) spec->sim_options.time_phases = true;
    spec->trace = cli.trace;
    spec->store = ctx.store;
    // Out-of-process isolation: registered figures are rebuildable from
    // their id (grids arrive with the recipe pre-filled by
    // make_grid_experiment); a --procs override does not change the
    // recipe, because the worker is told the exact (label, P) to run.
    spec->executor = ctx.executor;
    if (!spec->exec.valid()) spec->exec.experiment = id;
    return plan_figure(std::move(spec), shapes);
  };
  return e;
}

Experiment table_experiment(
    std::string id, std::string title, std::vector<std::string> csv_ids,
    std::function<ExperimentPlan(const ExperimentContext&)> plan) {
  Experiment e;
  e.id = id;
  e.title = std::move(title);
  e.kind = ExperimentKind::kTable;
  e.csv_ids = std::move(csv_ids);
  e.plan = [id, plan = std::move(plan)](const ExperimentContext& ctx) {
    ExperimentPlan p = plan(ctx);
    p.render = [id, out_dir = ctx.cli.out_dir, render = std::move(p.render),
                total = static_cast<int>(p.cells.size())](
                   std::vector<CellOutcome>& outcomes, std::ostream& out,
                   std::ostream& err) {
      std::vector<CellFailure> failures;
      for (const CellOutcome& o : outcomes)
        if (!o.result) failures.push_back(o.failure);
      const std::string report =
          publish_failure_report(out_dir, id, total, failures);
      if (failures.empty()) return render(outcomes, out, err);
      out << "(" << failures.size() << " of " << total
          << " cells failed — report: " << report << ")\n\n";
      return EXIT_FAILURE;
    };
    return p;
  };
  return e;
}

namespace {

/// A table cell's body under its key: served from `store`, else simulated
/// on this thread's warm simulator and published.
SimResult table_cell_result(CellStore* store, const CellKey& key,
                            const MachineConfig& machine,
                            const LoopProgram& program,
                            const std::string& sched_spec, int procs,
                            SimOptions options, const CancelToken& token) {
  options.cancel = &token;
  return load_or_simulate(store, key, [&] {
    auto sched = make_scheduler(sched_spec);
    return simulate_cell(machine, program, *sched, procs, options);
  });
}

}  // namespace

SimResult run_table_cell(CellStore* store, const MachineConfig& machine,
                         const LoopProgram& program,
                         const std::string& sched_spec, int procs,
                         SimOptions options, const CancelToken& token) {
  CellKey key;
  if (store) key = make_cell_key(machine, program.key, sched_spec, procs, options);
  return table_cell_result(store, key, machine, program, sched_spec, procs,
                           std::move(options), token);
}

SharedMachine::SharedMachine(MachineConfig machine, SimOptions options)
    : setting(std::make_shared<const Setting>(
          Setting{machine, options, CellKeyPrefix(machine, options)})) {}

SweepCellSpec table_cell(const ExperimentContext& ctx, std::string label,
                         const SharedMachine& machine,
                         const SharedProgram& program,
                         const std::string& sched_spec, int procs) {
  const SharedMachine::Setting& m = *machine.setting;
  SweepCellSpec cell;
  cell.label = std::move(label);
  cell.procs = procs;
  cell.cost = program.cost * procs;
  if (ctx.store)
    cell.key = key_hash(m.key.key(program.program->key, sched_spec, procs));
  // The key text is rebuilt when the cell runs rather than held by every
  // queued cell.
  cell.run = [store = ctx.store, setting = machine.setting,
              program = program.program, sched_spec,
              procs](const CancelToken& token) {
    CellKey key;
    if (store) key = setting->key.key(program->key, sched_spec, procs);
    return table_cell_result(store, key, setting->machine, *program,
                             sched_spec, procs, setting->options, token);
  };
  return cell;
}

const ClosureProgram& registered_closure(ClosureGraph graph) {
  // One function-local static per graph: C++ builds each exactly once,
  // even when daemon readers plan concurrently.
  if (graph == ClosureGraph::kRandom512) {
    static const ClosureProgram c =
        TransitiveClosureKernel::closure(random_graph(512, 0.08, 1992));
    return c;
  }
  if (graph == ClosureGraph::kClique320) {
    static const ClosureProgram c =
        TransitiveClosureKernel::closure(clique_graph(320, 160));
    return c;
  }
  if (graph == ClosureGraph::kClique640) {
    static const ClosureProgram c =
        TransitiveClosureKernel::closure(clique_graph(640, 320));
    return c;
  }
  static const ClosureProgram c =
      TransitiveClosureKernel::closure(clique_graph(1024, 409));
  return c;
}

const L4Kernel& registered_l4() {
  static const L4Kernel l4;
  return l4;
}

std::string scheduler_display_name(const std::string& sched_spec) {
  return make_scheduler(sched_spec)->name();
}

}  // namespace afs
