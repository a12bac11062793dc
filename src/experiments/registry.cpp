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
  for (const Experiment* e : experiments_) {
    ExperimentPlan plan;
    try {
      plan = e->plan(ctx_);
    } catch (const std::exception& ex) {
      // Reported in registry order, like any other failed render.
      plan.render = [what = std::string(ex.what())](
                        std::vector<CellOutcome>&, std::ostream&,
                        std::ostream&) -> int {
        throw std::runtime_error(what);
      };
    }
    Block b;
    b.render = std::move(plan.render);
    b.first = cells_.size();
    b.pending = plan.cells.size();
    b.outcomes.resize(plan.cells.size());
    for (SweepCellSpec& c : plan.cells) {
      if (c.after >= 0) c.after += static_cast<int>(b.first);
      cells_.push_back(std::move(c));
      owner_.push_back(blocks_.size());
    }
    blocks_.push_back(std::move(b));
  }
  print_ready();  // blocks without cells
}

void ExperimentRun::header(const Experiment& e) {
  out_ << "== " << e.id << ": " << e.title << " ==" << std::endl;
}

std::vector<SweepCellSpec> ExperimentRun::take_cells() {
  return std::move(cells_);
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

bool ExperimentRun::cancelled() const {
  return ctx_.cancel != nullptr && ctx_.cancel->cancelled();
}

void ExperimentRun::render_on(CellQueue& queue) {
  queue_ = &queue;
  for (std::size_t i = next_; i < blocks_.size(); ++i)
    if (blocks_[i].pending == 0) post_render(blocks_[i]);  // no cells
}

void ExperimentRun::post_render(Block& b) {
  // The render consumes the outcomes; the failures are reported later,
  // when the block prints.
  if (ctx_.on_cell_failure)
    for (const CellOutcome& o : b.outcomes)
      if (!o.result) b.failures.push_back(o.failure);
  {
    std::scoped_lock lock(render_mu_);
    ++rendering_;
  }
  queue_->post([this, &b] {
    b.ran = !cancelled();
    if (b.ran) {
      std::ostringstream text;
      render(b, text);
      b.text = std::move(text).str();
    }
    b.render = nullptr;  // release the plan and results now
    b.outcomes = {};
    std::scoped_lock lock(render_mu_);
    b.rendered = true;
    --rendering_;
    rendered_cv_.notify_all();  // under the lock: finish() may end the run
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
  Block& b = blocks_[owner_[k]];
  b.outcomes[k - b.first] = std::move(outcome);
  if (--b.pending == 0 && queue_ != nullptr) post_render(b);
  print_ready();
}

void ExperimentRun::finish() {
  print_ready(/*wait=*/true);
  std::unique_lock lock(render_mu_);
  rendered_cv_.wait(lock, [this] { return rendering_ == 0; });
}

void ExperimentRun::print_ready(bool wait) {
  for (; next_ < blocks_.size() && blocks_[next_].pending == 0; ++next_) {
    Block& b = blocks_[next_];
    if (queue_ != nullptr) {
      // A block whose render started before the token fired prints, as
      // it would have under --jobs=1 (its CSVs are out already).
      std::unique_lock lock(render_mu_);
      if (!b.rendered && !wait) return;
      rendered_cv_.wait(lock, [&b] { return b.rendered; });
      if (!b.ran) return;
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
  if (cells != nullptr) *cells = run.cell_count();
  SweepOptions opts = sweep_options(ctx);
  // Under --jobs the cells' workers also render the blocks, so this thread
  // only plans, files outcomes and prints. Declared after the run, the
  // queue goes first, running any render still posted.
  std::optional<CellQueue> queue;
  if (opts.jobs > 1) {
    opts.queue = &queue.emplace(opts.jobs);
    run.render_on(*opts.queue);
  }
  run_sweep(
      run.take_cells(), opts,
      [&run](std::size_t k, CellOutcome o) { run.land(k, std::move(o)); },
      ctx.log);
  run.finish();
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

SimResult run_table_cell(CellStore* store, const MachineConfig& machine,
                         const LoopProgram& program,
                         const std::string& sched_spec, int procs,
                         SimOptions options, const CancelToken& token) {
  CellKey key;
  if (store) key = make_cell_key(machine, program.key, sched_spec, procs, options);
  options.cancel = &token;
  return load_or_simulate(store, key, [&] {
    auto sched = make_scheduler(sched_spec);
    return simulate_cell(machine, program, *sched, procs, options);
  });
}

SweepCellSpec table_cell(const ExperimentContext& ctx, std::string label,
                         const MachineConfig& machine,
                         const SharedProgram& program,
                         const std::string& sched_spec, int procs,
                         const SimOptions& options) {
  SweepCellSpec cell;
  cell.label = std::move(label);
  cell.procs = procs;
  cell.cost = program.cost * procs;
  if (ctx.store)
    cell.key = key_hash(make_cell_key(machine, program.program->key,
                                      sched_spec, procs, options));
  cell.run = [store = ctx.store, machine, program = program.program,
              sched_spec, procs, options](const CancelToken& token) {
    return run_table_cell(store, machine, *program, sched_spec, procs,
                          options, token);
  };
  return cell;
}

std::string scheduler_display_name(const std::string& sched_spec) {
  return make_scheduler(sched_spec)->name();
}

}  // namespace afs
