// The adaptive-frontier experiment: every scheduler the registry knows —
// the paper's eight head-to-head algorithms, TAPER, and the four
// adaptive/topology-aware frontier schedulers (src/sched/adaptive/) —
// raced across the paper's kernels, with each cell's trace analyzed into
// an affinity-score-vs-imbalance tradeoff point.
//
// Every cell simulates into a TraceAnalysisSink, which runs the trace
// analysis over the record stream in memory — the same records a .cctrace
// of the cell decodes to, so the scores come from the same evidence chain
// the trace tooling uses (--trace also writes those files). The enriched
// SimResult (trace_affinity_score / trace_imbalance) is saved to the
// content-addressed store under a marker-suffixed scheduler key, which is
// what lets a warm daemon or rerun serve the whole table without
// re-simulating.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "experiments/expectations.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "store/result_store.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_record.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace afs {

namespace {

// One analyzed cell, served from the store when a previous run already
// enriched it. The "+tracemetrics" marker keeps these cells from
// colliding with plain table cells for the same (machine, program,
// scheduler, P) — the stored result here carries trace-derived fields a
// plain cell never fills.
SweepCellSpec analyzed_cell(const ExperimentContext& ctx,
                            const SharedMachine& machine,
                            const SharedProgram& program,
                            const std::string& spec, int procs) {
  // Keyed under the machine's plain options: the analysis sink attached
  // below is not part of the cell's identity.
  const auto key_of = [setting = machine.setting, program = program.program,
                       spec, procs] {
    return setting->key.key(program->key, spec + "+tracemetrics", procs);
  };
  const std::string trace_path =
      ctx.cli.trace ? trace_cell_path(ctx.cli.out_dir, "frontier_tradeoff",
                                      program.program->key + "." + spec, procs)
                    : std::string();
  SweepCellSpec cell;
  cell.label = program.program->name + " " + spec;
  cell.procs = procs;
  cell.cost = program.cost * procs;
  if (ctx.store) cell.key = key_hash(key_of());
  cell.run = [store = ctx.store, key_of, setting = machine.setting,
              program = program.program, spec, procs,
              trace_path](const CancelToken& token) {
    return load_or_simulate(store, store ? key_of() : CellKey{}, [&] {
      std::unique_ptr<BinaryTraceSink> file;
      if (!trace_path.empty())
        file = std::make_unique<BinaryTraceSink>(trace_path);
      TraceAnalysisSink sink(file.get());
      SimOptions opts = setting->options;
      opts.cancel = &token;
      opts.trace = &sink;
      auto sched = make_scheduler(spec);
      SimResult r;
      try {
        r = simulate_cell(setting->machine, *program, *sched, procs, opts);
        if (file) file->finalize();
      } catch (...) {
        if (file) file->abandon();
        throw;
      }
      const std::vector<TraceAnalysis> analyses = sink.finish();
      AFS_CHECK_MSG(analyses.size() == 1,
                    "expected one analyzed run, got " << analyses.size());
      const TraceAnalysis& a = analyses.front();
      AFS_CHECK_MSG(a.conserved(), "trace conservation violated: "
                                       << spec << " P=" << procs << " on "
                                       << program->key);
      r.trace_affinity_score = a.affinity_score();
      r.trace_imbalance = a.exec_imbalance();
      return r;
    });
  };
  return cell;
}

ExperimentPlan plan_frontier(const ExperimentContext& ctx) {
  const bench::BenchCli& cli = ctx.cli;
  std::vector<std::string> specs = paper_scheduler_specs();
  specs.push_back("TAPER(1.3)");
  for (const std::string& s : adaptive_scheduler_specs()) specs.push_back(s);

  const MachineConfig machine = iris();
  std::vector<int> procs = cli.procs.empty() ? std::vector<int>{2, 4, 8}
                                             : cli.procs;
  procs.erase(std::remove_if(procs.begin(), procs.end(),
                             [&](int p) {
                               return p < 1 || p > machine.max_processors;
                             }),
              procs.end());
  AFS_CHECK_MSG(!procs.empty(), "no usable processor counts for "
                                    << machine.name);

  // Multi-epoch kernels only: the affinity score compares each epoch's
  // placement against the previous one, so single-epoch loops score 0
  // for every scheduler and say nothing.
  const std::vector<std::string> labels{"sor", "gauss", "tc"};
  const std::vector<SharedProgram> kernels{
      SharedProgram(SorKernel::program(256, 8)),
      SharedProgram(GaussKernel::program(192)),
      SharedProgram(registered_closure(ClosureGraph::kClique320).program)};

  if (cli.trace) std::filesystem::create_directories(cli.out_dir);
  const SharedMachine shared(machine);
  ExperimentPlan plan;
  for (const SharedProgram& k : kernels)
    for (const std::string& spec : specs)
      for (int p : procs)
        plan.cells.push_back(analyzed_cell(ctx, shared, k, spec, p));

  plan.render = [cli, specs, procs, labels](std::vector<CellOutcome>& cells,
                                            std::ostream& out, std::ostream&) {
    if (cli.trace)
      out << "(traces per cell under " << cli.out_dir
          << "/frontier_tradeoff.p<P>.<kernel>.<scheduler>.cctrace)\n";
    Table t({"kernel", "scheduler", "procs", "affinity", "imbalance", "time",
             "sync ops", "steals"});
    const int p_top = *std::max_element(procs.begin(), procs.end());
    double sor_aff_afs = -1.0;
    double sor_aff_ss = -1.0;
    double sor_aff_tailor = -1.0;
    std::size_t next = 0;
    for (const std::string& label : labels) {
      for (const std::string& spec : specs) {
        for (int p : procs) {
          const SimResult& r = *cells[next++].result;
          const std::int64_t sync_ops =
              r.local_grabs + r.remote_grabs + r.central_grabs;
          t.add_row({label, scheduler_display_name(spec), std::to_string(p),
                     Table::num(r.trace_affinity_score, 4),
                     Table::num(r.trace_imbalance, 4),
                     Table::num(r.makespan, 0), Table::num(sync_ops),
                     Table::num(r.remote_grabs)});
          if (label == "sor" && p == p_top) {
            if (spec == "AFS") sor_aff_afs = r.trace_affinity_score;
            if (spec == "SS") sor_aff_ss = r.trace_affinity_score;
            if (spec.rfind("TAILOR", 0) == 0)
              sor_aff_tailor = r.trace_affinity_score;
          }
        }
      }
      out << "  " << label << ": " << specs.size() * procs.size()
          << " cells done\n";
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "frontier_tradeoff"));
    out << "(csv: " << bench::csv_path(cli, "frontier_tradeoff") << ")\n";

    // Soft shape checks (data, not invariants — the hard pins live in
    // tests/experiments/frontier_test.cpp).
    if (sor_aff_afs >= 0.0 && sor_aff_ss >= 0.0)
      report_shape(out, sor_aff_afs > sor_aff_ss,
                   "AFS holds more affinity than SS on SOR at P=" +
                       std::to_string(p_top));
    if (sor_aff_tailor >= 0.0 && sor_aff_afs >= 0.0)
      report_shape(out, sor_aff_tailor >= sor_aff_afs - 1e-12,
                   "TAILOR's affinity is at least AFS's on SOR at P=" +
                       std::to_string(p_top));
    return 0;
  };
  return plan;
}

}  // namespace

void register_frontier_experiments(std::vector<Experiment>& experiments) {
  experiments.push_back(table_experiment(
      "frontier_tradeoff",
      "Affinity-vs-imbalance tradeoff across the scheduler frontier",
      {"frontier_tradeoff"}, plan_frontier));
}

}  // namespace afs
