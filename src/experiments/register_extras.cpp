// The beyond-the-paper experiments: the AFS design-choice ablations and
// the §5.1 architecture-trend argument made quantitative. Each plans its
// cells (table_cell) and renders its tables from their results.
#include <iostream>
#include <string>
#include <vector>

#include "experiments/expectations.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "util/table.hpp"

namespace afs {

namespace {

// Ablations for the design choices DESIGN.md calls out (beyond the
// paper's evaluated configurations):
//   (a) k sweep           — §3's sync-vs-balance trade-off, measured;
//   (b) steal fraction    — 1/P (paper) vs 1/2 (greedy stealing);
//   (c) cache capacity    — §2.1's eviction discussion: affinity's benefit
//                           disappears when the working set stops fitting;
//   (d) AFS vs AFS-LE     — the §4.3 last-executed variant under a
//                           persistently imbalanced workload;
//   (e) victim selection  — full scan vs randomized probing at KSR scale.
const std::vector<const char*> kAblationK{"AFS(k=1)", "AFS(k=2)", "AFS(k=4)",
                                          "AFS"};
const std::vector<const char*> kAblationSteal{"AFS", "AFS(steal=2)",
                                              "AFS(steal=4)"};
const std::vector<double> kAblationRows{128.0, 64.0, 32.0, 8.0, 2.0};
const std::vector<const char*> kAblationLe{"AFS", "AFS-LE"};
const std::vector<const char*> kAblationVictim{"AFS", "AFS-RAND(2)",
                                               "AFS-RAND(4)", "WS"};

ExperimentPlan plan_ablation(const ExperimentContext& ctx) {
  const SharedProgram tc(registered_closure(ClosureGraph::kClique640).program);
  const SharedProgram sor(SorKernel::program(512, 8));
  const SharedProgram drift(drifting_hotspot_program(
      /*n=*/2048, /*epochs=*/64, /*width=*/256, /*speed=*/4.0,
      /*heavy=*/50.0, /*light=*/1.0, /*row_units=*/64.0));
  const SharedProgram tc_large(
      registered_closure(ClosureGraph::kClique1024).program);
  const SharedMachine iris_m(iris());

  ExperimentPlan plan;
  const auto add = [&](const SharedMachine& m, const SharedProgram& prog,
                       const std::string& spec, int p) {
    plan.cells.push_back(table_cell(ctx, spec, m, prog, spec, p));
  };
  for (const char* spec : kAblationK) add(iris_m, tc, spec, 8);
  for (const char* spec : kAblationSteal) add(iris_m, tc, spec, 8);
  for (double rows_per_proc : kAblationRows) {
    MachineConfig m = iris();
    m.cache_capacity = rows_per_proc * 512.0;
    const SharedMachine cache(m);
    add(cache, sor, "AFS", 8);
    add(cache, sor, "GSS", 8);
  }
  for (const SharedProgram* prog : {&tc, &drift})
    for (const char* spec : kAblationLe) add(iris_m, *prog, spec, 8);
  const SharedMachine ksr(ksr1());
  for (const char* spec : kAblationVictim) add(ksr, tc_large, spec, 57);

  plan.render = [cli = ctx.cli, names = std::vector<std::string>{
                                    tc.program->name, drift.program->name}](
                    std::vector<CellOutcome>& cells, std::ostream& out,
                    std::ostream&) {
    std::size_t next = 0;
    const auto result = [&]() -> const SimResult& {
      return *cells[next++].result;
    };
    // (a) k sweep on a head-heavy imbalanced loop: larger k = finer local
    // chunks = better balance at the cost of more local queue operations.
    {
      out << "-- (a) AFS k sweep, transitive closure skewed 320/640 --\n";
      Table t({"k", "time", "local grabs", "steals"});
      for (const char* spec : kAblationK) {
        const SimResult& r = result();
        t.add_row({scheduler_display_name(spec), Table::num(r.makespan, 0),
                   Table::num(r.local_grabs), Table::num(r.remote_grabs)});
      }
      out << t.to_ascii();
      t.write_csv(bench::csv_path(cli, "ablation_k"));
    }

    // (b) steal fraction.
    {
      out << "\n-- (b) AFS steal fraction, same workload --\n";
      Table t({"steal", "time", "steals", "iters stolen"});
      for (const char* spec : kAblationSteal) {
        const SimResult& r = result();
        std::int64_t stolen = 0;
        for (const auto& q : r.sched_stats.queues) stolen += q.iters_remote;
        t.add_row({scheduler_display_name(spec), Table::num(r.makespan, 0),
                   Table::num(r.remote_grabs), Table::num(stolen)});
      }
      out << t.to_ascii();
      t.write_csv(bench::csv_path(cli, "ablation_steal"));
    }

    // (c) cache capacity sweep: shrink the Iris caches until the SOR
    // working set stops fitting; AFS's advantage over GSS should collapse.
    {
      out << "\n-- (c) cache capacity sweep, SOR N=512, P=8 --\n";
      Table t({"capacity (rows/proc)", "AFS", "GSS", "GSS/AFS"});
      for (double rows_per_proc : kAblationRows) {
        const double ta = result().makespan;
        const double tg = result().makespan;
        t.add_row({Table::num(rows_per_proc, 0), Table::num(ta, 0),
                   Table::num(tg, 0), Table::num(tg / ta, 2)});
      }
      out << t.to_ascii();
      t.write_csv(bench::csv_path(cli, "ablation_cache"));
      out << "(SOR needs 64 rows/processor at P=8: below that, "
             "affinity has nothing to preserve)\n";
    }

    // (d) AFS vs AFS-LE: persistent imbalance means AFS re-steals the same
    // iterations every epoch; AFS-LE seeds queues with last epoch's actual
    // execution and steals less after the first epoch. Shown on both the
    // skewed transitive closure and §4.3's motivating case — a slowly
    // drifting hotspot.
    {
      out << "\n-- (d) deterministic vs last-executed seeding, P=8 --\n";
      Table t({"workload", "variant", "time", "steals", "local grabs"});
      for (const std::string& name : names) {
        for (const char* spec : kAblationLe) {
          const SimResult& r = result();
          t.add_row({name, scheduler_display_name(spec),
                     Table::num(r.makespan, 0), Table::num(r.remote_grabs),
                     Table::num(r.local_grabs)});
        }
      }
      out << t.to_ascii();
      t.write_csv(bench::csv_path(cli, "ablation_le"));
      out << "(AFS-LE should steal far less on the drifting hotspot, at\n"
             " the price of fragmented queues — §4.3's predicted trade)\n";
    }

    // (e) victim selection: the paper's full scan vs the randomized
    // probing it recommends for large machines, at KSR scale.
    {
      out << "\n-- (e) victim selection at scale, TC 1024 on KSR-1, "
             "P=57 --\n";
      Table t({"variant", "time", "steals"});
      for (const char* spec : kAblationVictim) {
        const SimResult& r = result();
        t.add_row({scheduler_display_name(spec), Table::num(r.makespan, 0),
                   Table::num(r.remote_grabs)});
      }
      out << t.to_ascii();
      t.write_csv(bench::csv_path(cli, "ablation_victim"));
    }

    out << "\n(csv: " << cli.out_dir << "/ablation_*.csv)\n";
    return 0;
  };
  return plan;
}

// §5.1's architecture-trend argument, made quantitative: as processor
// speed grows faster than interconnect speed, the payoff of affinity
// scheduling grows. We run the same Gaussian elimination on (i) the
// Symmetry model (slow CPUs — the "previous generation"), (ii) the Iris
// model (the paper's "modern" machine), and (iii) a projected future
// machine (Iris with 4x faster CPUs, same bus), and report AFS's
// advantage over GSS on each.
ExperimentPlan plan_trend(const ExperimentContext& ctx) {
  MachineConfig future = iris();
  future.name = "future(4x cpu)";
  future.work_unit_time = iris().work_unit_time / 4.0;
  const std::vector<MachineConfig> machines{symmetry(), iris(), future};

  const SharedProgram prog(GaussKernel::program(256));
  ExperimentPlan plan;
  for (const MachineConfig& m : machines) {
    const SharedMachine machine(m);
    for (const char* spec : {"AFS", "GSS"})
      plan.cells.push_back(
          table_cell(ctx, m.name + " " + spec, machine, prog, spec, 8));
  }

  plan.render = [csv = bench::csv_path(ctx.cli, "trend"), machines](
                    std::vector<CellOutcome>& cells, std::ostream& out,
                    std::ostream&) {
    Table t({"machine", "comm/compute", "AFS", "GSS", "GSS/AFS"});
    double prev_adv = 0.0;
    bool monotone = true;
    std::size_t next = 0;
    for (const MachineConfig& m : machines) {
      const double ta = cells[next++].result->makespan;
      const double tg = cells[next++].result->makespan;
      const double ratio = m.transfer_unit_time / m.work_unit_time;
      const double adv = tg / ta;
      t.add_row({m.name, Table::num(ratio, 3), Table::num(ta, 0),
                 Table::num(tg, 0), Table::num(adv, 2)});
      monotone &= adv >= prev_adv * 0.98;
      prev_adv = adv;
    }
    out << t.to_ascii();
    t.write_csv(csv);
    out << "(csv: " << csv << ")\n";
    report_shape(out, monotone,
                 "AFS advantage grows with the comm/compute ratio (§5.1)");

    // The TC2000 vs Butterfly I data point quoted in §5.1.
    const auto b = butterfly1();
    const auto tc = tc2000();
    out << "BBN trend check: compute sped up "
        << Table::num(b.work_unit_time / tc.work_unit_time, 0)
        << "x, remote access only "
        << Table::num(b.miss_latency / tc.miss_latency, 1)
        << "x (paper: 60x vs 3.6x)\n";
    return 0;
  };
  return plan;
}

}  // namespace

void register_extra_experiments(std::vector<Experiment>& experiments) {
  experiments.push_back(table_experiment(
      "ablation_afs", "AFS design-choice ablations (Iris model)",
      {"ablation_k", "ablation_steal", "ablation_cache", "ablation_le",
       "ablation_victim"},
      plan_ablation));
  experiments.push_back(table_experiment(
      "trend_comm_ratio", "AFS advantage vs compute/communication ratio",
      {"trend"}, plan_trend));
}

}  // namespace afs
