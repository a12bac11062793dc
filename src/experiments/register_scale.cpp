// The cross-machine scaling experiments (Figures 14-17): the Sequent
// Symmetry generation check and the §5.2 KSR-1 runs. Specs and shape
// checks moved verbatim from the former standalone bench binaries.
#include "experiments/expectations.hpp"
#include "experiments/lineups.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"

namespace afs {

void register_scale_experiments(std::vector<Experiment>& experiments) {
  // Figure 14: Gaussian elimination (256 x 256) on the Sequent Symmetry,
  // whose processors are ~30x slower than the Iris's while its bus is
  // slightly faster: communication is cheap relative to compute, so AFS's
  // affinity is worth little (AFS ~ GSS) and TRAPEZOID trails 10-15% from
  // its load imbalance.
  experiments.push_back(figure_experiment(
      "fig14", "Gaussian elimination on the Sequent Symmetry (N=256)",
      [] {
        FigureSpec spec;
        spec.id = "fig14";
        spec.title = "Gaussian elimination on the Sequent Symmetry (N=256)";
        spec.machine = symmetry();
        spec.program = GaussKernel::program(256);
        spec.procs = iris_procs();
        spec.schedulers = {entry("AFS"), entry("GSS"), entry("TRAPEZOID")};
        return spec;
      },
      [](const FigureResult& r, std::ostream& out) {
        ShapeReport shapes(out);
        shapes.check(comparable(r, "AFS", "GSS", 8, 0.10),
                           "AFS ~ GSS on the Symmetry (communication is cheap)");
        shapes.check(beats(r, "GSS", "TRAPEZOID", 8, 1.015),
            "TRAPEZOID trails (load imbalance, expensive iterations)");
        shapes.check(!beats(r, "GSS", "TRAPEZOID", 8, 1.30),
                           "...but only by a modest margin (paper: 10-15%)");
        return shapes.ok();
      }));

  // Figure 15: Gaussian elimination (1024 x 1024) on the KSR-1. AFS best
  // by ~3.7x over FACTORING/GSS at scale; TRAPEZOID beats FACTORING/GSS
  // because sync is expensive on the KSR; MOD-FACTORING degrades past
  // ~12-15 processors as fluctuations destroy its affinity.
  experiments.push_back(figure_experiment(
      "fig15", "Gaussian elimination on the KSR-1 (N=1024)",
      [] {
        FigureSpec spec;
        spec.id = "fig15";
        spec.title = "Gaussian elimination on the KSR-1 (N=1024)";
        spec.machine = ksr1();
        spec.program = GaussKernel::program(1024);
        spec.procs = ksr_procs();
        spec.schedulers = ksr_schedulers();
        return spec;
      },
      [](const FigureResult& r, std::ostream& out) {
        ShapeReport shapes(out);
        shapes.check(beats(r, "AFS", "FACTORING", 57, 2.0),
                           "AFS >2x over FACTORING at P=57 (paper: 3.7x)");
        shapes.check(beats(r, "AFS", "GSS", 57, 2.0),
                           "AFS >2x over GSS at P=57");
        shapes.check(beats(r, "AFS", "TRAPEZOID", 57, 1.7),
                           "AFS >1.7x over TRAPEZOID at P=57 (paper: 2.8x)");
        shapes.check(beats(r, "TRAPEZOID", "GSS", 57, 1.0),
                           "TRAPEZOID beats GSS (fewest sync ops, costly sync)");
        shapes.check(comparable(r, "MOD-FACTORING", "AFS", 4, 0.5) &&
                               beats(r, "AFS", "MOD-FACTORING", 57, 1.3),
                           "MOD-FACTORING OK at small P, degrades at scale");
        shapes.check(comparable(r, "AFS", "STATIC", 57, 0.25),
                           "AFS ~ STATIC (almost no load imbalance in Gauss)");
        return shapes.ok();
      }));

  // Figure 16: transitive closure (1024 nodes, 40% of them a clique) on
  // the KSR-1. The non-affinity dynamic schedulers cannot exploit more
  // than ~12 processors; TRAPEZOID degrades most gracefully among them;
  // AFS best, though its margin is smaller than for Gauss.
  experiments.push_back(figure_experiment(
      "fig16", "Transitive closure on the KSR-1 (1024 nodes, 40% clique)",
      [] {
        FigureSpec spec;
        spec.id = "fig16";
        spec.title =
            "Transitive closure on the KSR-1 (1024 nodes, 40% clique)";
        spec.machine = ksr1();
        spec.program = registered_closure(ClosureGraph::kClique1024).program;
        spec.procs = ksr_procs();
        spec.schedulers = {entry("AFS"), entry("TRAPEZOID"),
                           entry("FACTORING"), entry("GSS"),
                           entry("MOD-FACTORING")};
        return spec;
      },
      [](const FigureResult& r, std::ostream& out) {
        ShapeReport shapes(out);
        // "Cannot exploit more than ~12 processors": past P=12 the
        // central schedulers gain at most a sliver (<1.5x for 4.75x more
        // processors) while AFS keeps scaling (>2x over the same range).
        shapes.check(r.time("GSS", 12) / r.time("GSS", 57) < 1.5,
                           "GSS gains <1.5x from P=12 to P=57");
        shapes.check(r.time("FACTORING", 12) / r.time("FACTORING", 57) < 1.5,
            "FACTORING gains <1.5x from P=12 to P=57");
        shapes.check(r.time("AFS", 12) / r.time("AFS", 57) > 2.0,
                           "AFS still gains >2x from P=12 to P=57");
        shapes.check(beats(r, "AFS", "GSS", 57, 1.3),
                           "AFS clearly best at P=57");
        shapes.check(beats(r, "TRAPEZOID", "FACTORING", 57, 1.0),
            "TRAPEZOID degrades most gracefully of the central trio");
        return shapes.ok();
      }));

  // Figure 17: SOR (1024 x 1024, 128 sweeps) on the KSR-1. SOR's inner
  // loop contains a floating-point division, implemented in software on
  // the KSR-1: computation is so expensive that preserving affinity buys
  // little. We model the software division by raising SOR's per-element
  // work on this machine.
  experiments.push_back(figure_experiment(
      "fig17", "SOR on the KSR-1 (N=1024, 128 sweeps, software FP divide)",
      [] {
        FigureSpec spec;
        spec.id = "fig17";
        spec.title =
            "SOR on the KSR-1 (N=1024, 128 sweeps, software FP divide)";
        spec.machine = ksr1();
        // 20 work units per element instead of the Iris's 5: the software
        // divide multiplies per-element cost (the paper's stated anomaly
        // cause).
        spec.program = SorKernel::program(1024, 128, 20.0);
        spec.procs = ksr_procs();
        spec.schedulers = ksr_schedulers();
        return spec;
      },
      [](const FigureResult& r, std::ostream& out) {
        ShapeReport shapes(out);
        shapes.check(beats(r, "AFS", "GSS", 57, 1.0),
                           "AFS still best at P=57");
        shapes.check(!beats(r, "AFS", "GSS", 57, 2.0),
                           "...but NOT by a large factor (compute dominates)");
        shapes.check(comparable(r, "AFS", "STATIC", 57, 0.15),
                           "AFS ~ STATIC");
        shapes.check(comparable(r, "AFS", "MOD-FACTORING", 57, 0.35),
                           "MOD-FACTORING close behind");
        return shapes.ok();
      }));
}

}  // namespace afs
