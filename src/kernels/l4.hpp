// The L4 hybrid benchmark (paper §4.2, Figure 2; originally from
// Polychronopoulos & Kuck's GSS paper).
//
//   DO SEQUENTIAL I1 = 1,50
//     DO PARALLEL I2=1,10; I3=1,10; I4=1,10:  {10} [if C then {50}]
//     DO PARALLEL I5=1,100: {50}
//       DO PARALLEL I6=1,5: {100} [if C then {30}]
//     DO PARALLEL I7=1,20; I8=1,4: {30}
//
// {u} denotes u abstract work units; each `if C` is an independent coin
// flip with P(true) = 0.5. Nested parallel loops are coalesced into single
// loops (the transformation the paper cites [23]): three parallel loops of
// 1000, 100 and 80 iterations per outer epoch. No memory accesses, so no
// affinity — L4 isolates scheduling overhead and mild imbalance.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "util/lazy.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

struct L4Config {
  int outer = 50;            ///< sequential epochs
  std::uint64_t seed = 7;    ///< coin-flip stream
  double if_prob = 0.5;      ///< probability each conditional block executes
};

/// The kernel's cost tables are drawn by their first reader — costs(),
/// total_units(), a run, or the first epoch_loops call of a program() —
/// not by the constructor, so building a program to key and cost its
/// cells draws none of them.
class L4Kernel {
 public:
  explicit L4Kernel(L4Config config = {});

  /// Total work units over all epochs (the deterministic oracle value).
  double total_units() const;

  /// Executes the busy-work on real threads; returns the total units
  /// actually executed (must equal total_units() under any schedule).
  double run_parallel(ThreadPool& pool, Scheduler& sched) const;

  /// Reference single-thread execution; also returns units executed.
  double run_serial() const;

  /// Simulator descriptor: three parallel loops per epoch. The program
  /// shares this kernel's tables and states its cost, so program_cost
  /// does not draw them.
  LoopProgram program() const;

  /// Per-iteration unit costs for epoch e, loop l in {0,1,2} (exposed for
  /// tests and the BEST-STATIC oracle).
  const std::vector<double>& costs(int epoch, int loop) const;

  /// True once a reader has drawn the cost tables.
  bool tables_built() const { return tables_->built(); }

 private:
  // tables[epoch][loop][i] = work units of iteration i.
  using Tables = std::vector<std::vector<std::vector<double>>>;
  const Tables& tables() const { return tables_->get(); }

  L4Config config_;
  std::shared_ptr<const Lazy<Tables>> tables_;
};

}  // namespace afs
