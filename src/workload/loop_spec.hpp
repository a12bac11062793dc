// The substrate-independent description of a parallel-loop program that
// the simulator executes: per-iteration abstract work plus the data
// footprint (which blocks an iteration reads and writes).
//
// Blocks are the unit of residency in the simulated caches. They are
// coarse on purpose — a matrix row, a vector slice — because that is the
// granularity at which the paper's kernels exhibit affinity (iteration i
// touches row i). `size` is in transfer units (one unit ~ one bus/packet
// transaction in MachineConfig terms).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/cost_models.hpp"

namespace afs {

struct BlockAccess {
  std::int64_t block = 0;  ///< Globally unique block id.
  double size = 1.0;       ///< Transfer units moved on a miss.
  bool write = false;      ///< Writes invalidate other processors' copies.
};

/// Fills `out` with the blocks iteration `i` touches. Cleared by the caller.
using FootprintFn =
    std::function<void(std::int64_t i, std::vector<BlockAccess>& out)>;

/// One parallel loop instance (one epoch of the enclosing sequential loop).
struct ParallelLoopSpec {
  std::int64_t n = 0;   ///< Iteration count.
  CostFn work;          ///< Abstract compute units per iteration (never null).
  FootprintFn footprint;  ///< Null for memory-less loops (L4, synthetics).

  /// Optional: when > 0, every iteration costs exactly this many compute
  /// units and `work` is guaranteed to return it for every i. The engine
  /// then charges iterations without the per-iteration indirect call — an
  /// epoch of Gauss or SOR makes tens of millions of them per sweep. The
  /// kernel must precompute the value with the same expression its `work`
  /// lambda evaluates so results stay bit-identical either way.
  double uniform_work = 0.0;

  /// Optional analytic sum of work over [b, e). When present and the loop
  /// has no footprint, the simulator charges whole chunks in O(1), which
  /// makes the 200-million-iteration loop of Table 2 simulable. Beside a
  /// footprint only the ideal serial time reads it, and then every term
  /// must be a whole number and the sum exact, so that adding it in one
  /// step matches adding the terms one at a time.
  std::function<double(std::int64_t b, std::int64_t e)> work_sum;
};

/// A whole program: a sequential outer loop whose body is one or more
/// parallel loops. `epoch_loops(e)` returns the parallel loops of epoch e
/// in execution order (L4 has three per epoch; the kernels have one).
struct LoopProgram {
  std::string name;
  int epochs = 1;
  std::function<std::vector<ParallelLoopSpec>(int epoch)> epoch_loops;

  /// Canonical identity of the program for the content-addressed result
  /// store (store/cell_key.hpp): a factory-chosen string covering every
  /// parameter that shapes the generated loops, with doubles rendered via
  /// key_double and data-dependent programs (e.g. transitive closure on a
  /// random graph) embedding a content hash. Empty means "identity
  /// unknown" — cells running this program bypass the store.
  std::string key;

  /// Optional: program_cost (experiments/figure.hpp) stated by the
  /// factory, which must equal the value program_cost derives from
  /// epoch_loops. A factory whose loops read data built on first read
  /// states it, so that planning a cell does not build that data. 0 means
  /// derive it.
  double cost = 0.0;
};

/// Convenience: a single-loop-per-epoch program.
LoopProgram single_loop_program(std::string name, int epochs,
                                std::function<ParallelLoopSpec(int)> loop);

}  // namespace afs
