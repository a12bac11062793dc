// Warshall transitive closure (paper §4.2, third kernel).
//
//   DO SEQUENTIAL K = 1, N
//     DO PARALLEL J = 1, N
//       IF (A(J,K)) THEN
//         DO SEQUENTIAL I = 1, N
//           IF (A(K,I)) A(J,I) = TRUE
//
// Iteration J costs O(N) when edge (J,K) exists and O(1) otherwise — load
// is input-dependent (random graph: averaged out; clique graph: all the
// work in the clique rows). Iteration J always touches row J: affinity.
// The parallel epoch is race-free: within epoch K only iteration J writes
// row J, and the only writer of the shared row K (iteration J = K) is a
// no-op, so results are schedule-independent.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/parallel_for.hpp"
#include "util/bit_matrix.hpp"
#include "util/lazy.hpp"
#include "workload/graphs.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

/// A transitive-closure program and the activity trace it reads, which a
/// BEST-STATIC oracle of the same graph may share. The first reader of the
/// trace builds it: a simulation or ideal serial time of the program, or
/// the oracle. Building the program builds only its key and cost.
struct ClosureProgram {
  LoopProgram program;
  std::shared_ptr<const Lazy<BitMatrix>> trace;
};

class TransitiveClosureKernel {
 public:
  explicit TransitiveClosureKernel(BoolMatrix graph);

  void run_serial();
  void run_parallel(ThreadPool& pool, Scheduler& sched);

  const BoolMatrix& matrix() const { return a_; }
  std::int64_t reachable_pairs() const;

  /// Simulator descriptor. The per-epoch active set (is edge (J,K) present
  /// when epoch K starts?) depends on the algorithm's own progress, so it
  /// is captured by running the serial algorithm once and recording a
  /// trace — the simulated costs then follow the real data-dependent
  /// execution exactly. The program holds the graph packed into bits,
  /// n * n / 8 bytes, until its first epoch_loops call builds the trace
  /// from them, and states its cost, n^2, so program_cost builds nothing.
  /// When n * work_per_element is a whole number, each loop's work_sum
  /// sums its terms with one popcount of the epoch's trace row.
  static LoopProgram program(const BoolMatrix& graph,
                             double work_per_element = 2.0);

  /// program(graph, work_per_element) with the trace it reads.
  static ClosureProgram closure(const BoolMatrix& graph,
                                double work_per_element = 2.0);

  /// The activity trace: bit (k, j) is set when iteration j of epoch k
  /// does real work, i.e. edge (j, k) is present as epoch k starts. The
  /// closure ORs row k's non-zero words into each active row:
  /// O(n^3 / 64) at most.
  static BitMatrix active_trace(const BoolMatrix& graph);

 private:
  std::int64_t n_;
  BoolMatrix a_;
};

}  // namespace afs
