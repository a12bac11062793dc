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
#include "workload/graphs.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

/// A transitive-closure program and the activity trace it reads, which a
/// BEST-STATIC oracle of the same graph may share.
struct ClosureProgram {
  LoopProgram program;
  std::shared_ptr<const BitMatrix> trace;
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
  /// execution exactly. Pass `trace` (active_trace of the same graph) to
  /// share one closure with a BEST-STATIC oracle; null computes it. When
  /// n * work_per_element is a whole number, each loop's work_sum sums
  /// its terms with one popcount of the epoch's trace row.
  static LoopProgram program(const BoolMatrix& graph,
                             double work_per_element = 2.0,
                             std::shared_ptr<const BitMatrix> trace = {});

  /// program(graph) with the trace it reads.
  static ClosureProgram closure(const BoolMatrix& graph);

  /// The activity trace: bit (k, j) is set when iteration j of epoch k
  /// does real work, i.e. edge (j, k) is present as epoch k starts. The
  /// closure ORs whole rows 64 entries per word: O(n^3 / 64).
  static BitMatrix active_trace(const BoolMatrix& graph);

 private:
  std::int64_t n_;
  BoolMatrix a_;
};

}  // namespace afs
