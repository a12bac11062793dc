#include "kernels/transitive_closure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "workload/graphs.hpp"

namespace afs {
namespace {

// Simple O(n^3) reference: repeated boolean matrix "squaring" by k-loop is
// already Warshall; use an independent reachability BFS instead.
BoolMatrix bfs_closure(const BoolMatrix& g) {
  const std::int64_t n = g.rows();
  BoolMatrix out(n, n, 0);
  for (std::int64_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> stack{s};
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    while (!stack.empty()) {
      const std::int64_t u = stack.back();
      stack.pop_back();
      for (std::int64_t v = 0; v < n; ++v) {
        if (g(u, v) && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          out(s, v) = 1;
          stack.push_back(v);
        }
      }
    }
  }
  return out;
}

TEST(TransitiveClosure, SerialMatchesBfsOnRandomGraph) {
  const auto g = random_graph(48, 0.08, 5);
  TransitiveClosureKernel k(g);
  k.run_serial();
  const auto ref = bfs_closure(g);
  // Warshall keeps original edges plus discovered paths; BFS reachability
  // marks reachable-by-nonempty-path. Compare on that footing.
  for (std::int64_t i = 0; i < 48; ++i)
    for (std::int64_t j = 0; j < 48; ++j) {
      const bool warshall = k.matrix()(i, j) != 0;
      const bool reach = ref(i, j) != 0 || g(i, j) != 0;
      EXPECT_EQ(warshall, reach) << i << "->" << j;
    }
}

TEST(TransitiveClosure, ParallelMatchesSerial) {
  const auto g = random_graph(64, 0.06, 17);
  TransitiveClosureKernel serial(g), par(g);
  serial.run_serial();
  ThreadPool pool(4);
  auto sched = make_scheduler("AFS");
  par.run_parallel(pool, *sched);
  EXPECT_EQ(serial.matrix(), par.matrix());
}

TEST(TransitiveClosure, CliqueClosesToItself) {
  TransitiveClosureKernel k(clique_graph(20, 8));
  k.run_serial();
  EXPECT_EQ(k.reachable_pairs(), 8 * 8);  // clique closure incl. self-loops
}

TEST(TransitiveClosure, ChainBecomesFullOrder) {
  BoolMatrix g(10, 10, 0);
  for (std::int64_t i = 0; i + 1 < 10; ++i) g(i, i + 1) = 1;
  TransitiveClosureKernel k(g);
  k.run_serial();
  for (std::int64_t i = 0; i < 10; ++i)
    for (std::int64_t j = 0; j < 10; ++j)
      EXPECT_EQ(k.matrix()(i, j) != 0, j > i) << i << "," << j;
}

TEST(TransitiveClosure, TraceMarksActiveIterations) {
  const auto g = clique_graph(10, 4);
  const BitMatrix trace = TransitiveClosureKernel::active_trace(g);
  ASSERT_EQ(trace.rows(), 10);
  ASSERT_EQ(trace.cols(), 10);
  // Epoch 0: iterations 1..3 have edge (j,0) (clique rows), others not.
  EXPECT_TRUE(trace.test(0, 1));
  EXPECT_FALSE(trace.test(0, 5));
}

/// The byte-matrix Warshall loop the bit-parallel trace replaced, kept as
/// its oracle: active[k][j] = edge (j, k) as epoch k starts.
std::vector<std::vector<std::uint8_t>> byte_matrix_trace(BoolMatrix graph) {
  const std::int64_t n = graph.rows();
  std::vector<std::vector<std::uint8_t>> active(
      static_cast<std::size_t>(n),
      std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0));
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t j = 0; j < n; ++j)
      active[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          graph(j, k);
    for (std::int64_t j = 0; j < n; ++j) {
      if (!graph(j, k) || j == k) continue;
      for (std::int64_t i = 0; i < n; ++i)
        if (graph(k, i)) graph(j, i) = 1;
    }
  }
  return active;
}

void expect_trace_matches_oracle(const BoolMatrix& g, const char* what) {
  const BitMatrix bits = TransitiveClosureKernel::active_trace(g);
  const auto bytes = byte_matrix_trace(g);
  const std::int64_t n = g.rows();
  ASSERT_EQ(bits.rows(), n) << what;
  ASSERT_EQ(bits.cols(), n) << what;
  std::int64_t mismatches = 0;
  for (std::int64_t k = 0; k < n; ++k)
    for (std::int64_t j = 0; j < n; ++j)
      if (bits.test(k, j) !=
          (bytes[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] !=
           0))
        ++mismatches;
  EXPECT_EQ(mismatches, 0) << what << " n=" << n;
}

TEST(TransitiveClosure, BitParallelTraceMatchesByteMatrixOracle) {
  // Sizes straddle the 64-bit word boundary (n % 64 != 0 included), and
  // densities run from nearly empty to nearly complete.
  Xoshiro256 rng(0x7c1057eULL);
  for (std::int64_t n : {1, 2, 7, 63, 64, 65, 100, 129, 200}) {
    for (double p : {0.01, 0.05, 0.2, 0.6}) {
      BoolMatrix g(n, n, 0);
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < n; ++i)
          g(j, i) = rng.next_double() < p ? 1 : 0;
      expect_trace_matches_oracle(g, "random");
    }
    for (std::int64_t clique : {std::int64_t{1}, n / 2, n}) {
      if (clique >= 1) expect_trace_matches_oracle(clique_graph(n, clique),
                                                   "clique");
    }
  }
  expect_trace_matches_oracle(random_graph(130, 0.08, 1992), "random_graph");
  expect_trace_matches_oracle(clique_graph(320, 160), "clique_graph");
}

/// The trace from reachability alone: iteration j of epoch k is active
/// when j reaches k by a path whose inner nodes are all below k — the
/// edges Warshall's first k epochs have added — found by a BFS from j.
BitMatrix bfs_trace(const BoolMatrix& g) {
  const std::int64_t n = g.rows();
  BitMatrix active(n, n);
  for (std::int64_t k = 0; k < n; ++k)
    for (std::int64_t j = 0; j < n; ++j) {
      std::vector<std::int64_t> stack{j};
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      while (!stack.empty() && !active.test(k, j)) {
        const std::int64_t u = stack.back();
        stack.pop_back();
        for (std::int64_t v = 0; v < n; ++v) {
          if (!g(u, v)) continue;
          if (v == k) {
            active.set(k, j);
            break;
          }
          if (v < k && !seen[static_cast<std::size_t>(v)]) {
            seen[static_cast<std::size_t>(v)] = true;
            stack.push_back(v);
          }
        }
      }
    }
  return active;
}

TEST(TransitiveClosure, RowSkippingTraceMatchesBfsOnGraphsWithEmptyRows) {
  // active_trace never visits a row that starts empty and ORs only row
  // k's non-zero words: on graphs where many rows start empty, and rows
  // whose edges sit in one word, it must still match reachability.
  Xoshiro256 rng(0xe3971);
  const auto check = [](const BoolMatrix& g, const std::string& what) {
    const BitMatrix fast = TransitiveClosureKernel::active_trace(g);
    const BitMatrix bfs = bfs_trace(g);
    std::int64_t mismatches = 0;
    for (std::int64_t k = 0; k < g.rows(); ++k)
      for (std::int64_t j = 0; j < g.rows(); ++j)
        if (fast.test(k, j) != bfs.test(k, j)) ++mismatches;
    EXPECT_EQ(mismatches, 0) << what << " n=" << g.rows();
  };
  for (std::int64_t n : {1, 5, 63, 64, 65, 70}) {
    check(BoolMatrix(n, n, 0), "empty");
    for (double empty_share : {0.3, 0.7, 0.95})
      for (double p : {0.03, 0.2}) {
        // Rows drawn empty with probability empty_share; the rest random.
        BoolMatrix g(n, n, 0);
        for (std::int64_t j = 0; j < n; ++j) {
          if (rng.next_double() < empty_share) continue;
          for (std::int64_t i = 0; i < n; ++i)
            g(j, i) = rng.next_double() < p ? 1 : 0;
        }
        check(g, "random rows");
      }
    // Edges only into the last word's columns, from every other row.
    BoolMatrix tail(n, n, 0);
    for (std::int64_t j = 0; j < n; j += 2)
      for (std::int64_t i = std::max<std::int64_t>(0, n - 3); i < n; ++i)
        tail(j, i) = 1;
    check(tail, "last word only");
    check(clique_graph(n, n / 2), "clique");
  }
}

TEST(TransitiveClosure, ProgramCostsFollowTrace) {
  const auto g = clique_graph(16, 8);
  const auto prog = TransitiveClosureKernel::program(g, 1.0);
  EXPECT_EQ(prog.epochs, 16);
  const auto spec = prog.epoch_loops(0)[0];
  EXPECT_DOUBLE_EQ(spec.work(1), 16.0);  // clique row: O(n)
  EXPECT_DOUBLE_EQ(spec.work(12), 1.0);  // outside clique: O(1)
}

TEST(TransitiveClosure, WorkSumCountsTheTraceRow) {
  // With whole-number terms each loop's work_sum is one popcount of the
  // epoch's trace row; over any range it equals adding work(i), across
  // word boundaries too. Fractional terms get no work_sum.
  const auto prog = TransitiveClosureKernel::program(clique_graph(150, 70));
  for (int k : {0, 1, 69, 70, 149}) {
    const ParallelLoopSpec spec = prog.epoch_loops(k)[0];
    ASSERT_TRUE(spec.work_sum) << k;
    for (const auto& [b, e] : std::vector<std::pair<int, int>>{
             {0, 150}, {0, 0}, {5, 64}, {63, 65}, {64, 128}, {70, 70},
             {1, 149}, {100, 150}}) {
      double sum = 0.0;
      for (std::int64_t j = b; j < e; ++j) sum += spec.work(j);
      EXPECT_EQ(spec.work_sum(b, e), sum) << k << " [" << b << ", " << e << ")";
    }
  }
  EXPECT_FALSE(TransitiveClosureKernel::program(clique_graph(10, 4), 0.25)
                   .epoch_loops(0)[0]
                   .work_sum);
}

TEST(TransitiveClosure, ProgramFootprintOnlyForActive) {
  const auto g = clique_graph(16, 8);
  const auto prog = TransitiveClosureKernel::program(g);
  const auto spec = prog.epoch_loops(0)[0];
  std::vector<BlockAccess> acc;
  spec.footprint(12, acc);
  EXPECT_TRUE(acc.empty());
  spec.footprint(1, acc);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].block, 0);  // shared row k
  EXPECT_EQ(acc[1].block, 1);  // own row
  EXPECT_TRUE(acc[1].write);
}

TEST(TransitiveClosure, EmptyGraphIsFixedPoint) {
  TransitiveClosureKernel k(BoolMatrix(12, 12, 0));
  k.run_serial();
  EXPECT_EQ(k.reachable_pairs(), 0);
}

}  // namespace
}  // namespace afs
