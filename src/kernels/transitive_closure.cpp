#include "kernels/transitive_closure.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace afs {

TransitiveClosureKernel::TransitiveClosureKernel(BoolMatrix graph)
    : n_(graph.rows()), a_(std::move(graph)) {
  AFS_CHECK(a_.rows() == a_.cols());
}

void TransitiveClosureKernel::run_serial() {
  for (std::int64_t k = 0; k < n_; ++k) {
    for (std::int64_t j = 0; j < n_; ++j) {
      if (!a_(j, k) || j == k) continue;
      for (std::int64_t i = 0; i < n_; ++i)
        if (a_(k, i)) a_(j, i) = 1;
    }
  }
}

void TransitiveClosureKernel::run_parallel(ThreadPool& pool, Scheduler& sched) {
  for (std::int64_t k = 0; k < n_; ++k) {
    parallel_for(pool, sched, n_, [this, k](IterRange r, int) {
      for (std::int64_t j = r.begin; j < r.end; ++j) {
        if (!a_(j, k) || j == k) continue;
        for (std::int64_t i = 0; i < n_; ++i)
          if (a_(k, i)) a_(j, i) = 1;
      }
    });
  }
}

std::int64_t TransitiveClosureKernel::reachable_pairs() const {
  std::int64_t c = 0;
  for (std::int64_t j = 0; j < n_; ++j)
    for (std::int64_t i = 0; i < n_; ++i)
      if (a_(j, i)) ++c;
  return c;
}

namespace {

/// The adjacency matrix as bits: bit (j, i) is set when edge (j, i) is.
BitMatrix adjacency_bits(const BoolMatrix& graph) {
  const std::int64_t n = graph.rows();
  BitMatrix bits(n, n);
  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint8_t* edges = &graph(j, 0);
    const std::span<std::uint64_t> row = bits.row(j);
    for (std::int64_t i = 0; i < n; i += 8) {
      // Eight entries at a time: skip them when all are zero, else set
      // their bits without a branch per entry, which a random graph's
      // edges would defeat.
      const std::int64_t end = std::min(n, i + 8);
      std::uint64_t eight = 0;
      std::memcpy(&eight, edges + i, static_cast<std::size_t>(end - i));
      if (eight == 0) continue;
      std::uint64_t set = 0;
      for (std::int64_t b = i; b < end; ++b)
        set |= std::uint64_t{edges[b] != 0} << (b % 64);
      row[static_cast<std::size_t>(i / 64)] |= set;
    }
  }
  return bits;
}

/// The activity trace of the graph whose adjacency bits `closure` holds;
/// the closure is computed in place.
BitMatrix trace_of(BitMatrix closure) {
  const std::int64_t n = closure.rows();
  // Row j gains bits only by ORing in a row k whose bit (j, k) it already
  // has, so a row that starts empty stays empty: no epoch visits it.
  std::vector<std::int64_t> rows;
  for (std::int64_t j = 0; j < n; ++j) {
    const std::span<std::uint64_t> row = closure.row(j);
    if (std::any_of(row.begin(), row.end(),
                    [](std::uint64_t w) { return w != 0; }))
      rows.push_back(j);
  }

  // Epoch k reads column k as it stands when the epoch starts. Only
  // iteration j writes row j, and row k itself is never updated in epoch
  // k (j == k is a no-op), so testing bit (j, k) just before iteration j
  // ORs row k into row j sees the epoch-start value, and row k's non-zero
  // words [lo, hi) hold for the whole epoch.
  BitMatrix active(n, n);
  for (std::int64_t k = 0; k < n; ++k) {
    const std::span<std::uint64_t> row_k = closure.row(k);
    std::size_t lo = 0, hi = row_k.size();
    while (lo < hi && row_k[lo] == 0) ++lo;
    while (hi > lo && row_k[hi - 1] == 0) --hi;
    for (const std::int64_t j : rows) {
      if (!closure.test(j, k)) continue;
      active.set(k, j);
      if (j == k) continue;
      const std::span<std::uint64_t> row_j = closure.row(j);
      for (std::size_t w = lo; w < hi; ++w) row_j[w] |= row_k[w];
    }
  }
  return active;
}

/// The program of `graph`, whose loops read `trace`, built from it.
LoopProgram closure_program(const BoolMatrix& graph, double work_per_element,
                            std::shared_ptr<const Lazy<BitMatrix>> trace) {
  const std::int64_t n = graph.rows();
  // A boolean row moves far fewer bytes than a double row: with 2-byte
  // logicals, n entries = n/4 transfer units (one unit = 8 bytes).
  const double row_units = static_cast<double>(n) / 4.0;

  LoopProgram p;
  p.name = "tc-" + std::to_string(n);
  // Identical dimensions with different edges are different programs, so
  // the key embeds a content hash of the adjacency matrix.
  p.key = "tc(n=" + std::to_string(n) + ",w=" + key_double(work_per_element) +
          ",graph=" +
          hex64(fnv1a64_bytes(
              graph.data(),
              static_cast<std::size_t>(graph.rows()) *
                  static_cast<std::size_t>(graph.cols()))) +
          ")";
  p.epochs = static_cast<int>(n);
  // n epochs of n iterations, each with a footprint.
  p.cost = static_cast<double>(n) * static_cast<double>(n);
  const double heavy = static_cast<double>(n) * work_per_element;
  p.epoch_loops = [n, heavy, row_units, trace = std::move(trace)](int k) {
    // Resolved once per epoch, never per iteration; the first call builds
    // the trace.
    const std::shared_ptr<const BitMatrix> bits = shared_value(trace);
    ParallelLoopSpec spec;
    spec.n = n;
    spec.work = [heavy, bits, k](std::int64_t j) {
      return bits->test(k, j) ? heavy : 1.0;
    };
    // Every term is a whole number, so ideal_serial_time may add the
    // epoch's sum in one step.
    if (heavy == std::floor(heavy))
      spec.work_sum = [heavy, bits, k](std::int64_t b, std::int64_t e) {
        const auto active = static_cast<double>(bits->count(k, b, e));
        return active * heavy + (static_cast<double>(e - b) - active);
      };
    spec.footprint = [row_units, bits, k](std::int64_t j,
                                          std::vector<BlockAccess>& out) {
      if (!bits->test(k, j))
        return;  // inactive iteration: the O(1) edge test touches nothing big
      out.push_back({static_cast<std::int64_t>(k), row_units, false});
      out.push_back({j, row_units, true});
    };
    return std::vector<ParallelLoopSpec>{spec};
  };
  return p;
}

}  // namespace

BitMatrix TransitiveClosureKernel::active_trace(const BoolMatrix& graph) {
  return trace_of(adjacency_bits(graph));
}

LoopProgram TransitiveClosureKernel::program(const BoolMatrix& graph,
                                             double work_per_element) {
  return closure(graph, work_per_element).program;
}

ClosureProgram TransitiveClosureKernel::closure(const BoolMatrix& graph,
                                                double work_per_element) {
  // The trace's first reader builds it from the graph's bits, consuming
  // them: the n * n byte matrix is not kept.
  auto trace = std::make_shared<const Lazy<BitMatrix>>(
      [bits = adjacency_bits(graph)]() mutable {
        return trace_of(std::move(bits));
      });
  return {closure_program(graph, work_per_element, trace), trace};
}

}  // namespace afs
