#include "kernels/transitive_closure.hpp"

#include <cmath>
#include <memory>
#include <utility>

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

BitMatrix TransitiveClosureKernel::active_trace(const BoolMatrix& graph) {
  const std::int64_t n = graph.rows();
  BitMatrix closure(n, n);
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t i = 0; i < n; ++i)
      if (graph(j, i)) closure.set(j, i);

  // Epoch k reads column k as it stands when the epoch starts. Only
  // iteration j writes row j, and row k itself is never updated in epoch
  // k (j == k is a no-op), so testing bit (j, k) just before iteration j
  // ORs row k into row j sees the epoch-start value.
  BitMatrix active(n, n);
  for (std::int64_t k = 0; k < n; ++k) {
    const std::span<std::uint64_t> row_k = closure.row(k);
    for (std::int64_t j = 0; j < n; ++j) {
      if (!closure.test(j, k)) continue;
      active.set(k, j);
      if (j == k) continue;
      const std::span<std::uint64_t> row_j = closure.row(j);
      for (std::size_t w = 0; w < row_j.size(); ++w) row_j[w] |= row_k[w];
    }
  }
  return active;
}

LoopProgram TransitiveClosureKernel::program(
    const BoolMatrix& graph, double work_per_element,
    std::shared_ptr<const BitMatrix> trace) {
  const std::int64_t n = graph.rows();
  // A boolean row moves far fewer bytes than a double row: with 2-byte
  // logicals, n entries = n/4 transfer units (one unit = 8 bytes).
  const double row_units = static_cast<double>(n) / 4.0;
  if (trace == nullptr)
    trace = std::make_shared<const BitMatrix>(active_trace(graph));

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
  const double heavy = static_cast<double>(n) * work_per_element;
  p.epoch_loops = [n, heavy, row_units, trace](int k) {
    ParallelLoopSpec spec;
    spec.n = n;
    spec.work = [heavy, trace, k](std::int64_t j) {
      return trace->test(k, j) ? heavy : 1.0;
    };
    // Every term is a whole number, so ideal_serial_time may add the
    // epoch's sum in one step.
    if (heavy == std::floor(heavy))
      spec.work_sum = [heavy, trace, k](std::int64_t b, std::int64_t e) {
        const auto active = static_cast<double>(trace->count(k, b, e));
        return active * heavy + (static_cast<double>(e - b) - active);
      };
    spec.footprint = [row_units, trace, k](std::int64_t j,
                                           std::vector<BlockAccess>& out) {
      if (!trace->test(k, j))
        return;  // inactive iteration: the O(1) edge test touches nothing big
      out.push_back({static_cast<std::int64_t>(k), row_units, false});
      out.push_back({j, row_units, true});
    };
    return std::vector<ParallelLoopSpec>{spec};
  };
  return p;
}

ClosureProgram TransitiveClosureKernel::closure(const BoolMatrix& graph) {
  auto trace = std::make_shared<const BitMatrix>(active_trace(graph));
  return {program(graph, 2.0, trace), trace};
}

}  // namespace afs
