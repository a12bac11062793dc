#include "kernels/l4.hpp"

#include <atomic>

#include "kernels/compute.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace afs {

namespace {

// Iterations of the three coalesced loops of an epoch.
constexpr std::int64_t kLoopA = 1000, kLoopB = 100, kLoopC = 80;

}  // namespace

L4Kernel::L4Kernel(L4Config config) : config_(config) {
  AFS_CHECK(config_.outer >= 1);
  AFS_CHECK(config_.if_prob >= 0.0 && config_.if_prob <= 1.0);
  tables_ = std::make_shared<const Lazy<Tables>>([config] {
    Xoshiro256 rng(config.seed);
    Tables costs(static_cast<std::size_t>(config.outer));
    for (auto& epoch : costs) {
      epoch.resize(3);
      // Loop A: I2 x I3 x I4 = 1000 iterations of {10} [+ {50} w.p. p].
      epoch[0].resize(kLoopA);
      for (auto& c : epoch[0])
        c = 10.0 + (rng.next_bool(config.if_prob) ? 50.0 : 0.0);
      // Loop B: I5 = 100 iterations of {50} + 5 inner of {100} [+ {30}].
      epoch[1].resize(kLoopB);
      for (auto& c : epoch[1]) {
        c = 50.0;
        for (int inner = 0; inner < 5; ++inner)
          c += 100.0 + (rng.next_bool(config.if_prob) ? 30.0 : 0.0);
      }
      // Loop C: I7 x I8 = 80 iterations of {30}.
      epoch[2].assign(kLoopC, 30.0);
    }
    return costs;
  });
}

const std::vector<double>& L4Kernel::costs(int epoch, int loop) const {
  AFS_CHECK(epoch >= 0 && epoch < config_.outer && loop >= 0 && loop < 3);
  return tables()[static_cast<std::size_t>(epoch)]
                 [static_cast<std::size_t>(loop)];
}

double L4Kernel::total_units() const {
  double total = 0.0;
  for (const auto& epoch : tables())
    for (const auto& loop : epoch)
      for (double c : loop) total += c;
  return total;
}

double L4Kernel::run_serial() const {
  double executed = 0.0;
  for (const auto& epoch : tables())
    for (const auto& loop : epoch)
      for (double c : loop) {
        consume(compute_units(c));
        executed += c;
      }
  return executed;
}

double L4Kernel::run_parallel(ThreadPool& pool, Scheduler& sched) const {
  std::atomic<std::int64_t> executed{0};  // units are small integers: exact
  for (const auto& epoch : tables()) {
    for (const auto& loop : epoch) {
      parallel_for(pool, sched, static_cast<std::int64_t>(loop.size()),
                   [&loop, &executed](IterRange r, int) {
                     double units = 0.0;
                     for (std::int64_t i = r.begin; i < r.end; ++i) {
                       const double c = loop[static_cast<std::size_t>(i)];
                       consume(compute_units(c));
                       units += c;
                     }
                     executed.fetch_add(static_cast<std::int64_t>(units),
                                        std::memory_order_relaxed);
                   });
    }
  }
  return static_cast<double>(executed.load());
}

LoopProgram L4Kernel::program() const {
  LoopProgram p;
  p.name = "l4";
  p.key = "l4(outer=" + std::to_string(config_.outer) +
          ",seed=" + std::to_string(config_.seed) +
          ",ifp=" + key_double(config_.if_prob) + ")";
  p.epochs = config_.outer;
  // Three footprint-free loops per epoch, each charged per iteration.
  p.cost = static_cast<double>(config_.outer) *
           static_cast<double>(kLoopA + kLoopB + kLoopC);
  p.epoch_loops = [tables = tables_](int e) {
    // Resolved once per epoch; the first call draws the tables. Each loop
    // reads its table in place: the program holds the tables.
    std::vector<ParallelLoopSpec> loops;
    for (const auto& loop : tables->get()[static_cast<std::size_t>(e)]) {
      ParallelLoopSpec spec;
      spec.n = static_cast<std::int64_t>(loop.size());
      spec.work = [&loop](std::int64_t i) {
        return loop[static_cast<std::size_t>(i)];
      };
      loops.push_back(std::move(spec));
    }
    return loops;
  };
  return p;
}

}  // namespace afs
