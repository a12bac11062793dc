// Aggregate metrics produced by one simulator run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sched/stats.hpp"

namespace afs {

/// Host wall-clock phase breakdown of one engine run, in seconds.
/// Collected only when SimOptions::time_phases is set; all-zero otherwise.
/// This measures the simulator itself, not the simulated machine: the
/// fields are excluded from store entries and from every determinism
/// comparison (a timed run still produces bit-identical simulated
/// results). The instrumentation inflates exactly the phases it brackets,
/// so read the *fractions*, not the absolute sums.
struct EnginePhaseTimers {
  double total = 0.0;      ///< MachineSim::run wall clock
  double scheduler = 0.0;  ///< Scheduler::next + SyncModel::charge (grabs)
  double work = 0.0;       ///< work() cost-function calls + busy accounting
  double footprint = 0.0;  ///< footprint() calls filling the access plan
  double memory = 0.0;     ///< MemorySystem::access
  std::int64_t memory_accesses = 0;  ///< access() calls timed into `memory`

  bool collected() const { return total > 0.0; }

  /// Event-heap and engine-control time: everything `total` covers that
  /// no bracketed phase explains. Meaningful only when collected().
  double event_core_other() const {
    return total - scheduler - work - footprint - memory;
  }

  EnginePhaseTimers& operator+=(const EnginePhaseTimers& o) {
    total += o.total;
    scheduler += o.scheduler;
    work += o.work;
    footprint += o.footprint;
    memory += o.memory;
    memory_accesses += o.memory_accesses;
    return *this;
  }
};

struct SimResult {
  /// Total simulated time across all epochs and barriers (time units).
  double makespan = 0.0;

  // Time decomposition, summed over processors (so busy/P ~ useful time
  // per processor). busy + sync + comm + idle + barrier ~ P * makespan.
  double busy = 0.0;     ///< executing iterations
  double sync = 0.0;     ///< waiting for + operating on work-queue locks
  double comm = 0.0;     ///< waiting for the interconnect + miss latency
  double idle = 0.0;     ///< finished early, waiting at the epoch join
  double barrier = 0.0;  ///< fork/join overhead itself
  double stall_time = 0.0;  ///< injected faults: delays, preemptions, loss

  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t invalidations = 0;
  double units_transferred = 0.0;  ///< transfer units moved over the interconnect

  std::int64_t local_grabs = 0;
  std::int64_t remote_grabs = 0;   ///< AFS steals
  std::int64_t central_grabs = 0;
  std::int64_t iterations = 0;

  // Fault-injection accounting (all zero when no PerturbationConfig is
  // active; see src/sim/perturbation.hpp).
  std::int64_t lost_processor_count = 0;  ///< processors that died mid-run
  std::int64_t stolen_under_fault = 0;    ///< iterations drained from a dead
                                          ///< processor's queue
  std::int64_t abandoned_iterations = 0;  ///< statically-assigned work a dead
                                          ///< processor never executed

  SyncStats sched_stats;  ///< the scheduler's own accounting (Tables 3-5)

  // Trace-derived enrichment (frontier_tradeoff): filled by experiments
  // that analyze a binary trace of the run and want the derived scores to
  // ride the result store with the simulated metrics. Negative means "not
  // computed". Properties of ONE run, so operator+= deliberately skips
  // them (a sum of affinity scores means nothing).
  double trace_affinity_score = -1.0;  ///< analyze_trace affinity_score()
  double trace_imbalance = -1.0;       ///< max/mean exec time - 1 across procs

  /// Host wall-clock phase breakdown (opt-in via SimOptions::time_phases;
  /// all-zero otherwise). Not simulated state: never stored, never
  /// part of a determinism comparison.
  EnginePhaseTimers timers;

  /// Parallel speedup helper: serial_time / makespan.
  double speedup_vs(double serial_time) const {
    return makespan > 0.0 ? serial_time / makespan : 0.0;
  }

  /// Aggregates another run (or partial result) into this one: every time
  /// component and counter sums, makespans add (back-to-back runs), and
  /// scheduler queue stats merge index-wise.
  SimResult& operator+=(const SimResult& o) {
    makespan += o.makespan;
    busy += o.busy;
    sync += o.sync;
    comm += o.comm;
    idle += o.idle;
    barrier += o.barrier;
    stall_time += o.stall_time;
    hits += o.hits;
    misses += o.misses;
    invalidations += o.invalidations;
    units_transferred += o.units_transferred;
    local_grabs += o.local_grabs;
    remote_grabs += o.remote_grabs;
    central_grabs += o.central_grabs;
    iterations += o.iterations;
    lost_processor_count += o.lost_processor_count;
    stolen_under_fault += o.stolen_under_fault;
    abandoned_iterations += o.abandoned_iterations;
    if (sched_stats.queues.size() < o.sched_stats.queues.size())
      sched_stats.queues.resize(o.sched_stats.queues.size());
    for (std::size_t q = 0; q < o.sched_stats.queues.size(); ++q)
      sched_stats.queues[q] += o.sched_stats.queues[q];
    sched_stats.loops += o.sched_stats.loops;
    timers += o.timers;
    return *this;
  }
};

/// The part of a run's wall time the decomposition explains:
/// busy + sync + comm + idle + barrier + stall_time (the last is zero
/// outside fault-injection runs).
inline double accounted_time(const SimResult& r) {
  return r.busy + r.sync + r.comm + r.idle + r.barrier + r.stall_time;
}

/// The engine's conservation law: with deterministic (jitter-free) starts
/// every processor is accounted for from fork to join, so
/// accounted_time(r) ~= P * makespan to relative tolerance `rel_tol`.
/// Returns true when the identity holds.
inline bool check_time_identity(const SimResult& r, int p,
                                double rel_tol = 1e-6) {
  const double accounted = accounted_time(r);
  const double expected = static_cast<double>(p) * r.makespan;
  const double scale = std::max(std::abs(accounted), std::abs(expected));
  return std::abs(accounted - expected) <= rel_tol * scale;
}

}  // namespace afs
