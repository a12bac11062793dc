#include "sim/machine_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace afs {
namespace {

// Phase-timer plumbing (SimOptions::time_phases). The untimed engine
// instantiation never touches any of this.
using Clock = std::chrono::steady_clock;

inline double dsec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// True for an integer in [0, 2^53): every such value is a double, so
/// adding two of them is exact whenever the sum is one too.
bool exact_integer(double x) {
  return x >= 0.0 && x < 0x1p53 && std::floor(x) == x;
}

}  // namespace

void SimOptions::validate(const MachineConfig& config) const {
  perturb.validate(config.max_processors);
}

MachineSim::MachineSim(MachineConfig config, SimOptions options)
    : config_(std::move(config)), options_(std::move(options)) {
  config_.validate();
  options_.validate(config_);
}

double MachineSim::ideal_serial_time(const LoopProgram& program) const {
  double total = 0.0;
  for (int e = 0; e < program.epochs; ++e) {
    for (const ParallelLoopSpec& spec : program.epoch_loops(e)) {
      if (spec.work_sum && !spec.footprint) {
        total += spec.work_sum(0, spec.n);
        continue;
      }
      // n terms added one at a time. When every term, the running total
      // and the loop's sum are integers below 2^53, so is every partial
      // sum: each addition is exact, and adding the sum at once matches.
      // A uniform loop's terms are its uniform_work; a work_sum beside a
      // footprint promises whole-number terms (loop_spec.hpp).
      double sum = -1.0;  // not known to be a sum of whole numbers
      if (spec.uniform_work > 0.0) {
        if (exact_integer(spec.uniform_work))
          sum = static_cast<double>(spec.n) * spec.uniform_work;
      } else if (spec.work_sum) {
        sum = spec.work_sum(0, spec.n);
      }
      if (exact_integer(total) && exact_integer(sum) &&
          exact_integer(total + sum)) {
        total += sum;
      } else {
        for (std::int64_t i = 0; i < spec.n; ++i) total += spec.work(i);
      }
    }
  }
  return total * config_.work_unit_time;
}

void MachineSim::run_loop(const ParallelLoopSpec& spec, Scheduler& sched,
                          int p, const std::vector<double>& start,
                          MetricsFanout& m) {
  if (options_.time_phases)
    run_loop_impl<true>(spec, sched, p, start, m);
  else
    run_loop_impl<false>(spec, sched, p, start, m);
}

template <bool kTimed>
void MachineSim::run_loop_impl(const ParallelLoopSpec& spec, Scheduler& sched,
                               int p, const std::vector<double>& start,
                               MetricsFanout& m) {
  sched.start_loop(spec.n, p);

  // Fault checks run only when a fault family can alter execution flow
  // (stalls or losses). Delay-only and memory-fault-only configurations —
  // and the default no-fault configuration — keep the exact original loop.
  const bool faulty = pert_.perturbs_execution();
  if (!faulty) {
    events_.reset(start);
  } else {
    std::vector<char> alive(static_cast<std::size_t>(p), 1);
    for (int i = 0; i < p; ++i)
      if (pert_.lost(i)) alive[static_cast<std::size_t>(i)] = 0;
    events_.reset(start, alive);
  }

  pending_.assign(static_cast<std::size_t>(p), ChunkState{});
  std::vector<ChunkState>& pending = pending_;
  const bool batch = options_.batch_iterations;
  // Feedback channel (adaptive schedulers): resolved once per loop, so the
  // paper's nine schedulers pay a single virtual call and nothing else.
  // Reports fire exactly where on_chunk fires — boundaries both batching
  // modes visit at identical clocks in identical order — with one carve-out
  // below: the footprint-free whole-chunk coalesce is sound only when no
  // other agent can observe the interleaving, and a feedback scheduler is
  // such an agent, so feedback runs route through the leads()-checked path.
  const bool feedback = sched.wants_feedback();
  // Horizon hoisting is sound only off the shared-link machines; constant
  // for the whole run, so resolved here rather than per event.
  const bool hoist = !memory_.serialized_link();
  // Uniform-work loops (Gauss, SOR) charge a precomputed per-iteration
  // cost instead of an indirect CostFn call each iteration; the kernel
  // guarantees the same value, so the accounting is bit-identical.
  const bool uniform = spec.uniform_work > 0.0;
  const double uniform_w = spec.uniform_work * config_.work_unit_time;
  std::int64_t executed = 0;  // iterations actually run (fault accounting)

  // Granularity: one event per *iteration* of a loop with a data
  // footprint, not per chunk. Shared resources (the bus, queue locks)
  // serialize requests in global simulated-time order only if no
  // processor's clock runs far ahead of the others between events;
  // executing a whole N/P-iteration chunk in one event would let the
  // first-processed processor reserve the bus for its entire epoch and
  // starve everyone else retroactively.
  //
  // Batching fast path (batch == true): after each step a processor checks
  // EventCore::leads — if it would be popped next anyway, it keeps
  // executing inline, eliminating the heap round-trip without reordering
  // anything. Footprint-free chunks go further and always coalesce to one
  // event: they touch no shared resource, so no interleaving with other
  // processors can observe or affect them. Footprint chunks run in a
  // horizon-batched inner loop — the heap is untouched during an inline
  // run, so on switch interconnects the other-processor horizon is read
  // once per pop instead of once per iteration (docs/SIMULATOR.md proves
  // all three cases). Chunks with an analytic work_sum are charged in O(1)
  // as before (this is what makes Table 2's 2e8-iteration loop tractable).
  //
  // Fault checks (death, transient stalls) happen at iteration/chunk
  // boundaries, which both batching modes visit at identical clock values;
  // the coalescing path below repeats them per iteration so the injected
  // schedule — and therefore the SimResult — is the same either way.
  // Steady-state heap traffic uses the fused EventCore::push_pop — a
  // processor that stops leading swaps itself for the current leader in
  // one sift instead of a push plus a pop. Same event multiset, same
  // total order, bit-identical drain.
  bool draining = !events_.empty();
  EventCore::Event cur = draining ? events_.pop() : EventCore::Event{};
  while (draining) {
    double t = cur.first;
    const int proc = cur.second;
    ChunkState& mine = pending[static_cast<std::size_t>(proc)];
    bool active = true;
    bool yielded = false;  // inner loop already proved !leads

    for (;;) {
      if (faulty) {
        if (pert_.death_due(proc, t)) {
          // Permanent loss: the processor stops at this boundary. Its
          // in-flight chunk is abandoned (the iterations are folded into
          // the end-of-loop abandoned count); queued work it owned is left
          // for the survivors to steal or drain. If it died mid-chunk, the
          // per-iteration on_work records already narrated
          // [first, range.begin) — close them with a truncated chunk
          // record so trace consumers see every executed iteration inside
          // exactly one chunk record. Both batching modes reach this
          // boundary at the same clock, so the record is identical.
          if (!mine.range.empty() && mine.range.begin > mine.first) {
            m.on_chunk(proc, mine.first, mine.range.begin, mine.exec_start, t);
            if (feedback)
              sched.report(
                  {proc, mine.first, mine.range.begin, mine.exec_start, t});
          }
          pert_.mark_lost(proc, t);
          m.on_proc_lost(proc, t);
          mine.range = IterRange{};
          events_.finish(proc, t);
          active = false;
          break;
        }
        t = pert_.apply_stalls(proc, t, m);
      }

      if (mine.range.empty()) {
        Clock::time_point ph{};
        if constexpr (kTimed) ph = Clock::now();
        const Grab g = sched.next(proc);
        if (g.done()) {
          if constexpr (kTimed) timers_.scheduler += dsec(ph, Clock::now());
          events_.finish(proc, t);
          m.on_proc_done(proc, t);
          active = false;
          break;
        }
        // --- synchronization cost for the queue that was touched ---
        const double t_sync0 = t;
        t = sync_.charge(g, t);
        m.on_grab(proc, g, t_sync0, t);
        if constexpr (kTimed) timers_.scheduler += dsec(ph, Clock::now());
        if (faulty && g.kind == GrabKind::kRemote && pert_.lost(g.queue))
          m.on_fault_steal(proc, g.queue, g.range.size());

        if (!spec.footprint && spec.work_sum) {
          // Analytic chunk: charged in one step (atomic with respect to
          // faults — boundaries are before the grab and after the chunk).
          if constexpr (kTimed) ph = Clock::now();
          const double w =
              spec.work_sum(g.range.begin, g.range.end) * config_.work_unit_time;
          m.on_work(proc, w);
          executed += g.range.size();
          const double te = t + w;
          m.on_chunk(proc, g.range.begin, g.range.end, t, te);
          if (feedback) sched.report({proc, g.range.begin, g.range.end, t, te});
          t = te;
          if constexpr (kTimed) timers_.work += dsec(ph, Clock::now());
        } else {
          mine.range = g.range;
          mine.first = g.range.begin;
          mine.exec_start = t;
        }
      } else if (batch && !spec.footprint && !feedback) {
        // Footprint-free chunk: coalesce every remaining iteration into
        // this event (no shared-resource interaction to serialize). Under
        // fault injection each iteration still hits the same boundary
        // checks the unbatched path performs.
        Clock::time_point ph{};
        if constexpr (kTimed) ph = Clock::now();
        while (!mine.range.empty()) {
          const double w =
              uniform ? uniform_w
                      : spec.work(mine.range.begin) * config_.work_unit_time;
          ++mine.range.begin;
          m.on_work(proc, w);
          t += w;
          ++executed;
          if (faulty) {
            if (pert_.death_due(proc, t)) break;  // handled atop next pass
            t = pert_.apply_stalls(proc, t, m);
          }
        }
        if (mine.range.empty())
          m.on_chunk(proc, mine.first, mine.range.end, mine.exec_start, t);
        if constexpr (kTimed) timers_.work += dsec(ph, Clock::now());
      } else if (batch && !faulty && spec.footprint) {
        // Horizon-batched footprint execution: the chunk's iterations —
        // memory accesses included — run inline until the chunk drains or
        // this processor would no longer be popped next. The event heap is
        // untouched for the whole inline run (no push/pop/finish until we
        // break), so on a switch interconnect the other-processor horizon
        // (EventCore::top) is hoisted out of the loop; the serialized-link
        // machines keep the original path's per-iteration leads() probe.
        // Both predicates are the same comparison against the same
        // unmoving heap top, so results are bit-identical either way.
        const bool bounded = !events_.empty();
        double horizon_t = 0.0;
        int horizon_p = 0;
        if (hoist && bounded) {
          const EventCore::Event& top = events_.top();
          horizon_t = top.first;
          horizon_p = top.second;
        }
        for (;;) {
          Clock::time_point ph{};
          if constexpr (kTimed) ph = Clock::now();
          const std::int64_t i = mine.range.begin++;
          const double w =
              uniform ? uniform_w : spec.work(i) * config_.work_unit_time;
          m.on_work(proc, w);
          t += w;
          ++executed;
          if constexpr (kTimed) {
            const auto n = Clock::now();
            timers_.work += dsec(ph, n);
            ph = n;
          }
          plan_.clear();
          spec.footprint(i, plan_);
          if constexpr (kTimed) {
            const auto n = Clock::now();
            timers_.footprint += dsec(ph, n);
            ph = n;
          }
          for (const BlockAccess& a : plan_) t = memory_.access(proc, a, t, m);
          if constexpr (kTimed) {
            timers_.memory += dsec(ph, Clock::now());
            timers_.memory_accesses += static_cast<std::int64_t>(plan_.size());
          }
          if (mine.range.empty()) {
            m.on_chunk(proc, mine.first, mine.range.end, mine.exec_start, t);
            if (feedback)
              sched.report(
                  {proc, mine.first, mine.range.end, mine.exec_start, t});
            break;  // chunk done — the outer check decides on a regrab
          }
          const bool leads =
              hoist ? (!bounded || t < horizon_t ||
                       (t == horizon_t && proc < horizon_p))
                    : events_.leads(t, proc);
          if (!leads) {
            yielded = true;  // skip the redundant bottom leads() probe
            break;
          }
        }
        if (yielded) break;
      } else {
        // --- execute one iteration (unbatched, or fault-checked) ---
        Clock::time_point ph{};
        if constexpr (kTimed) ph = Clock::now();
        const std::int64_t i = mine.range.begin++;
        const double w =
            uniform ? uniform_w : spec.work(i) * config_.work_unit_time;
        m.on_work(proc, w);
        t += w;
        ++executed;
        if constexpr (kTimed) {
          const auto n = Clock::now();
          timers_.work += dsec(ph, n);
          ph = n;
        }
        if (spec.footprint) {
          plan_.clear();
          spec.footprint(i, plan_);
          if constexpr (kTimed) {
            const auto n = Clock::now();
            timers_.footprint += dsec(ph, n);
            ph = n;
          }
          for (const BlockAccess& a : plan_) t = memory_.access(proc, a, t, m);
          if constexpr (kTimed) {
            timers_.memory += dsec(ph, Clock::now());
            timers_.memory_accesses += static_cast<std::int64_t>(plan_.size());
          }
        }
        if (mine.range.empty()) {
          m.on_chunk(proc, mine.first, mine.range.end, mine.exec_start, t);
          if (feedback)
            sched.report({proc, mine.first, mine.range.end, mine.exec_start, t});
        }
      }

      if (!batch || !events_.leads(t, proc)) break;
    }

    if (active) {
      cur = events_.push_pop(t, proc);
    } else if (!events_.empty()) {
      cur = events_.pop();
    } else {
      draining = false;
    }
  }

  if (faulty) {
    // Whatever was never executed — a dead processor's in-flight chunk
    // plus any statically-assigned range nobody could reclaim — is the
    // loop's graceful-degradation deficit.
    const std::int64_t abandoned = spec.n - executed;
    if (abandoned > 0) m.on_abandoned(abandoned);
  }

  sched.end_loop();
}

SimResult MachineSim::run(const LoopProgram& program, Scheduler& sched, int p) {
  AFS_CHECK(p >= 1 && p <= config_.max_processors);
  AFS_CHECK(program.epochs >= 0 && program.epoch_loops != nullptr);

  SimResult result;
  MetricsFanout m(result, options_.trace);
  events_.set_cancel(options_.cancel);
  events_.set_calendar(options_.calendar_queue);
  pert_.reset(options_.perturb, p);
  memory_.reset(config_, p, &pert_, options_.memory_fast_path,
                /*warm=*/options_.epoch_batch);
  sync_.reset(config_, sched, p, &pert_);
  sched.reset_stats();
  m.on_run_begin(config_, program.name, sched.name(), p);

  timers_ = EnginePhaseTimers{};
  if (plan_.capacity() == 0) plan_.reserve(8);
  Clock::time_point run_t0{};
  if (options_.time_phases) run_t0 = Clock::now();

  Xoshiro256 jitter_rng(options_.jitter_seed);
  double now = 0.0;
  bool first_loop = true;
  const bool fault_aware = pert_.perturbs_execution();

  for (int e = 0; e < program.epochs; ++e) {
    for (const ParallelLoopSpec& spec : program.epoch_loops(e)) {
      AFS_CHECK(spec.work != nullptr || (spec.work_sum && !spec.footprint));
      start_.assign(static_cast<std::size_t>(p), now);
      std::vector<double>& start = start_;
      for (int i = 0; i < p; ++i) {
        auto& s = start[static_cast<std::size_t>(i)];
        if (config_.epoch_jitter > 0.0)
          s += jitter_rng.next_double() * config_.epoch_jitter;
        if (first_loop) {
          // Start delay = one initial stall (the Table 2 experiment),
          // charged to stall_time so conservation closes over it.
          const double d = pert_.start_delay(i);
          if (d > 0.0) {
            m.on_stall(i, s, s + d);
            s += d;
          }
        }
      }
      first_loop = false;

      m.on_loop_begin(e, spec.n, p);
      run_loop(spec, sched, p, start, m);

      const double end = events_.join_time();
      if (!fault_aware) {
        for (double d : events_.completion_times()) m.on_idle(end - d);
      } else {
        // A live processor's tail is idle time; a dead processor's span
        // from death (or loop start, when it died earlier) to the join is
        // fault time, charged to stall_time so the decomposition still
        // covers P * makespan.
        const std::vector<double>& done = events_.completion_times();
        for (int i = 0; i < p; ++i) {
          const double span = end - done[static_cast<std::size_t>(i)];
          if (pert_.lost(i))
            m.on_dead_time(span);
          else
            m.on_idle(span);
        }
      }
      m.on_loop_end(e, end);
      now = end;

      // Fork/join barrier before the next loop. Dead processors do not
      // participate: their share of the span is fault time, not barrier.
      const double b = config_.barrier_base + config_.barrier_per_proc * p;
      const int lost = pert_.lost_count();
      m.on_barrier(e, b, b * (p - lost));
      if (lost > 0) m.on_dead_time(b * lost);
      now += b;
    }
  }

  result.sched_stats = sched.stats();
  m.on_run_end(now);
  if (options_.time_phases) {
    timers_.total = dsec(run_t0, Clock::now());
    result.timers = timers_;
  }
  return result;
}

}  // namespace afs
