#include "runtime/sweep_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "runtime/cell_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace afs {
namespace {

constexpr const char* kCellSchema = "afs-cell-v1";

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);  // hexfloat: exact round-trip
  return buf;
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_secs(double s, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, s);
  return buf;
}

}  // namespace

void SweepOptions::validate() const {
  AFS_CHECK_MSG(jobs >= 1 && jobs <= 256, "SweepOptions.jobs " << jobs
                                              << " outside 1..256");
  AFS_CHECK_MSG(cell_timeout >= 0.0, "SweepOptions.cell_timeout < 0");
  AFS_CHECK_MSG(sweep_timeout >= 0.0, "SweepOptions.sweep_timeout < 0");
  AFS_CHECK_MSG(max_retries >= 0, "SweepOptions.max_retries < 0");
  AFS_CHECK_MSG(backoff_base >= 0.0, "SweepOptions.backoff_base < 0");
  AFS_CHECK_MSG(backoff_max >= backoff_base,
                "SweepOptions.backoff_max < backoff_base");
}

double retry_backoff(const SweepOptions& opts, const std::string& label,
                     int procs, int attempt) {
  AFS_CHECK(attempt >= 1);
  // A zero base means "retry immediately" regardless of attempt — and
  // keeps the 0 exact instead of 0 * jitter's signed-zero edge cases.
  if (opts.backoff_base <= 0.0) return 0.0;
  // One independent, reproducible stream per (seed, cell, attempt): the
  // jitter decorrelates cells retrying at once without wall-clock input.
  std::uint64_t h = fnv1a64(label, opts.retry_seed ^ 0x9e3779b97f4a7c15ULL);
  h = fnv1a64(std::to_string(procs), h);
  h = fnv1a64(std::to_string(attempt), h);
  Xoshiro256 rng(h);
  const double jitter = 0.5 + rng.next_double();  // [0.5, 1.5)
  // base * 2^(attempt-1), with the exponent clamped so a huge attempt
  // count cannot push ldexp to +inf (inf * jitter is still inf, which
  // min() would hide — but an inf intermediate is UB bait under
  // -ffast-math and trips UBSan-adjacent checks; clamp deterministically
  // instead). 64 doublings already exceed any finite backoff_max.
  const int doublings = std::min(attempt - 1, 64);
  const double exp = std::ldexp(opts.backoff_base, doublings);
  return std::min(exp * jitter, opts.backoff_max);
}

std::string serialize_sim_result(const SimResult& r) {
  std::ostringstream os;
  os << kCellSchema << '\n';
  auto d = [&](const char* key, double v) {
    os << key << ' ' << fmt_double(v) << '\n';
  };
  auto i = [&](const char* key, std::int64_t v) {
    os << key << ' ' << v << '\n';
  };
  d("makespan", r.makespan);
  d("busy", r.busy);
  d("sync", r.sync);
  d("comm", r.comm);
  d("idle", r.idle);
  d("barrier", r.barrier);
  d("stall", r.stall_time);
  i("hits", r.hits);
  i("misses", r.misses);
  i("inval", r.invalidations);
  d("units", r.units_transferred);
  i("local", r.local_grabs);
  i("remote", r.remote_grabs);
  i("central", r.central_grabs);
  i("iters", r.iterations);
  i("lost", r.lost_processor_count);
  i("stolen", r.stolen_under_fault);
  i("abandoned", r.abandoned_iterations);
  i("loops", r.sched_stats.loops);
  i("queues", static_cast<std::int64_t>(r.sched_stats.queues.size()));
  for (const QueueStats& q : r.sched_stats.queues)
    os << "q " << q.local_grabs << ' ' << q.remote_grabs << ' '
       << q.iters_local << ' ' << q.iters_remote << '\n';
  // Optional trace-derived enrichment: written only when computed, so
  // cells serialized before the fields existed stay byte-identical and
  // the parser below accepts both generations under the same schema id.
  if (r.trace_affinity_score >= 0.0)
    d("xaff", r.trace_affinity_score);
  if (r.trace_imbalance >= 0.0) d("ximb", r.trace_imbalance);
  os << "end\n";
  return os.str();
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kCellSchema) return false;

  SimResult r;
  auto next_kv = [&](const char* key, std::string& value) {
    if (!std::getline(is, line)) return false;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || line.substr(0, sp) != key) return false;
    value = line.substr(sp + 1);
    return !value.empty();
  };
  auto d = [&](const char* key, double& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);  // strtod accepts %a hexfloats
    return end != value.c_str() && *end == '\0';
  };
  auto i = [&](const char* key, std::int64_t& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtoll(value.c_str(), &end, 10);
    return end != value.c_str() && *end == '\0';
  };

  std::int64_t queues = 0;
  if (!(d("makespan", r.makespan) && d("busy", r.busy) && d("sync", r.sync) &&
        d("comm", r.comm) && d("idle", r.idle) && d("barrier", r.barrier) &&
        d("stall", r.stall_time) && i("hits", r.hits) &&
        i("misses", r.misses) && i("inval", r.invalidations) &&
        d("units", r.units_transferred) && i("local", r.local_grabs) &&
        i("remote", r.remote_grabs) && i("central", r.central_grabs) &&
        i("iters", r.iterations) && i("lost", r.lost_processor_count) &&
        i("stolen", r.stolen_under_fault) &&
        i("abandoned", r.abandoned_iterations) &&
        i("loops", r.sched_stats.loops) && i("queues", queues)))
    return false;
  if (queues < 0 || queues > 1 << 20) return false;

  r.sched_stats.queues.resize(static_cast<std::size_t>(queues));
  for (QueueStats& q : r.sched_stats.queues) {
    if (!std::getline(is, line)) return false;
    std::istringstream qs(line);
    std::string tag;
    if (!(qs >> tag >> q.local_grabs >> q.remote_grabs >> q.iters_local >>
          q.iters_remote) ||
        tag != "q")
      return false;
  }
  // Between the q-lines and "end": optional `xaff`/`ximb` enrichment
  // lines (absent in entries written before those fields existed).
  auto parse_x = [&](const std::string& value, double& v) {
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0';
  };
  for (;;) {
    if (!std::getline(is, line)) return false;
    if (line == "end") break;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "xaff") {
      if (!parse_x(value, r.trace_affinity_score)) return false;
    } else if (key == "ximb") {
      if (!parse_x(value, r.trace_imbalance)) return false;
    } else {
      return false;
    }
  }

  out = r;
  return true;
}

std::string failure_report_json(const std::string& sweep_id, int cells_total,
                                std::vector<CellFailure> failures) {
  std::sort(failures.begin(), failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.label != b.label ? a.label < b.label
                                        : a.procs < b.procs;
            });
  std::ostringstream os;
  os << "{\"schema\":\"afs-sweep-failures-v1\",\"sweep\":\""
     << json_escaped(sweep_id) << "\",\"cells_total\":" << cells_total
     << ",\"cells_completed\":"
     << cells_total - static_cast<int>(failures.size())
     << ",\"cells_failed\":" << failures.size() << ",\"failures\":[";
  for (std::size_t k = 0; k < failures.size(); ++k) {
    const CellFailure& f = failures[k];
    if (k) os << ',';
    os << "{\"scheduler\":\"" << json_escaped(f.label)
       << "\",\"procs\":" << f.procs << ",\"kind\":\"" << json_escaped(f.kind)
       << "\",\"attempts\":" << f.attempts << ",\"message\":\""
       << json_escaped(f.message) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

namespace {

/// One cell's attempts: deadline, retry with backoff, failure taxonomy.
CellOutcome attempt_cell(const SweepCellSpec& cell,
                         const CancelToken& queue_token,
                         const SweepOptions& opts, std::mutex& log_mu,
                         std::ostream* log) {
  CellOutcome out;
  const auto fail = [&](const char* kind, std::string message, int attempts) {
    out.failure = {cell.label, cell.procs, kind, std::move(message), attempts};
    // Cells that never started are counted in the failure reports; a
    // cancelled run would otherwise log one line per queued cell.
    if (log && attempts > 0) {
      std::scoped_lock lock(log_mu);
      *log << "  " << cell.label << " P=" << cell.procs << ": FAILED [" << kind
           << "] after " << attempts << " attempt(s): " << out.failure.message
           << "\n";
    }
    return out;
  };
  for (int attempts = 0;;) {
    if (queue_token.cancelled())
      return fail("cancelled", "run deadline/abort fired", attempts);
    ++attempts;
    CancelToken token(&queue_token);
    if (opts.cell_timeout > 0.0) token.set_timeout(opts.cell_timeout);
    try {
      out.result = cell.run(token);
      return out;
    } catch (const CancelledError& e) {
      // A queue-wide cancellation and a cell deadline both surface here;
      // the queue token disambiguates. Neither is retried — a timed-out
      // cell would time out again.
      return fail(queue_token.cancelled() ? "cancelled" : "timeout", e.what(),
                  attempts);
    } catch (const CheckFailure& e) {
      // Broken invariant: deterministic, never transient. Not retried.
      return fail("invariant", e.what(), attempts);
    } catch (const PoisonedCellError& e) {
      // The cell is blacklisted by its executor (it crashed workers
      // repeatedly): deterministic for the executor's lifetime, so a
      // retry would only burn another restart token. Not retried.
      return fail("poison", e.what(), attempts);
    } catch (const DegradedError& e) {
      // The executor is in cache-only mode (restart budget exhausted).
      // Recovery is time-based, not attempt-based — retrying here would
      // spin against an empty token bucket. Not retried.
      return fail("degraded", e.what(), attempts);
    } catch (const std::exception& e) {
      if (attempts > opts.max_retries) return fail("error", e.what(), attempts);
      const double delay =
          retry_backoff(opts, cell.label, cell.procs, attempts);
      if (log) {
        std::scoped_lock lock(log_mu);
        *log << "  " << cell.label << " P=" << cell.procs << ": attempt "
             << attempts << " failed (" << e.what() << "); retrying in "
             << fmt_secs(delay, 3) << "s\n";
      }
      if (opts.sleep_fn)
        opts.sleep_fn(delay);
      else
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    } catch (...) {
      return fail("error", "non-standard exception", attempts);
    }
  }
}

/// The outcome of a cell that runs after failed cell `pred`: it never
/// starts, and inherits the failure's kind.
CellOutcome inherited_failure(const SweepCellSpec& cell,
                              const SweepCellSpec& pred,
                              const CellFailure& cause) {
  CellOutcome out;
  out.failure = {cell.label, cell.procs, cause.kind,
                 "runs after " + pred.label + " P=" +
                     std::to_string(pred.procs) + ", which failed: " +
                     cause.message,
                 0};
  return out;
}

}  // namespace

void run_sweep(std::vector<SweepCellSpec> cells, const SweepOptions& opts,
               const CellDoneFn& on_done, std::ostream* log) {
  opts.validate();
  const std::size_t n = cells.size();

  // Edges: an explicit `after`, else a repeated key's first instance.
  std::vector<std::vector<std::size_t>> dependents(n);
  {
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (std::size_t k = 0; k < n; ++k) {
      SweepCellSpec& c = cells[k];
      AFS_CHECK_MSG(c.run != nullptr && !c.label.empty(),
                    "cell " << k << " has no runner or empty label");
      AFS_CHECK_MSG(c.after < static_cast<int>(k),
                    "cell " << k << " runs after a later cell " << c.after);
      if (c.key != 0) {
        const auto [it, fresh] = first.emplace(c.key, k);
        if (!fresh && c.after < 0) c.after = static_cast<int>(it->second);
      }
      if (c.after >= 0)
        dependents[static_cast<std::size_t>(c.after)].push_back(k);
    }
  }

  CancelToken queue_token(opts.cancel);
  if (opts.sweep_timeout > 0.0) queue_token.set_timeout(opts.sweep_timeout);
  std::mutex log_mu;
  // Failed cells, kept for the cells that run after them.
  std::vector<std::optional<CellFailure>> failed(n);

  const auto run_one = [&](std::size_t k) {
    const SweepCellSpec& c = cells[k];
    if (c.after >= 0 && failed[static_cast<std::size_t>(c.after)])
      return inherited_failure(c, cells[static_cast<std::size_t>(c.after)],
                               *failed[static_cast<std::size_t>(c.after)]);
    return attempt_cell(c, queue_token, opts, log_mu, log);
  };

  if (opts.jobs == 1) {
    // Serial mode runs in the caller's thread in declaration order — the
    // bit-identity reference ordering. Every edge points backwards, so
    // each cell's predecessor has already finished.
    for (std::size_t k = 0; k < n; ++k) {
      CellOutcome o = run_one(k);
      cells[k].run = nullptr;
      if (!o.result) failed[k] = o.failure;
      on_done(k, std::move(o));
    }
    return;
  }

  // Pooled mode: the ready cells sit in a max-heap by cost; a cell joins
  // it once its predecessor finishes. Workers pop the costliest; the
  // caller's thread only hands outcomes to on_done.
  std::mutex mu;
  std::condition_variable work_cv, done_cv;
  const auto costlier = [&cells](std::size_t a, std::size_t b) {
    return cells[a].cost != cells[b].cost ? cells[a].cost < cells[b].cost
                                          : a > b;
  };
  std::vector<std::size_t> ready;
  for (std::size_t k = 0; k < n; ++k)
    if (cells[k].after < 0) ready.push_back(k);
  std::make_heap(ready.begin(), ready.end(), costlier);
  std::deque<std::pair<std::size_t, CellOutcome>> finished;
  int running = 0;

  // Pre: mu held. Files cell k's outcome and releases its dependents.
  const auto complete = [&](std::size_t k, CellOutcome o) {
    if (!o.result) failed[k] = o.failure;
    finished.emplace_back(k, std::move(o));
    for (std::size_t d : dependents[k]) {
      ready.push_back(d);
      std::push_heap(ready.begin(), ready.end(), costlier);
    }
    work_cv.notify_all();
    done_cv.notify_one();
  };

  const auto worker = [&] {
    std::unique_lock lock(mu);
    for (;;) {
      if (ready.empty()) {
        // Nothing ready and nothing running: every cell has finished.
        if (running == 0) return;
        work_cv.wait(lock);
        continue;
      }
      std::pop_heap(ready.begin(), ready.end(), costlier);
      const std::size_t k = ready.back();
      ready.pop_back();
      ++running;
      lock.unlock();
      CellOutcome o = run_one(k);
      cells[k].run = nullptr;
      lock.lock();
      --running;
      complete(k, std::move(o));
    }
  };

  std::optional<ThreadPool> own;
  ThreadPool& pool = opts.pool ? *opts.pool : own.emplace(opts.jobs);
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(pool.size()));
  for (std::size_t w = 0; w < workers; ++w) pool.submit(worker);

  try {
    for (std::size_t reported = 0; reported < n;) {
      std::deque<std::pair<std::size_t, CellOutcome>> batch;
      {
        std::unique_lock lock(mu);
        done_cv.wait(lock, [&] { return !finished.empty(); });
        batch.swap(finished);
      }
      for (auto& [k, o] : batch) {
        on_done(k, std::move(o));
        ++reported;
      }
    }
  } catch (...) {
    // The workers still reference this frame: stop them before unwinding.
    queue_token.cancel();
    pool.drain();
    throw;
  }
  pool.drain();
}

}  // namespace afs
