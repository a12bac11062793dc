#include "runtime/sweep_runner.hpp"

#include <algorithm>
#include <charconv>
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

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_xdigit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// What the classic locale's isspace accepts.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Reads all of `s` as strtod does a NUL-terminated copy: its verdict and
/// its value.
bool parse_double(std::string_view s, double& v) {
  // The serializer's form, [-]0x<hex digit or '.'>...: std::from_chars,
  // when it reads all of it.
  std::string_view h = s;
  const bool negative = !h.empty() && h.front() == '-';
  if (negative) h.remove_prefix(1);
  if (h.size() > 2 && h[0] == '0' && (h[1] == 'x' || h[1] == 'X') &&
      (is_xdigit(h[2]) || h[2] == '.')) {
    double m = 0.0;
    const char* last = h.data() + h.size();
    const auto [end, ec] =
        std::from_chars(h.data() + 2, last, m, std::chars_format::hex);
    if (ec == std::errc() && end == last) {
      v = negative ? -m : m;
      return true;
    }
  }
  // Any other form gets strtod's verdict on the NUL-terminated value.
  const std::string copy(s);
  char* end = nullptr;
  v = std::strtod(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0';
}

/// Reads one integer as `std::istream >> std::int64_t` does in the
/// classic locale: optional whitespace, an optional sign, then decimal
/// digits up to the first non-digit; overflow fails.
bool extract_int(std::string_view line, std::size_t& i, std::int64_t& v) {
  while (i < line.size() && is_space(line[i])) ++i;
  if (i == line.size()) return false;
  const bool negative = line[i] == '-';
  if (negative || line[i] == '+') ++i;
  const std::uint64_t max =
      negative ? std::uint64_t{1} << 63 : (std::uint64_t{1} << 63) - 1;
  std::uint64_t magnitude = 0;
  bool digits = false, overflow = false;
  for (; i < line.size() && is_digit(line[i]); ++i) {
    const auto d = static_cast<std::uint64_t>(line[i] - '0');
    digits = true;
    if (magnitude > (max - d) / 10)
      overflow = true;
    else
      magnitude = magnitude * 10 + d;
  }
  if (!digits || overflow) return false;
  v = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

/// A `q` line, read as `std::istringstream(line) >> tag >> four integers`
/// reads it: the tag is the first whitespace-delimited word and must be
/// "q"; whatever follows the fourth integer is ignored.
bool parse_queue_line(std::string_view line, QueueStats& q) {
  std::size_t i = 0;
  while (i < line.size() && is_space(line[i])) ++i;
  const std::size_t begin = i;
  while (i < line.size() && !is_space(line[i])) ++i;
  const std::string_view tag = line.substr(begin, i - begin);
  return extract_int(line, i, q.local_grabs) &&
         extract_int(line, i, q.remote_grabs) &&
         extract_int(line, i, q.iters_local) &&
         extract_int(line, i, q.iters_remote) && tag == "q";
}

}  // namespace

bool parse_decimal(std::string_view s, std::int64_t& v) {
  if (!s.empty() && (is_digit(s[0]) || s[0] == '-')) {
    const char* last = s.data() + s.size();
    const auto [end, ec] = std::from_chars(s.data(), last, v);
    if (ec == std::errc() && end == last) return true;
  }
  const std::string copy(s);
  char* end = nullptr;
  v = std::strtoll(copy.c_str(), &end, 10);
  return end != copy.c_str() && *end == '\0';
}

bool parse_sim_result(std::string_view text, SimResult& out) {
  // The lines of `text` as std::getline splits them: at each '\n', with a
  // last line that lacks one, and nothing after a final '\n'.
  std::string_view line;
  const auto next_line = [&text, &line] {
    if (text.empty()) return false;
    const std::size_t eol = text.find('\n');
    line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    return true;
  };
  if (!next_line() || line != kCellSchema) return false;

  SimResult r;
  auto next_kv = [&](std::string_view key, std::string_view& value) {
    if (!next_line()) return false;
    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos || line.substr(0, sp) != key)
      return false;
    value = line.substr(sp + 1);
    return !value.empty();
  };
  auto d = [&](const char* key, double& v) {
    std::string_view value;
    return next_kv(key, value) && parse_double(value, v);
  };
  auto i = [&](const char* key, std::int64_t& v) {
    std::string_view value;
    return next_kv(key, value) && parse_decimal(value, v);
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
  for (QueueStats& q : r.sched_stats.queues)
    if (!next_line() || !parse_queue_line(line, q)) return false;
  // Between the q-lines and "end": optional `xaff`/`ximb` enrichment
  // lines (absent in entries written before those fields existed).
  for (;;) {
    if (!next_line()) return false;
    if (line == "end") break;
    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos) return false;
    const std::string_view key = line.substr(0, sp);
    const std::string_view value = line.substr(sp + 1);
    if (key == "xaff") {
      if (!parse_double(value, r.trace_affinity_score)) return false;
    } else if (key == "ximb") {
      if (!parse_double(value, r.trace_imbalance)) return false;
    } else {
      return false;
    }
  }

  out = std::move(r);
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
      // A batch-wide cancellation and a cell deadline both surface here;
      // the batch token disambiguates. Neither is retried — a timed-out
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

/// A cell: the failure it inherits from `pred`, the cell it runs after,
/// when that failed (`cause`), or its own attempts.
CellOutcome run_one(const SweepCellSpec& c, const SweepCellSpec* pred,
                    const std::optional<CellFailure>* cause,
                    const CancelToken& token, const SweepOptions& opts,
                    std::mutex& log_mu, std::ostream* log) {
  if (cause != nullptr && *cause) return inherited_failure(c, *pred, **cause);
  return attempt_cell(c, token, opts, log_mu, log);
}

/// Calls a sink notice, one at a time per batch. A sink that throws ends
/// the program: a lost outcome would leave its submitter waiting forever.
template <typename F>
void notify_sink(std::mutex& mu, F&& f) noexcept {
  std::scoped_lock lock(mu);
  f();
}

/// Runs a posted task; one that throws ends the program, like a sink.
void run_task(const std::function<void()>& task) noexcept { task(); }

/// The edges of a batch's cells, set as the cells are appended.
class CellLinks {
 public:
  /// Throws CheckFailure on a cell without a runner or label, or one
  /// that runs after a later cell. Changes nothing.
  static void check(const SweepCellSpec& c, std::size_t k) {
    AFS_CHECK_MSG(c.run != nullptr && !c.label.empty(),
                  "cell " << k << " has no runner or empty label");
    AFS_CHECK_MSG(c.after < static_cast<std::int64_t>(k),
                  "cell " << k << " runs after a later cell " << c.after);
  }
  /// Cell k keeps an explicit `after`, else a repeated key runs after its
  /// first instance. Pre: check passed.
  void link(SweepCellSpec& c, std::size_t k) {
    if (c.key == 0) return;
    const auto [it, fresh] = first_.emplace(c.key, k);
    if (!fresh && c.after < 0) c.after = static_cast<int>(it->second);
  }

 private:
  std::unordered_map<std::uint64_t, std::size_t> first_;  // key -> cell
};

}  // namespace

void link_cells(std::vector<SweepCellSpec>& cells) {
  CellLinks links;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    CellLinks::check(cells[k], k);
    links.link(cells[k], k);
  }
}

struct CellQueue::Batch {
  Batch(const SweepOptions& o, BatchSink s, std::ostream* l)
      : opts(o),
        own_token(o.cancel),
        token(o.cancel != nullptr && o.sweep_timeout <= 0.0 ? o.cancel
                                                            : &own_token),
        sink(std::move(s)),
        log(l) {}

  /// One cell and what the queue knows of it.
  struct Slot {
    SweepCellSpec spec;
    std::vector<std::size_t> dependents;  // cells that run after this one
    // Its failure, kept for its dependents. Written under the queue's
    // mutex before any dependent is made ready, and never again.
    std::optional<CellFailure> failed;
    bool done = false;  // ran; its dependents are ready. Under the mutex.
  };

  SweepOptions opts;
  // The token the batch's cells chain to: the caller's own, unless the
  // batch needs a deadline of its own (or has no caller token). Every
  // simulated event polls the chain, so it is kept no longer than that.
  CancelToken own_token;  // child of opts.cancel, armed with sweep_timeout
  const CancelToken* token;
  BatchSink sink;
  std::ostream* log;
  std::uint64_t seq = 0;
  // Guarded by the queue's mutex. A deque, so a running cell's slot stays
  // put while the batch grows.
  std::deque<Slot> cells;
  CellLinks links;
  std::size_t queued = 0;    // cells in the ready heap
  std::size_t unlanded = 0;  // cells not yet handed to the sink
  bool open = true;          // more cells may come
  bool started = false;
  std::mutex sink_mu;  // one sink call at a time
};

bool CellQueue::Ready::operator<(const Ready& o) const {
  if (batch != o.batch) return batch > o.batch;
  return cost != o.cost ? cost < o.cost : cell > o.cell;
}

CellQueue::CellQueue(int workers) : pool_(workers) {
  for (int w = 0; w < workers; ++w) pool_.submit([this] { worker_loop(); });
}

CellQueue::~CellQueue() {
  {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return batches_.empty(); });
    stop_ = true;
  }
  work_cv_.notify_all();
  pool_.drain();
}

CellQueue::Batch* CellQueue::open(const SweepOptions& opts, BatchSink sink,
                                  std::ostream* log) {
  opts.validate();
  auto b = std::make_shared<Batch>(opts, std::move(sink), log);
  if (opts.sweep_timeout > 0.0) b->own_token.set_timeout(opts.sweep_timeout);
  std::scoped_lock lock(mu_);
  b->seq = next_batch_++;
  batches_.push_back(b);
  return b.get();
}

void CellQueue::add(Batch* b, std::vector<SweepCellSpec> cells) {
  std::scoped_lock lock(mu_);
  AFS_CHECK(b->open);
  const std::size_t first = b->cells.size();
  for (std::size_t i = 0; i < cells.size(); ++i)
    CellLinks::check(cells[i], first + i);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t k = first + i;
    b->links.link(cells[i], k);
    b->cells.push_back({std::move(cells[i]), {}, {}, false});
    ++b->unlanded;
    const int after = b->cells.back().spec.after;
    if (after >= 0 && !b->cells[static_cast<std::size_t>(after)].done) {
      b->cells[static_cast<std::size_t>(after)].dependents.push_back(k);
      continue;
    }
    ready_.push_back({b->cells.back().spec.cost, b->seq, k, b});
    std::push_heap(ready_.begin(), ready_.end());
    ++b->queued;
  }
  work_cv_.notify_all();
}

void CellQueue::close(Batch* b) {
  std::shared_ptr<Batch> retired;  // destroyed outside the lock
  std::scoped_lock lock(mu_);
  b->open = false;
  if (b->unlanded == 0) retired = retire(*b);
}

std::shared_ptr<CellQueue::Batch> CellQueue::retire(Batch& b) {
  const auto it = std::find_if(
      batches_.begin(), batches_.end(),
      [&b](const std::shared_ptr<Batch>& x) { return x.get() == &b; });
  std::shared_ptr<Batch> retired = std::move(*it);
  batches_.erase(it);
  idle_cv_.notify_all();
  return retired;
}

void CellQueue::submit(std::vector<SweepCellSpec> cells,
                       const SweepOptions& opts, BatchSink sink,
                       std::ostream* log) {
  Batch* b = open(opts, std::move(sink), log);
  try {
    add(b, std::move(cells));
  } catch (...) {
    close(b);  // nothing was added
    throw;
  }
  close(b);
}

void CellQueue::post(std::function<void()> task) {
  std::scoped_lock lock(mu_);
  tasks_.push_back(std::move(task));
  work_cv_.notify_one();
}

void CellQueue::take_cancelled(std::vector<Ready>& doomed) {
  const bool any = std::any_of(
      batches_.begin(), batches_.end(), [](const std::shared_ptr<Batch>& b) {
        return b->queued > 0 && b->token->cancelled();
      });
  if (!any) return;
  const auto keep =
      std::partition(ready_.begin(), ready_.end(), [](const Ready& r) {
        return !r.owner->token->cancelled();
      });
  doomed.assign(keep, ready_.end());
  ready_.erase(keep, ready_.end());
  std::make_heap(ready_.begin(), ready_.end());
  for (const Ready& r : doomed) --r.owner->queued;
}

void CellQueue::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    // A fired batch's queued cells fail first, and at once, rather than
    // waiting under costlier cells of the batches still running.
    std::vector<Ready> doomed;
    take_cancelled(doomed);
    if (!doomed.empty()) {
      lock.unlock();
      for (const Ready& r : doomed) run_cell(r);
      lock.lock();
      continue;
    }
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      run_task(task);
      task = nullptr;  // its captures go outside the lock
      lock.lock();
      continue;
    }
    if (ready_.empty()) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }
    std::pop_heap(ready_.begin(), ready_.end());
    const Ready r = ready_.back();
    ready_.pop_back();
    Batch& b = *r.owner;
    --b.queued;
    const bool first = !std::exchange(b.started, true);
    lock.unlock();
    if (first && b.sink.on_start) notify_sink(b.sink_mu, b.sink.on_start);
    run_cell(r);
    lock.lock();
  }
}

void CellQueue::run_cell(const Ready& r) {
  Batch& b = *r.owner;
  Batch::Slot* slot = nullptr;
  const Batch::Slot* pred = nullptr;
  {
    std::scoped_lock lock(mu_);  // the deque may be growing
    slot = &b.cells[r.cell];
    if (slot->spec.after >= 0)
      pred = &b.cells[static_cast<std::size_t>(slot->spec.after)];
  }
  CellOutcome o =
      run_one(slot->spec, pred ? &pred->spec : nullptr,
              pred ? &pred->failed : nullptr, *b.token, b.opts, log_mu_, b.log);
  slot->spec.run = nullptr;
  {
    std::scoped_lock lock(mu_);
    if (!o.result) slot->failed = o.failure;
    slot->done = true;
    for (std::size_t d : slot->dependents) {
      ready_.push_back({b.cells[d].spec.cost, b.seq, d, &b});
      std::push_heap(ready_.begin(), ready_.end());
      ++b.queued;
    }
    if (!slot->dependents.empty()) work_cv_.notify_all();
  }
  notify_sink(b.sink_mu, [&] { b.sink.on_done(r.cell, std::move(o)); });

  // The last outcome of a closed batch retires it; it is destroyed
  // outside the lock (its sink and closures may own a whole request's
  // state).
  std::shared_ptr<Batch> retired;
  std::scoped_lock lock(mu_);
  if (--b.unlanded == 0 && !b.open) retired = retire(b);
}

void run_sweep(std::vector<SweepCellSpec> cells, const SweepOptions& opts,
               const CellDoneFn& on_done, std::ostream* log) {
  opts.validate();
  const std::size_t n = cells.size();

  if (opts.queue == nullptr && opts.jobs == 1) {
    // Serial mode runs in the caller's thread in declaration order — the
    // bit-identity reference ordering. Every edge points backwards, so
    // each cell's predecessor has already finished.
    link_cells(cells);
    CancelToken token(opts.cancel);
    if (opts.sweep_timeout > 0.0) token.set_timeout(opts.sweep_timeout);
    std::mutex log_mu;
    std::vector<std::optional<CellFailure>> failed(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto after = static_cast<std::size_t>(cells[k].after);
      const bool pred = cells[k].after >= 0;
      CellOutcome o = run_one(cells[k], pred ? &cells[after] : nullptr,
                              pred ? &failed[after] : nullptr, token, opts,
                              log_mu, log);
      cells[k].run = nullptr;
      if (!o.result) failed[k] = o.failure;
      on_done(k, std::move(o));
    }
    return;
  }

  // One batch, waited for: outcomes land in a mailbox that the caller's
  // thread empties into on_done. The sink notifies under the mailbox
  // lock, so once the last outcome is taken nothing touches this frame.
  CancelToken abort(opts.cancel);
  SweepOptions batch = opts;
  batch.cancel = &abort;
  std::mutex mu;
  std::condition_variable landed_cv;
  std::deque<std::pair<std::size_t, CellOutcome>> landed;
  std::optional<CellQueue> own;  // destroyed first: waits for the batch
  CellQueue& queue = opts.queue ? *opts.queue : own.emplace(opts.jobs);
  queue.submit(std::move(cells), batch,
               {nullptr,
                [&](std::size_t k, CellOutcome o) {
                  std::scoped_lock lock(mu);
                  landed.emplace_back(k, std::move(o));
                  landed_cv.notify_one();
                }},
               log);

  std::size_t received = 0;
  const auto take = [&] {
    std::deque<std::pair<std::size_t, CellOutcome>> got;
    std::unique_lock lock(mu);
    landed_cv.wait(lock, [&] { return !landed.empty(); });
    got.swap(landed);
    received += got.size();
    return got;
  };
  try {
    while (received < n)
      for (auto& [k, o] : take()) on_done(k, std::move(o));
  } catch (...) {
    // The batch still delivers into this frame: cancel it and let every
    // remaining cell land before unwinding.
    abort.cancel();
    while (received < n) take();
    throw;
  }
}

}  // namespace afs
