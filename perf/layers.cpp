#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"
#include "service/worker.hpp"
#include "stats.hpp"
#include "store/cell_key.hpp"
#include "store/result_store.hpp"
#include "util/hash.hpp"

namespace perf {
namespace fs = std::filesystem;

namespace {

/// Time spent inside scheduler calls.
struct GrabClock {
  std::int64_t grabs = 0, reports = 0;
  double grab_ns = 0.0, report_ns = 0.0;

  GrabClock& operator+=(const GrabClock& o) {
    grabs += o.grabs;
    reports += o.reports;
    grab_ns += o.grab_ns;
    report_ns += o.report_ns;
    return *this;
  }
};

double ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Forwarding Scheduler decorator that times next() and report(). Every
/// other virtual forwards unchanged, so a decorated cell simulates exactly
/// what the plain one does — the probe checks that bit for bit.
class TimedScheduler final : public afs::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<afs::Scheduler> inner, GrabClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const std::string& name() const override { return inner_->name(); }
  void start_loop(std::int64_t n, int p) override { inner_->start_loop(n, p); }
  afs::Grab next(int worker) override {
    const auto t0 = std::chrono::steady_clock::now();
    const afs::Grab g = inner_->next(worker);
    clock_->grab_ns += ns_since(t0);
    ++clock_->grabs;
    return g;
  }
  void end_loop() override { inner_->end_loop(); }
  afs::SyncStats stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }
  std::unique_ptr<afs::Scheduler> clone() const override {
    return std::make_unique<TimedScheduler>(inner_->clone(), clock_);
  }
  bool central_queue_is_indexed() const override {
    return inner_->central_queue_is_indexed();
  }
  int victim_probe_count(int p) const override {
    return inner_->victim_probe_count(p);
  }
  bool wants_feedback() const override { return inner_->wants_feedback(); }
  void report(const afs::ChunkFeedback& fb) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->report(fb);
    clock_->report_ns += ns_since(t0);
    ++clock_->reports;
  }

 private:
  std::unique_ptr<afs::Scheduler> inner_;
  GrabClock* clock_;
};

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = {value, unit};
}

}  // namespace

void cold_pass_metrics(const BatchPass& pass, Metrics& m) {
  const std::vector<std::string> ids = runnable_experiment_ids();
  for (std::size_t i = 0; i < ids.size() && i < pass.experiment_s.size(); ++i)
    put(m, "experiments.cold_s." + ids[i], pass.experiment_s[i], "s");
  std::error_code ec;
  std::int64_t checkpoints = 0, traces = 0, trace_bytes = 0;
  for (const auto& e :
       fs::recursive_directory_iterator(pass.out_dir + "/.sweep", ec))
    if (e.is_regular_file()) ++checkpoints;
  for (const auto& e : fs::directory_iterator(pass.out_dir, ec))
    if (e.path().extension() == ".cctrace") {
      ++traces;
      trace_bytes += static_cast<std::int64_t>(e.file_size());
    }
  put(m, "runtime.checkpoint_files", double(checkpoints), "count");
  put(m, "trace.files", double(traces), "count");
  put(m, "trace.cctrace_bytes", double(trace_bytes), "bytes");
}

void sim_sched_metrics(const Env& env, const BatchPass& cold,
                       const std::string& store, int threads, Ledger& ledger,
                       SpanRecorder& spans, Metrics& m) {
  // Every figure cell of a cold pass, plus the frontier's feedback-driven
  // schedulers (the only users of report()) on two of its kernels; the
  // latter feed sched.* only.
  std::vector<afs::FigureSpec> specs;
  for (const afs::Experiment& e : afs::all_experiments())
    if (e.kind == afs::ExperimentKind::kFigure && e.make_spec)
      specs.push_back(e.make_spec());
  const std::size_t figure_specs = specs.size();
  for (afs::LoopProgram prog : {afs::GaussKernel::program(192),
                                afs::SorKernel::program(256, 8)}) {
    afs::FigureSpec fb;
    fb.id = "feedback." + prog.key;
    fb.machine = afs::iris();
    fb.program = std::move(prog);
    fb.procs = {2, 4, 8};
    for (const std::string& s : afs::adaptive_scheduler_specs())
      fb.schedulers.push_back(afs::entry(s));
    specs.push_back(std::move(fb));
  }
  struct Cell {
    std::size_t spec;
    std::size_t sched;
    int procs;
  };
  std::vector<Cell> cells;
  for (std::size_t s = 0; s < specs.size(); ++s)
    for (std::size_t k = 0; k < specs[s].schedulers.size(); ++k)
      for (int p : specs[s].procs) cells.push_back({s, k, p});

  afs::ResultStore cold_store(store);
  struct Totals {
    std::vector<double> cell_ms, key_us;
    double cell_s = 0.0, decorated_s = 0.0;
    std::int64_t cells = 0, iterations = 0, accesses = 0, misses = 0,
                 fig15_misses = 0, mismatches = 0, not_stored = 0;
    GrabClock clock;

    void merge(const Totals& o) {
      cell_ms.insert(cell_ms.end(), o.cell_ms.begin(), o.cell_ms.end());
      key_us.insert(key_us.end(), o.key_us.begin(), o.key_us.end());
      cell_s += o.cell_s;
      decorated_s += o.decorated_s;
      cells += o.cells;
      iterations += o.iterations;
      accesses += o.accesses;
      misses += o.misses;
      fig15_misses += o.fig15_misses;
      mismatches += o.mismatches;
      not_stored += o.not_stored;
      clock += o.clock;
    }
  } total;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    Totals t;
    for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
      const Cell& c = cells[i];
      const afs::FigureSpec& spec = specs[c.spec];
      const afs::SchedulerEntry& se = spec.schedulers[c.sched];
      const bool figure = c.spec < figure_specs;
      const std::string group =
          spec.id + "/" + se.label + "/P" + std::to_string(c.procs);

      const double t0 = now_s();
      const afs::SimResult plain =
          afs::run_figure_cell(spec, se, c.procs, spec.sim_options);
      const double t1 = now_s();
      GrabClock clock;
      const afs::SchedulerEntry timed{
          se.label, se.key, [&se, &clock] {
            return std::make_unique<TimedScheduler>(se.make(), &clock);
          }};
      const afs::SimResult decorated =
          afs::run_figure_cell(spec, timed, c.procs, spec.sim_options);
      const double t2 = now_s();
      const std::string text = afs::serialize_sim_result(plain);
      if (afs::serialize_sim_result(decorated) != text) ++t.mismatches;
      t.clock += clock;
      t.decorated_s += t2 - t1;
      spans.add("sched.cell", group, t1, t2);
      if (!figure) continue;

      spans.add("sim.cell", group, t0, t1);
      t.cell_ms.push_back((t1 - t0) * 1e3);
      t.cell_s += t1 - t0;
      ++t.cells;
      t.iterations += plain.iterations;
      t.accesses += plain.hits + plain.misses;
      t.misses += plain.misses;
      if (spec.id == "fig15") t.fig15_misses += plain.misses;

      const double k0 = now_s();
      const afs::CellKey key = afs::make_cell_key(
          spec.machine, spec.program.key, se.key, c.procs, spec.sim_options);
      t.key_us.push_back((now_s() - k0) * 1e6);
      if (key.cacheable) {
        afs::SimResult stored;
        if (!cold_store.load(key, stored))
          ++t.not_stored;
        else if (afs::serialize_sim_result(stored) != text)
          ++t.mismatches;
      }
    }
    std::scoped_lock lock(mu);
    total.merge(t);
  };
  {
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ledger.attempted += static_cast<std::int64_t>(cells.size());
  if (total.mismatches > 0)
    ledger.fail(std::to_string(total.mismatches) +
                    " cells differ between plain, decorated and stored runs",
                total.mismatches);
  if (total.not_stored > 0)
    ledger.fail(std::to_string(total.not_stored) +
                " cacheable figure cells are missing from the cold store");

  put(m, "sim.cells", double(total.cells), "count");
  put(m, "sim.cell_ms_p50", quantile(total.cell_ms, 0.5), "ms");
  put(m, "sim.cell_ms_p99", quantile(total.cell_ms, 0.99), "ms");
  put(m, "sim.cell_s_sum", total.cell_s, "s");
  put(m, "sim.ns_per_iter", total.cell_s * 1e9 / double(total.iterations), "ns");
  put(m, "sim.ns_per_access", total.cell_s * 1e9 / double(total.accesses), "ns");
  put(m, "sim.iterations", double(total.iterations), "count");
  put(m, "sim.accesses", double(total.accesses), "count");
  put(m, "sim.misses", double(total.misses), "count");
  put(m, "sim.fig15_misses", double(total.fig15_misses), "count");
  if (!env.pinning) {
    for (const char* name : {"sim.cells", "sim.iterations", "sim.accesses",
                             "sim.misses", "sim.fig15_misses"}) {
      const auto pin = env.pins.counts.find(name);
      if (pin == env.pins.counts.end() ||
          double(pin->second) != m[name].value)
        ledger.fail(std::string(name) + " drifted from its pin");
    }
  }

  const GrabClock& g = total.clock;
  put(m, "sched.grabs", double(g.grabs), "count");
  put(m, "sched.ns_per_grab", g.grab_ns / double(g.grabs), "ns");
  put(m, "sched.grab_share", g.grab_ns * 1e-9 / total.decorated_s, "ratio");
  put(m, "sched.reports", double(g.reports), "count");
  put(m, "sched.ns_per_report", g.report_ns / double(g.reports), "ns");
  put(m, "store.key_us_p50", quantile(total.key_us, 0.5), "us");

  // Figure sweeps are the parallel part of a pass: how much of four
  // threads' worth of their wall time the cells themselves occupy.
  const std::vector<std::string> ids = runnable_experiment_ids();
  double figure_wall = 0.0;
  for (std::size_t i = 0; i < ids.size() && i < cold.experiment_s.size(); ++i) {
    const afs::Experiment* e = afs::find_experiment(ids[i]);
    if (e && e->kind == afs::ExperimentKind::kFigure)
      figure_wall += cold.experiment_s[i];
  }
  put(m, "runtime.parallel_efficiency", total.cell_s / (4.0 * figure_wall),
      "ratio");
}

void store_metrics(const std::vector<std::string>& stores,
                   const std::string& scratch, Ledger& ledger,
                   SpanRecorder& spans, Metrics& m) {
  // Saves write and fsync a file each; time a fixed, evenly spread sample
  // of them rather than every entry.
  constexpr std::size_t kSaveSample = 256;
  std::vector<double> hit_us, miss_us, save_us, parse_us, bytes;
  std::int64_t quarantined = 0, bad = 0;
  std::error_code ec;
  fs::remove_all(scratch, ec);
  afs::ResultStore scratch_store(scratch);
  for (const std::string& root : stores) {
    afs::ResultStore store(root);
    quarantined += store.scan().quarantined;
    std::vector<fs::path> entries;
    for (const auto& e : fs::recursive_directory_iterator(root, ec))
      if (e.is_regular_file() && e.path().extension() == ".cell" &&
          e.path().parent_path().filename() != "quarantine")
        entries.push_back(e.path());
    const std::size_t stride = std::max<std::size_t>(1, entries.size() / kSaveSample);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::string content;
      if (!read_file(entries[i].string(), content)) continue;
      bytes.push_back(double(content.size()));
      // afs-store-v2 layout: schema, crc32c and keybytes lines, then the
      // key text and the serialized result.
      std::size_t pos = 0;
      for (int line = 0; line < 2 && pos != std::string::npos; ++line)
        pos = content.find('\n', pos) + 1;
      const std::size_t eol = content.find('\n', pos);
      const std::size_t n =
          eol == std::string::npos
              ? 0
              : std::strtoull(content.c_str() + pos + 9, nullptr, 10);
      if (pos == 0 || eol == std::string::npos ||
          content.compare(pos, 9, "keybytes ") != 0 ||
          n > content.size() - eol - 1) {
        ++bad;
        continue;
      }
      const afs::CellKey key{content.substr(eol + 1, n),
                             afs::fnv1a64(content.substr(eol + 1, n)), true};
      const std::string payload = content.substr(eol + 1 + n);

      afs::SimResult r;
      double t0 = now_s();
      const bool hit = store.load(key, r);
      double t1 = now_s();
      hit_us.push_back((t1 - t0) * 1e6);
      spans.add("store.load_hit", key.text.substr(0, 64), t0, t1);
      if (!hit) ++bad;

      const std::string miss_text = key.text + "\nperf-probe-miss";
      const afs::CellKey miss{miss_text, afs::fnv1a64(miss_text), true};
      afs::SimResult unused;
      t0 = now_s();
      if (store.load(miss, unused)) ++bad;
      miss_us.push_back((now_s() - t0) * 1e6);

      afs::SimResult parsed;
      t0 = now_s();
      if (!afs::parse_sim_result(payload, parsed)) ++bad;
      parse_us.push_back((now_s() - t0) * 1e6);

      if (i % stride == 0) {
        t0 = now_s();
        scratch_store.save(key, r);
        t1 = now_s();
        save_us.push_back((t1 - t0) * 1e6);
        spans.add("store.save", key.text.substr(0, 64), t0, t1);
      }
    }
  }
  ledger.attempted += static_cast<std::int64_t>(hit_us.size());
  if (bad > 0) ledger.fail(std::to_string(bad) + " store probe operations failed", bad);
  put(m, "store.load_hit_us_p50", quantile(hit_us, 0.5), "us");
  put(m, "store.load_hit_us_p99", quantile(hit_us, 0.99), "us");
  put(m, "store.load_miss_us_p50", quantile(miss_us, 0.5), "us");
  put(m, "store.save_us_p50", quantile(save_us, 0.5), "us");
  put(m, "store.save_us_p99", quantile(save_us, 0.99), "us");
  put(m, "store.parse_us_p50", quantile(parse_us, 0.5), "us");
  double sum = 0.0;
  for (double b : bytes) sum += b;
  put(m, "store.entry_bytes_mean", bytes.empty() ? 0.0 : sum / double(bytes.size()),
      "bytes");
  put(m, "store.quarantined", double(quarantined), "count");
  fs::remove_all(scratch, ec);
}

void worker_metrics(const Env& env, std::uint64_t seed, Ledger& ledger,
                    SpanRecorder& spans, Metrics& m) {
  constexpr std::size_t kGrids = 8;
  afs::service::WorkerPoolOptions opts;
  opts.workers = 2;
  opts.exe = env.exe;
  afs::service::WorkerPool pool(std::move(opts));
  double t0 = now_s();
  std::string error;
  if (!pool.start(error)) {
    ledger.fail("worker pool did not start: " + error);
    return;
  }
  const double spawn_s = now_s() - t0;
  spans.add("worker.spawn", "pool", t0, t0 + spawn_s);

  std::vector<double> exec_ms, overhead_ms;
  std::int64_t mismatches = 0, errors = 0;
  std::size_t grids = 0;
  for (const ServeRequest& r : make_request_sequence(seed, 200)) {
    if (r.hit) continue;
    if (grids++ == kGrids) break;
    const afs::Experiment e = afs::make_grid_experiment(r.grid);
    const afs::FigureSpec spec = e.make_spec();
    const afs::EngineToggles toggles{
        spec.sim_options.batch_iterations, spec.sim_options.memory_fast_path,
        spec.sim_options.calendar_queue, spec.sim_options.epoch_batch};
    for (const afs::SchedulerEntry& se : spec.schedulers)
      for (int p : spec.procs) {
        afs::CancelToken token;
        afs::SimResult remote;
        t0 = now_s();
        try {
          remote = pool.execute(spec.exec, se.label, p, toggles, token);
        } catch (const std::exception& ex) {
          ++errors;
          ledger.fail(std::string("worker execute: ") + ex.what());
          continue;
        }
        const double t1 = now_s();
        const afs::SimResult local =
            afs::run_figure_cell(spec, se, p, spec.sim_options);
        const double t2 = now_s();
        spans.add("worker.execute", r.line, t0, t1);
        spans.add("worker.local", r.line, t1, t2);
        exec_ms.push_back((t1 - t0) * 1e3);
        overhead_ms.push_back(((t1 - t0) - (t2 - t1)) * 1e3);
        if (afs::serialize_sim_result(remote) != afs::serialize_sim_result(local))
          ++mismatches;
      }
  }
  ledger.attempted += static_cast<std::int64_t>(exec_ms.size()) + errors;
  if (mismatches > 0)
    ledger.fail(std::to_string(mismatches) +
                    " worker cells differ from in-process runs",
                mismatches);
  put(m, "worker.spawn_ms", spawn_s * 1e3, "ms");
  put(m, "worker.execute_ms_p50", quantile(exec_ms, 0.5), "ms");
  put(m, "worker.execute_ms_p99", quantile(exec_ms, 0.99), "ms");
  put(m, "worker.overhead_ms_p50", quantile(overhead_ms, 0.5), "ms");
  put(m, "worker.cells", double(exec_ms.size()), "count");
  put(m, "worker.crashes", double(pool.stats().crashes), "count");
}

void service_metrics(const ServeRun& run, Metrics& m) {
  std::vector<double> accept, queue, exec, hit, miss;
  for (const RequestSample& s : run.completed) {
    const double latency = s.t_done - s.t_send;
    if (s.t_accept > 0.0) accept.push_back(s.t_accept - s.t_send);
    queue.push_back(std::max(0.0, latency - s.exec_s));
    exec.push_back(s.exec_s);
    (s.hit ? hit : miss).push_back(latency);
  }
  put(m, "service.accept_ms_p50", quantile(accept, 0.5) * 1e3, "ms");
  put(m, "service.accept_ms_p99", quantile(accept, 0.99) * 1e3, "ms");
  put(m, "service.queue_ms_p50", quantile(queue, 0.5) * 1e3, "ms");
  put(m, "service.queue_ms_p99", quantile(queue, 0.99) * 1e3, "ms");
  put(m, "service.exec_ms_p50", quantile(exec, 0.5) * 1e3, "ms");
  put(m, "service.hit_p50_ms", quantile(hit, 0.5) * 1e3, "ms");
  put(m, "service.hit_p99_ms", quantile(hit, 0.99) * 1e3, "ms");
  put(m, "service.miss_p50_ms", quantile(miss, 0.5) * 1e3, "ms");
  put(m, "service.miss_p90_ms", quantile(miss, 0.9) * 1e3, "ms");
  put(m, "service.req_per_s",
      double(run.completed.size()) / (run.traffic_end - run.traffic_start),
      "1/s");
  const auto stat = [&](const char* key) {
    const afs::service::JsonValue* v = run.stats.find(key);
    return v ? v->number : 0.0;
  };
  put(m, "service.queue_wait_ms_mean", stat("queue_wait_ms_mean"), "ms");
  put(m, "service.run_ms_mean", stat("run_ms_mean"), "ms");
  put(m, "service.rejected",
      stat("rejected_overloaded") + stat("rejected_draining"), "count");
  put(m, "service.protocol_errors", stat("protocol_errors"), "count");
}

}  // namespace perf
