#include "service/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <streambuf>
#include <thread>
#include <utility>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace afs::service {
namespace {

// Signal handlers may only touch lock-free state; serve()'s signal
// watcher thread polls this and runs the actual drain on a normal thread
// (an atomic, not a volatile sig_atomic_t: the reader is another thread).
std::atomic<int> g_drain_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

void drain_signal_handler(int sig) { g_drain_signal.store(sig); }

std::int64_t us_between(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

/// Streams a request's human-readable progress as one "log" response per
/// line, through the request's reply slot. A write failure is
/// deliberately ignored here: write_line has already torn the connection
/// down and cancelled the request's token, so the run aborts at its next
/// event boundary — swallowing the line is the cheapest way to keep the
/// experiment code oblivious to transport state.
class LogLineBuf : public std::streambuf {
 public:
  explicit LogLineBuf(const ServiceRequest& r) : r_(r) {}

  /// Sends a pending partial line (before the request's answer).
  void flush_line() {
    if (line_.empty()) return;
    r_.conn->send(r_.slot,
                  response_line("log",
                                {{"request", json_number(double(r_.seq))},
                                 {"text", json_quote(line_)}},
                                r_.req.tag));
    line_.clear();
  }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    if (ch == '\n')
      flush_line();
    else
      line_.push_back(static_cast<char>(ch));
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  const ServiceRequest& r_;
  std::string line_;
};

/// "1,2,4" -> {1,2,4} with the same bounds as the batch --procs flag.
bool parse_procs_list(const std::string& s, std::vector<int>& out,
                      std::string& error) {
  out.clear();
  if (s.empty()) return true;  // machine default
  bench::BenchCli tmp;
  bool want_help = false;
  if (!bench::parse_cli_args({"--procs=" + s}, tmp, error, want_help))
    return false;
  out = tmp.procs;
  return true;
}

GridSpec grid_spec_of(const Request& req, std::vector<int> procs) {
  GridSpec g;
  g.kernel = req.kernel;
  g.machine = req.machine;
  g.schedulers = req.schedulers;
  g.perturb = req.perturb;
  g.procs = std::move(procs);
  return g;
}

}  // namespace

/// One admitted run/grid request and everything its answer is built
/// from. Owned by its queue batch (or by admission, when it is answered
/// there); the batch's notices arrive one at a time.
struct SweepDaemon::Job {
  explicit Job(const CancelToken* drain_parent) : r(drain_parent) {}

  ServiceRequest r;
  Experiment grid;  ///< a grid request's experiment
  std::optional<StoreView> view;  ///< the request's share of the store
  ExperimentContext ctx;
  LogLineBuf logbuf{r};
  std::ostream log{&logbuf};
  std::optional<ExperimentRun> run;
  std::vector<std::size_t> index;  ///< queued cell -> plan cell
  std::size_t unlanded = 0;        ///< queued cells not landed yet
  bool queued = false;             ///< some cell went to the queue
  bool started = false;            ///< a queued cell started
  std::string internal_error;      ///< an exception escaped the run
};

void DaemonOptions::validate() const {
  AFS_CHECK_MSG(!socket_path.empty(), "serve needs --socket=PATH");
  AFS_CHECK_MSG(!out_dir.empty(), "serve needs a non-empty --out-dir");
  AFS_CHECK_MSG(jobs >= 1 && jobs <= 256, "--jobs must be in 1..256");
  AFS_CHECK_MSG(max_queue >= 1 && max_queue <= 4096,
                "--max-queue must be in 1..4096");
  AFS_CHECK_MSG(max_connections >= 1 && max_connections <= 1024,
                "--max-connections must be in 1..1024");
  AFS_CHECK_MSG(default_deadline >= 0.0 && default_deadline <= 86400.0,
                "--default-deadline must be in [0, 86400] seconds");
  AFS_CHECK_MSG(drain_timeout > 0.0 && drain_timeout <= 86400.0,
                "--drain-timeout must be in (0, 86400] seconds");
  AFS_CHECK_MSG(write_timeout > 0.0 && write_timeout <= 3600.0,
                "--write-timeout must be in (0, 3600] seconds");
  AFS_CHECK_MSG(cell_timeout >= 0.0, "--cell-timeout must be >= 0");
  AFS_CHECK_MSG(isolation == "thread" || isolation == "process",
                "--isolation must be thread or process");
  AFS_CHECK_MSG(poison_strikes >= 1, "--poison-strikes must be >= 1");
  AFS_CHECK_MSG(restart_burst >= 0.0, "--restart-burst must be >= 0");
  AFS_CHECK_MSG(restart_refill >= 0.0, "--restart-refill must be >= 0");
}

SweepDaemon::SweepDaemon(DaemonOptions opts) : opts_(std::move(opts)) {}

SweepDaemon::~SweepDaemon() {
  if (watchdog_.joinable()) {
    {
      std::scoped_lock lock(watchdog_mu_);
      drained_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

double SweepDaemon::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int SweepDaemon::serve() {
  opts_.validate();
  start_ = std::chrono::steady_clock::now();
  std::error_code ec;
  std::filesystem::create_directories(opts_.out_dir, ec);
  if (ec) {
    if (opts_.log)
      *opts_.log << "serve: cannot create out-dir '" << opts_.out_dir
                 << "': " << ec.message() << "\n";
    return 1;
  }
  if (!opts_.no_store) {
    store_.emplace(opts_.store_dir.empty() ? opts_.out_dir + "/.store"
                                           : opts_.store_dir);
  }

  if (opts_.isolation == "process") {
    WorkerPoolOptions wopts;
    wopts.workers = opts_.jobs;
    wopts.exe = opts_.worker_exe;
    if (!opts_.worker_args.empty()) wopts.args = opts_.worker_args;
    wopts.poison_strikes = opts_.poison_strikes;
    wopts.restart_burst = opts_.restart_burst;
    wopts.restart_refill_per_s = opts_.restart_refill;
    wopts.log = opts_.log;
    workers_ = std::make_unique<WorkerPool>(std::move(wopts));
    std::string werror;
    if (!workers_->start(werror)) {
      if (opts_.log)
        *opts_.log << "serve: cannot start sandbox workers: " << werror
                   << "\n";
      return 1;
    }
  }

  queue_.emplace(opts_.jobs);

  Listener::Handlers handlers;
  handlers.on_frame = [this](const std::shared_ptr<Connection>& conn,
                             const std::string& frame) {
    handle_frame(conn, frame);
  };
  handlers.on_frame_error = [this](const std::shared_ptr<Connection>& conn,
                                   const ProtocolError& e) {
    handle_frame_error(conn, e);
  };
  listener_ = std::make_unique<Listener>(
      opts_.socket_path, opts_.write_timeout,
      static_cast<std::size_t>(opts_.max_connections), &stats_,
      std::move(handlers));
  std::string error;
  if (!listener_->start(error)) {
    if (opts_.log) *opts_.log << "serve: " << error << "\n";
    return 1;
  }

  struct sigaction old_term {}, old_int {};
  if (opts_.install_signal_handlers) {
    g_drain_signal.store(0);
    struct sigaction sa {};
    sa.sa_handler = drain_signal_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &old_term);
    sigaction(SIGINT, &sa, &old_int);
  }

  if (opts_.log)
    *opts_.log << "serving on " << opts_.socket_path << " (store "
               << (store_ ? store_->root() : std::string("off")) << ", jobs "
               << opts_.jobs << ", queue " << opts_.max_queue << ")\n";

  // The drain can be initiated by a signal while every thread is busy;
  // the watcher thread makes a pending signal take effect.
  std::atomic<bool> stop_watching{false};
  std::thread signal_watcher([this, &stop_watching] {
    while (!stop_watching.load(std::memory_order_acquire)) {
      if (opts_.install_signal_handlers && g_drain_signal.load() != 0)
        request_drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // Requests are served from the reader threads (admission) and the cell
  // queue's workers; this thread only waits for the drain to finish.
  registry_.wait_drained();

  // Every request answered: release the watchdog before it fires, retire
  // the queue, stop the watcher, tear the transport down.
  {
    std::scoped_lock lock(watchdog_mu_);
    drained_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  queue_.reset();
  stop_watching.store(true, std::memory_order_release);
  signal_watcher.join();
  listener_->close_all();

  if (opts_.install_signal_handlers) {
    sigaction(SIGTERM, &old_term, nullptr);
    sigaction(SIGINT, &old_int, nullptr);
  }

  if (opts_.log) {
    std::scoped_lock lock(log_mu_);
    *opts_.log << "drained: admitted=" << stats_.admitted.load()
               << " completed=" << stats_.completed.load()
               << " failed=" << stats_.failed.load()
               << " cancelled=" << stats_.cancelled.load()
               << " deadline_expired=" << stats_.deadline_expired.load()
               << " rejected_overloaded=" << stats_.rejected_overloaded.load()
               << " rejected_draining=" << stats_.rejected_draining.load()
               << " protocol_errors=" << stats_.protocol_errors.load()
               << " connections=" << stats_.connections_total.load()
               << " queue_wait_ms_mean=" << stats_.queue_wait_ms_mean()
               << " run_ms_mean=" << stats_.run_ms_mean();
    if (store_)
      *opts_.log << " store_hits=" << store_->hits()
                 << " store_misses=" << store_->misses()
                 << " store_writes=" << store_->writes();
    if (workers_) {
      const WorkerPoolStats ws = workers_->stats();
      *opts_.log << " worker_spawned=" << ws.spawned
                 << " worker_crashes=" << ws.crashes
                 << " worker_cells=" << ws.cells_executed
                 << " poisoned_cells=" << ws.poisoned;
    }
    *opts_.log << "\n";
  }
  return 0;
}

void SweepDaemon::request_drain() {
  if (drain_begun_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  log_line("draining (queue " + std::to_string(registry_.waiting()) +
           ", in-flight " + std::to_string(registry_.running()) +
           ", timeout " + json_number(opts_.drain_timeout) + "s)");
  if (listener_ != nullptr) listener_->stop_accepting();
  // Start the watchdog before closing the registry: once it is closed
  // serve() may finish the drain and join watchdog_, so the thread must
  // already be assigned.
  watchdog_ = std::thread([this] { finish_drain_watchdog(); });
  registry_.close();
}

void SweepDaemon::finish_drain_watchdog() {
  std::unique_lock lock(watchdog_mu_);
  watchdog_cv_.wait_for(lock,
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double>(opts_.drain_timeout)),
                        [this] { return drained_; });
  if (!drained_) {
    log_line("drain timeout (" + json_number(opts_.drain_timeout) +
             "s): cancelling in-flight work");
    drain_token_.cancel();
  }
}

void SweepDaemon::handle_frame_error(const std::shared_ptr<Connection>& conn,
                                     const ProtocolError& e) {
  stats_.protocol_errors.fetch_add(1);
  conn->write_line(response_error(e, ""));
  if (conn->strike()) conn->teardown(true);
}

void SweepDaemon::handle_frame(const std::shared_ptr<Connection>& conn,
                               const std::string& frame) {
  Request req;
  ProtocolError e;
  if (!parse_request(frame, req, e)) {
    handle_frame_error(conn, e);
    return;
  }
  switch (req.verb) {
    case Verb::kHealth:
      conn->write_line(health_response(req.tag));
      return;
    case Verb::kStats:
      conn->write_line(stats_response(req.tag));
      return;
    case Verb::kShutdown:
      conn->write_line(response_line("shutting_down", {}, req.tag));
      request_drain();
      return;
    case Verb::kRun:
    case Verb::kGrid:
      admit(conn, std::move(req));
      return;
  }
}

void SweepDaemon::log_line(const std::string& line) {
  if (opts_.log == nullptr) return;
  std::scoped_lock lock(log_mu_);
  *opts_.log << line << "\n";
}

void SweepDaemon::admit(const std::shared_ptr<Connection>& conn, Request req) {
  const auto shutting_down = [&] {
    stats_.rejected_draining.fetch_add(1);
    conn->write_line(response_error(
        {err::kShuttingDown, "daemon is draining; not accepting work"},
        req.tag));
  };
  if (draining_.load(std::memory_order_acquire)) {
    shutting_down();
    return;
  }

  // Semantic validation happens at admission, on the connection's reader
  // thread, so a bad request is bounced immediately: ids against the
  // registry, grid specs against the grammars (a thrown usage hint
  // becomes the error message).
  if (req.verb == Verb::kRun) {
    if (!req.all) {
      for (const std::string& id : req.ids) {
        if (find_experiment(id) == nullptr) {
          conn->write_line(response_error(
              {err::kUnknownExperiment, "unknown experiment '" + id + "'"},
              req.tag));
          return;
        }
      }
    }
  } else {
    std::vector<int> procs;
    std::string perror;
    if (!parse_procs_list(req.procs, procs, perror)) {
      conn->write_line(response_error({err::kBadGrid, perror}, req.tag));
      return;
    }
    try {
      (void)make_grid_experiment(grid_spec_of(req, std::move(procs)));
    } catch (const std::exception& ex) {
      conn->write_line(response_error({err::kBadGrid, ex.what()}, req.tag));
      return;
    }
  }

  auto job = std::make_shared<Job>(&drain_token_);
  ServiceRequest& r = job->r;
  r.req = std::move(req);
  r.conn = conn;
  r.arrived = std::chrono::steady_clock::now();
  const double deadline =
      r.req.deadline > 0.0 ? r.req.deadline : opts_.default_deadline;
  // Armed before the token is shared with anyone (the deadline fields are
  // not atomic); from here on only cancel()/cancelled() touch it.
  if (deadline > 0.0) r.cancel.set_timeout(deadline);

  switch (registry_.admit(r, opts_.max_queue)) {
    case RequestRegistry::Admission::kAdmitted:
      break;
    case RequestRegistry::Admission::kClosed:
      shutting_down();
      return;
    case RequestRegistry::Admission::kFull:
      stats_.rejected_overloaded.fetch_add(1);
      conn->write_line(response_line(
          "error",
          {{"code", json_quote(err::kOverloaded)},
           {"message",
            json_quote("admission queue full; retry with backoff")},
           {"queue_depth", json_number(double(registry_.waiting()))},
           {"max_queue", json_number(double(opts_.max_queue))}},
          r.req.tag));
      return;
  }
  stats_.admitted.fetch_add(1);
  // "accepted" goes out before any of the request's cells can run, so
  // nothing of its answer can overtake it.
  conn->write_line(response_line(
      "accepted",
      {{"request", json_number(double(r.seq))},
       {"queue_depth", json_number(double(registry_.waiting()))}},
      r.req.tag));
  r.slot = conn->open_slot();
  // From here the client's disappearance cancels the request.
  conn->register_cancel(&r.cancel);
  start(job);
}

void SweepDaemon::start(const std::shared_ptr<Job>& job) {
  ServiceRequest& r = job->r;
  ExperimentContext& ctx = job->ctx;
  ctx.cli.out_dir = opts_.out_dir;
  ctx.cli.jobs = opts_.jobs;
  ctx.cli.cell_timeout = opts_.cell_timeout;
  if (opts_.cell_retries >= 0) ctx.cli.cell_retries = opts_.cell_retries;

  if (store_) {
    job->view.emplace(*store_);
    ctx.store = &*job->view;
  }
  ctx.cancel = &r.cancel;
  ctx.executor = workers_.get();
  // Quarantine and degradation are per-cell, not per-request: surface
  // them as non-terminal "cell_error" events so a client naming a
  // poisoned cell still gets every healthy cell's result (and the done
  // event) on the same connection.
  ctx.on_cell_failure = [&r](const std::string& id, const CellFailure& f) {
    if (f.kind != "poison" && f.kind != "degraded") return;
    r.conn->send(
        r.slot,
        response_line(
            "cell_error",
            {{"request", json_number(double(r.seq))},
             {"code", json_quote(f.kind == "poison" ? err::kPoisonCell
                                                    : err::kDegraded)},
             {"experiment", json_quote(id)},
             {"scheduler", json_quote(f.label)},
             {"procs", json_number(double(f.procs))},
             {"message", json_quote(f.message)}},
            r.req.tag));
  };

  // Plan, and serve every stored cell now; only the misses are queued.
  std::vector<SweepCellSpec> cells;
  try {
    std::vector<const Experiment*> experiments;
    if (r.req.verb == Verb::kGrid) {
      // Each distinct grid gets a stable private directory so repeated
      // identical grids overwrite themselves (idempotent, warm) and
      // different grids never clobber each other's grid.csv. The id stays
      // "grid", so the CSV content matches the batch driver byte for byte.
      std::vector<int> procs;
      std::string perror;
      parse_procs_list(r.req.procs, procs, perror);  // validated at admission
      const GridSpec g = grid_spec_of(r.req, std::move(procs));
      ctx.cli.out_dir =
          opts_.out_dir + "/grid-" + hex64(fnv1a64(grid_identity(g)));
      job->grid = make_grid_experiment(g);  // validated at admission
      experiments.push_back(&job->grid);
    } else if (r.req.all) {
      for (const Experiment& exp : all_experiments())
        experiments.push_back(&exp);
    } else {
      for (const std::string& id : r.req.ids)
        experiments.push_back(find_experiment(id));  // non-null per admission
    }
    job->run.emplace(std::move(experiments), ctx, job->log);
    if (job->view) {
      cells = job->run->take_misses(*job->view, job->index);
    } else {
      cells = job->run->take_cells();
      for (std::size_t k = 0; k < cells.size(); ++k) job->index.push_back(k);
    }
    if (!cells.empty()) {
      job->queued = true;
      job->unlanded = cells.size();
      queue_->submit(std::move(cells), sweep_options(ctx),
                     {[this, job] {
                        job->started = true;
                        job->r.started = std::chrono::steady_clock::now();
                        registry_.started(job->r);
                        stats_.queue_wait_us.fetch_add(
                            us_between(job->r.arrived, job->r.started));
                      },
                      [this, job](std::size_t k, CellOutcome o) {
                        land(*job, k, std::move(o));
                      }});
      return;
    }
  } catch (const std::exception& ex) {
    job->internal_error = ex.what();
  }
  finish(*job);
}

void SweepDaemon::land(Job& job, std::size_t k, CellOutcome outcome) {
  try {
    job.run->land(job.index[k], std::move(outcome));
  } catch (const std::exception& ex) {
    if (job.internal_error.empty()) job.internal_error = ex.what();
  }
  if (--job.unlanded == 0) finish(job);
}

void SweepDaemon::finish(Job& job) {
  ServiceRequest& r = job.r;
  const std::string& tag = r.req.tag;
  r.conn->unregister_cancel(&r.cancel);
  job.logbuf.flush_line();

  const auto now = std::chrono::steady_clock::now();
  if (!job.started) {
    // Answered at admission: no queue wait. Queued but never started
    // (cancelled while waiting): all of it was queue wait.
    r.started = job.queued ? now : r.arrived;
    stats_.queue_wait_us.fetch_add(us_between(r.arrived, r.started));
  }
  stats_.run_us.fetch_add(us_between(r.started, now));

  // Counters move before the answer goes out, so a client that reads it
  // and then asks for stats sees them.
  const auto answer = [&](std::atomic<std::int64_t>& counter,
                          const std::string& line, const char* outcome) {
    counter.fetch_add(1);
    r.conn->close_slot(r.slot, line);
    registry_.finished(r);
    log_line("request " + std::to_string(r.seq) + ": " + outcome);
  };

  if (!job.internal_error.empty()) {
    answer(stats_.failed,
           response_error({err::kInternal, job.internal_error}, tag, r.seq),
           "failed (internal)");
    return;
  }
  // A fired token is classified coarsest first: drain beats disconnect
  // beats deadline (a request can hit several at once; the coarser
  // condition is the truth a client can act on).
  if (r.cancel.cancelled()) {
    if (r.drain_cancelled.load() || drain_token_.cancelled())
      answer(stats_.cancelled,
             response_error({err::kCancelled, r.drain_cancelled.load()
                                                  ? "cancelled: daemon draining"
                                                  : "cancelled: daemon drain "
                                                    "timeout"},
                            tag, r.seq),
             "cancelled (drain)");
    else if (r.conn->dead())
      answer(stats_.cancelled, "", "cancelled (client gone)");
    else
      answer(stats_.deadline_expired,
             response_error({err::kDeadlineExpired, "request deadline expired"},
                            tag, r.seq),
             "deadline expired");
    return;
  }

  int worst_exit = 0;
  std::string experiments_json = "[";
  const std::vector<int>& codes = job.run->codes();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const Experiment* exp = job.run->experiments()[i];
    worst_exit = std::max(worst_exit, codes[i]);
    if (i > 0) experiments_json += ",";
    experiments_json += "{\"id\":" + json_quote(exp->id) +
                        ",\"exit\":" + json_number(double(codes[i])) +
                        ",\"csv\":[";
    for (std::size_t c = 0; c < exp->csv_ids.size(); ++c) {
      if (c > 0) experiments_json += ",";
      experiments_json +=
          json_quote(job.ctx.cli.out_dir + "/" + exp->csv_ids[c] + ".csv");
    }
    experiments_json += "]}";
  }
  experiments_json += "]";

  std::vector<JsonField> fields;
  fields.push_back({"request", json_number(double(r.seq))});
  fields.push_back({"ok", worst_exit == 0 ? "true" : "false"});
  fields.push_back({"exit", json_number(double(worst_exit))});
  fields.push_back({"experiments", experiments_json});
  fields.push_back({"elapsed_s",
                    json_number(std::chrono::duration<double>(now - r.started)
                                    .count())});
  if (job.view) {
    // The request's own cells' store traffic, not a difference of the
    // daemon-wide counters (other requests run meanwhile).
    fields.push_back(
        {"store", "{\"hits\":" + json_number(double(job.view->hits())) +
                      ",\"misses\":" + json_number(double(job.view->misses())) +
                      ",\"writes\":" + json_number(double(job.view->writes())) +
                      "}"});
  }
  if (worst_exit == 0)
    answer(stats_.completed, response_line("done", fields, tag), "done");
  else
    answer(stats_.failed, response_line("done", fields, tag),
           "failed (nonzero exit)");
}

std::string SweepDaemon::health_response(const std::string& tag) const {
  // Drain beats degradation: a draining daemon rejects new work either
  // way, and "draining" is the state a client must react to first.
  const char* status = draining_.load()                ? "draining"
                       : (workers_ && workers_->degraded()) ? "degraded"
                                                            : "serving";
  std::vector<JsonField> fields = {
      {"status", json_quote(status)},
      {"uptime_s", json_number(uptime_s())},
      {"queue_depth", json_number(double(registry_.waiting()))},
      {"max_queue", json_number(double(opts_.max_queue))},
      {"in_flight", json_number(double(registry_.running()))}};
  fields.push_back(
      {"isolation", json_quote(workers_ ? "process" : "thread")});
  if (workers_) {
    const WorkerPoolStats ws = workers_->stats();
    fields.push_back({"workers_live", json_number(double(ws.live))});
    fields.push_back({"poisoned_cells", json_number(double(ws.poisoned))});
  }
  return response_line("health", fields, tag);
}

std::string SweepDaemon::stats_response(const std::string& tag) const {
  const char* status = draining_.load()                ? "draining"
                       : (workers_ && workers_->degraded()) ? "degraded"
                                                            : "serving";
  std::vector<JsonField> fields = {
      {"status", json_quote(status)},
      {"uptime_s", json_number(uptime_s())},
      {"queue_depth", json_number(double(registry_.waiting()))},
      {"max_queue", json_number(double(opts_.max_queue))},
      {"in_flight", json_number(double(registry_.running()))},
      {"admitted", json_number(double(stats_.admitted.load()))},
      {"rejected_overloaded",
       json_number(double(stats_.rejected_overloaded.load()))},
      {"rejected_draining",
       json_number(double(stats_.rejected_draining.load()))},
      {"protocol_errors", json_number(double(stats_.protocol_errors.load()))},
      {"completed", json_number(double(stats_.completed.load()))},
      {"failed", json_number(double(stats_.failed.load()))},
      {"cancelled", json_number(double(stats_.cancelled.load()))},
      {"deadline_expired",
       json_number(double(stats_.deadline_expired.load()))},
      {"connections_total",
       json_number(double(stats_.connections_total.load()))},
      {"connections_open",
       json_number(double(stats_.connections_open.load()))},
      {"connections_torn_down",
       json_number(double(stats_.connections_torn_down.load()))},
      {"queue_wait_ms_mean", json_number(stats_.queue_wait_ms_mean())},
      {"run_ms_mean", json_number(stats_.run_ms_mean())},
  };
  if (store_) {
    fields.push_back({"store_hits", json_number(double(store_->hits()))});
    fields.push_back({"store_misses", json_number(double(store_->misses()))});
    fields.push_back({"store_writes", json_number(double(store_->writes()))});
    fields.push_back({"store_hit_rate", json_number(store_->hit_rate())});
  }
  fields.push_back(
      {"isolation", json_quote(workers_ ? "process" : "thread")});
  if (workers_) {
    const WorkerPoolStats ws = workers_->stats();
    fields.push_back({"workers_live", json_number(double(ws.live))});
    fields.push_back({"workers_spawned", json_number(double(ws.spawned))});
    fields.push_back({"worker_crashes", json_number(double(ws.crashes))});
    fields.push_back(
        {"worker_deadline_kills", json_number(double(ws.deadline_kills))});
    fields.push_back(
        {"worker_restarts_denied", json_number(double(ws.restarts_denied))});
    fields.push_back(
        {"worker_cells_executed", json_number(double(ws.cells_executed))});
    fields.push_back({"poisoned_cells", json_number(double(ws.poisoned))});
  }
  return response_line("stats", fields, tag);
}

}  // namespace afs::service
