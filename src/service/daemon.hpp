// The sweep daemon: `afs_sweep serve` (docs/SWEEP_SERVICE.md, "Serving").
//
// A long-running service over a Unix-domain socket that accepts sweep
// requests from many concurrent clients and executes them against the
// experiment registry and the shared content-addressed result store. The
// daemon dispatches cells, not requests: each `run`/`grid` request is
// planned when it is admitted and its cells are looked up in the store
// there, once each. A request whose cells are all stored is rendered and
// answered at once, on its connection's reader thread; only the missing
// cells join the one cell queue that every request shares, so --jobs
// spans requests and a store hit never waits behind a simulation. That
// is the paper's own remedy (Figs. 6-7) at the service layer: a FIFO of
// coarse, skewed units makes short work wait for the longest unit ahead
// of it, so short work overtakes long work and the pool stays busy.
//
// Robustness contract:
//   * backpressure — at most --max-queue admitted requests wait for the
//     pool (none of their cells started); the rest are bounced with a
//     structured `overloaded` error;
//   * answer order — pipelined `run`/`grid` requests on one connection
//     are answered in submission order (inline verbs answer at once);
//   * deadlines — each request carries (or inherits) a wall-clock
//     deadline that propagates into the CancelToken chain: an expired
//     request cancels its queued cells without poisoning the shared pool;
//   * graceful drain — SIGTERM/SIGINT stop admission, answer requests
//     not yet started with `cancelled`, finish (or, after
//     --drain-timeout, cancel) running ones, log the counters and exit 0;
//   * crash recovery — state lives in the content-addressed store, so a
//     SIGKILLed daemon restarted over the same .store serves re-issued
//     requests warm and byte-identical;
//   * client isolation — a client that disconnects, floods garbage or
//     stops reading is torn down (its in-flight request cancelled)
//     without affecting any other connection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sweep_runner.hpp"
#include "service/listener.hpp"
#include "service/request.hpp"
#include "service/service_stats.hpp"
#include "service/worker.hpp"
#include "store/result_store.hpp"
#include "util/cancel.hpp"

namespace afs::service {

struct DaemonOptions {
  std::string socket_path;                ///< required; <= 107 bytes
  std::string out_dir = "bench_results";  ///< CSVs land here, like batch
  std::string store_dir;  ///< empty = <out_dir>/.store
  bool no_store = false;  ///< disable the store (requests always simulate)
  int jobs = 1;           ///< cell-queue workers, shared by all requests
  int max_queue = 64;  ///< admitted requests that may wait for the pool
  int max_connections = 64;
  double default_deadline = 0.0;  ///< seconds; 0 = requests have none
  double drain_timeout = 30.0;    ///< seconds to finish in-flight on drain
  double write_timeout = 10.0;    ///< seconds before a slow reader is cut
  double cell_timeout = 0.0;      ///< per-cell deadline, as in batch mode
  int cell_retries = -1;          ///< per-cell retries; -1 = runner default
  /// "thread" (default): cells simulate in-process on the shared queue.
  /// "process": store-missed cells run in supervised sandbox workers
  /// (service/worker.hpp) — a crashing cell kills one subprocess, not the
  /// daemon — under the quarantine/budget knobs below.
  std::string isolation = "thread";
  int poison_strikes = 3;           ///< worker crashes before quarantine
  double restart_burst = 8.0;       ///< worker respawn token-bucket size
  double restart_refill = 0.5;      ///< worker respawn tokens per second
  /// Test hooks: the worker executable and argv. Empty = re-exec
  /// /proc/self/exe with {"worker"} (what afs_sweep serve wants).
  std::string worker_exe;
  std::vector<std::string> worker_args;
  bool install_signal_handlers = true;  ///< SIGTERM/SIGINT -> drain
  std::ostream* log = nullptr;          ///< daemon progress; null = quiet

  /// Throws CheckFailure naming the offending field.
  void validate() const;
};

class SweepDaemon {
 public:
  explicit SweepDaemon(DaemonOptions opts);
  ~SweepDaemon();

  SweepDaemon(const SweepDaemon&) = delete;
  SweepDaemon& operator=(const SweepDaemon&) = delete;

  /// Binds the socket and serves until drained. Returns 0 on a clean
  /// drain (SIGTERM/SIGINT/shutdown verb), nonzero when the socket could
  /// not be opened.
  int serve();

  /// Initiates the drain from any thread (what the signal handlers and
  /// the `shutdown` verb call).
  void request_drain();

  const ServiceStats& stats() const { return stats_; }
  const DaemonOptions& options() const { return opts_; }

 private:
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& frame);
  void handle_frame_error(const std::shared_ptr<Connection>& conn,
                          const ProtocolError& e);
  struct Job;
  void admit(const std::shared_ptr<Connection>& conn, Request req);
  void start(const std::shared_ptr<Job>& job);
  void land(Job& job, std::size_t k, CellOutcome outcome);
  void finish(Job& job);
  void finish_drain_watchdog();
  void log_line(const std::string& line);
  std::string stats_response(const std::string& tag) const;
  std::string health_response(const std::string& tag) const;
  double uptime_s() const;

  DaemonOptions opts_;
  ServiceStats stats_;
  RequestRegistry registry_;
  CancelToken drain_token_;  ///< parent of every request token
  std::optional<ResultStore> store_;
  std::unique_ptr<WorkerPool> workers_;  ///< non-null iff isolation=process
  /// Every request's missing cells; declared after what its batches
  /// reference, so it retires them first.
  std::optional<CellQueue> queue_;
  std::unique_ptr<Listener> listener_;
  std::mutex log_mu_;  ///< one opts_.log line at a time
  std::chrono::steady_clock::time_point start_{};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_begun_{false};

  // Drain watchdog: arms drain_token_.cancel() after drain_timeout unless
  // the queue empties first.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool drained_ = false;
};

}  // namespace afs::service
