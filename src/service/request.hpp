// In-flight request bookkeeping for the sweep daemon.
//
// A ServiceRequest is one admitted `run`/`grid` request: the parsed
// protocol request, the connection and reply slot its answer goes to, a
// per-request CancelToken (deadline + drain parent + client-disconnect),
// and the timestamps the latency counters are computed from. The
// RequestRegistry allocates sequence numbers, bounds how many admitted
// requests may wait for the pool (--max-queue), and tracks the waiting
// and running population so the `stats` verb (and the drain log) can
// report queue depth and in-flight state truthfully.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "service/listener.hpp"
#include "service/protocol.hpp"
#include "util/cancel.hpp"

namespace afs::service {

struct ServiceRequest {
  std::uint64_t seq = 0;  ///< daemon-assigned, echoed as "request"
  Request req;
  std::shared_ptr<Connection> conn;
  std::uint64_t slot = 0;  ///< the connection's reply slot for the answer
  /// Child of the daemon's drain token; armed with the per-request
  /// deadline at admission, fired early by the drain or a client
  /// disconnect. The queue and the simulator poll it cooperatively.
  CancelToken cancel;
  /// Set (before `cancel` fires) when the drain cancels the request
  /// before any of its cells started.
  std::atomic<bool> drain_cancelled{false};
  std::chrono::steady_clock::time_point arrived{};
  /// When its first cell started; the arrival for a request answered at
  /// admission.
  std::chrono::steady_clock::time_point started{};
  bool running = false;  ///< a cell has started (guarded by the registry)

  explicit ServiceRequest(const CancelToken* drain_parent)
      : cancel(drain_parent) {}
};

/// Thread-safe admission and waiting/running census.
class RequestRegistry {
 public:
  enum class Admission { kAdmitted, kFull, kClosed };

  /// Numbers `r` and counts it as waiting for the pool — unless the
  /// registry is closed (draining) or `max_waiting` admitted requests
  /// already wait: backpressure is the contract, unbounded memory the
  /// failure mode it prevents.
  Admission admit(ServiceRequest& r, int max_waiting) {
    std::scoped_lock lock(mu_);
    if (closed_) return Admission::kClosed;
    if (count(false) >= max_waiting) return Admission::kFull;
    r.seq = ++seq_;
    live_.push_back(&r);
    return Admission::kAdmitted;
  }

  /// `r`'s first cell started: it stops waiting and runs.
  void started(ServiceRequest& r) {
    std::scoped_lock lock(mu_);
    r.running = true;
  }

  /// `r` has been answered.
  void finished(ServiceRequest& r) {
    std::scoped_lock lock(mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), &r), live_.end());
    if (live_.empty()) drained_cv_.notify_all();
  }

  /// Stops admission and cancels every request still waiting: those
  /// answer `cancelled` without a cell started. Running requests are left
  /// to finish (the drain timeout's business).
  void close() {
    std::scoped_lock lock(mu_);
    closed_ = true;
    for (ServiceRequest* r : live_) {
      if (r->running) continue;
      r->drain_cancelled.store(true);
      r->cancel.cancel();
    }
    if (live_.empty()) drained_cv_.notify_all();
  }

  /// Blocks until closed and every admitted request has been answered.
  void wait_drained() {
    std::unique_lock lock(mu_);
    drained_cv_.wait(lock, [this] { return closed_ && live_.empty(); });
  }

  int waiting() const {
    std::scoped_lock lock(mu_);
    return count(false);
  }
  int running() const {
    std::scoped_lock lock(mu_);
    return count(true);
  }

 private:
  int count(bool running) const {
    return static_cast<int>(
        std::count_if(live_.begin(), live_.end(), [running](const auto* r) {
          return r->running == running;
        }));
  }

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::uint64_t seq_ = 0;
  bool closed_ = false;
  std::vector<ServiceRequest*> live_;  // admitted, not yet answered
};

}  // namespace afs::service
