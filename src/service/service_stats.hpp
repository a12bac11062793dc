// Daemon-lifetime counters, surfaced by the `stats` verb and logged on
// drain for post-mortems.
//
// Everything is a relaxed atomic: counters are written from connection
// reader threads and the cell queue's workers concurrently, and a stats
// read is a monotonic snapshot, not a transaction — exactly what an
// operations counter needs and nothing more. Latency sums are accumulated in
// microseconds (an atomic double would need CAS loops; integral
// microseconds keep increments wait-free and still resolve well below
// one scheduling quantum).
#pragma once

#include <atomic>
#include <cstdint>

namespace afs::service {

struct ServiceStats {
  // Admission path.
  std::atomic<std::int64_t> admitted{0};  ///< accepted for execution
  std::atomic<std::int64_t> rejected_overloaded{0};  ///< bounced, queue full
  std::atomic<std::int64_t> rejected_draining{0};  ///< bounced, shutting down
  std::atomic<std::int64_t> protocol_errors{0};  ///< bad frames/requests

  // Completion taxonomy (one per admitted request, eventually).
  std::atomic<std::int64_t> completed{0};         ///< ran to the end, exit 0
  std::atomic<std::int64_t> failed{0};            ///< ran, nonzero exit
  std::atomic<std::int64_t> cancelled{0};  ///< drain or client disconnect
  std::atomic<std::int64_t> deadline_expired{0};  ///< per-request deadline

  // Connections.
  std::atomic<std::int64_t> connections_total{0};
  std::atomic<std::int64_t> connections_open{0};
  std::atomic<std::int64_t> connections_torn_down{0};  ///< forced teardowns

  // Latency accounting (microseconds; divide by served requests for the
  // mean). queue_wait covers admission -> the request's first cell start
  // (0 when it is answered at admission); run covers the rest, up to the
  // response.
  std::atomic<std::int64_t> queue_wait_us{0};
  std::atomic<std::int64_t> run_us{0};

  std::int64_t finished() const {
    return completed.load() + failed.load() + cancelled.load() +
           deadline_expired.load();
  }

  /// Mean admission->first-cell wait per finished request, in
  /// milliseconds.
  /// Guarded against the zero-request case: a naive sum/count would be
  /// 0/0 = NaN, which the strict JSON printer has no representation for
  /// (json_number renders non-finite doubles as null). Every consumer —
  /// the stats verb, the drained: log — must go through these helpers
  /// rather than dividing the raw counters itself.
  double queue_wait_ms_mean() const {
    const std::int64_t n = finished();
    return n > 0 ? static_cast<double>(queue_wait_us.load()) / 1000.0 /
                       static_cast<double>(n)
                 : 0.0;
  }

  /// Mean first-cell->response time per finished request, in
  /// milliseconds.
  /// Same zero-request guard as queue_wait_ms_mean().
  double run_ms_mean() const {
    const std::int64_t n = finished();
    return n > 0 ? static_cast<double>(run_us.load()) / 1000.0 /
                       static_cast<double>(n)
                 : 0.0;
  }
};

}  // namespace afs::service
