// In-memory span recorder for the traced run (perf/README.md, "Reading
// spans.json").
//
// A span is one timed interval the benchmark observed around a call into
// a layer: a pass, an experiment inside a pass, a request and its accept /
// queue / exec phases, a simulated cell, a store operation, a worker
// round trip. Spans that belong to one request or experiment share a
// `group`; `parent` links a span to the span that caused it. Nothing is
// written until the run ends. A disabled recorder (untraced runs) drops
// every span, so the untraced code path records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perf {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;          ///< layer boundary, e.g. "serve.request"
  std::string group;         ///< request / experiment / cell identity
  double t0 = 0.0;           ///< seconds, steady clock
  double t1 = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id, so a parent can be named before it is recorded.
  std::uint64_t reserve();

  /// Records a finished span under `id` (0 = allocate one). Returns the
  /// id, or 0 when the recorder is disabled. Thread-safe.
  std::uint64_t add(std::string name, std::string group, double t0, double t1,
                    std::uint64_t parent = 0, std::uint64_t id = 0);

  /// Seconds spent inside add(): what recording the spans cost.
  double cost_s() const;

  /// Per span name: total duration minus the part covered by its
  /// children, summed over all spans of that name (seconds).
  std::map<std::string, double> self_times() const;

  /// {"workload":..., "self_s":{...}, "spans":[...]} with times relative
  /// to the earliest span.
  std::string to_json(const std::string& workload) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  double cost_s_ = 0.0;
  std::vector<Span> spans_;
};

}  // namespace perf
