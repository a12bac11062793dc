#include "spans.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "service/json.hpp"
#include "stats.hpp"

namespace perf {

using afs::service::json_number;
using afs::service::json_quote;

std::uint64_t SpanRecorder::reserve() {
  std::scoped_lock lock(mu_);
  return ++next_id_;
}

std::uint64_t SpanRecorder::add(std::string name, std::string group, double t0,
                                double t1, std::uint64_t parent,
                                std::uint64_t id) {
  if (!enabled_) return 0;
  const double start = now_s();
  std::scoped_lock lock(mu_);
  if (id == 0) id = ++next_id_;
  spans_.push_back({id, parent, std::move(name), std::move(group), t0, t1});
  cost_s_ += now_s() - start;
  return id;
}

double SpanRecorder::cost_s() const {
  std::scoped_lock lock(mu_);
  return cost_s_;
}

std::map<std::string, double> SpanRecorder::self_times() const {
  std::scoped_lock lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].emplace_back(s.t0, s.t1);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent: children of
      // one parent may overlap (parallel cells, pipelined requests).
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double end = s.t0;
      for (const auto& [a, b] : iv) {
        const double lo = std::max(a, end);
        const double hi = std::min(b, s.t1);
        if (hi > lo) {
          covered += hi - lo;
          end = hi;
        }
      }
    }
    out[s.name] += (s.t1 - s.t0) - covered;
  }
  return out;
}

std::string SpanRecorder::to_json(const std::string& workload) const {
  const std::map<std::string, double> self = self_times();
  std::scoped_lock lock(mu_);
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = spans_.front().t0;
    for (const Span& s : spans_) origin = std::min(origin, s.t0);
  }
  std::string out = "{\"workload\":" + json_quote(workload) + ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, v] : self) {
    out += first ? "" : ",";
    out += json_quote(name) + ":" + json_number(v);
    first = false;
  }
  out += "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i ? ",\n" : "\n";
    out += "{\"id\":" + json_number(double(s.id)) +
           ",\"parent\":" + json_number(double(s.parent)) +
           ",\"name\":" + json_quote(s.name) +
           ",\"group\":" + json_quote(s.group) +
           ",\"start_s\":" + json_number(s.t0 - origin) +
           ",\"end_s\":" + json_number(s.t1 - origin) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perf
