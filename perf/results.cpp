#include "results.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <thread>

#include "service/json.hpp"
#include "stats.hpp"
#include "util/atomic_file.hpp"

namespace perf {

using afs::service::JsonValue;
using afs::service::json_number;
using afs::service::json_quote;

namespace {

/// Absolute noise floor of setup_s. Launch-to-ready is 2-8 ms, and the
/// quartiles of ten runs' medians lie up to 0.7 ms apart on a shared
/// 4-vCPU host, so a relative bound alone over-reads a 2 ms launch.
constexpr double kSetupFloorS = 0.001;

bool load_json(const std::string& path, JsonValue& out, std::string& error) {
  std::string text;
  if (!read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  return afs::service::parse_json(text, out, error);
}

std::vector<RunRecord> parse_runs(const JsonValue& doc) {
  std::vector<RunRecord> runs;
  const JsonValue* arr = doc.find("runs");
  if (!arr) return runs;
  for (const JsonValue& v : arr->array) {
    RunRecord r;
    const auto num = [&](const char* k) {
      const JsonValue* f = v.find(k);
      return f ? f->number : 0.0;
    };
    const auto flag = [&](const char* k) {
      const JsonValue* f = v.find(k);
      return f && f->boolean;
    };
    if (const JsonValue* w = v.find("workload")) r.workload = w->string;
    r.seed = static_cast<std::uint64_t>(num("seed"));
    r.trace = flag("trace");
    r.correct = flag("correct");
    r.attempted = static_cast<std::int64_t>(num("attempted"));
    r.failed = static_cast<std::int64_t>(num("failed"));
    if (const JsonValue* ms = v.find("metrics"))
      for (const auto& [name, m] : ms->object) {
        const JsonValue* value = m.find("value");
        const JsonValue* unit = m.find("unit");
        r.metrics[name] = {value ? value->number : NAN,
                           unit ? unit->string : ""};
      }
    runs.push_back(std::move(r));
  }
  return runs;
}

std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  for (const auto& [name, m] : ms) {
    if (out.size() > 1) out += ",";
    out += json_quote(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_quote(m.unit) + "}";
  }
  return out + "}";
}

/// values[workload][trace][metric] over every run of a set.
using Values =
    std::map<std::string, std::map<bool, std::map<std::string, std::vector<double>>>>;

Values collect(const std::vector<RunRecord>& runs) {
  Values v;
  for (const RunRecord& r : runs)
    for (const auto& [name, m] : r.metrics)
      v[r.workload][r.trace][name].push_back(m.value);
  return v;
}

const std::vector<double>* values_of(const Values& v, const std::string& w,
                                     bool trace, const std::string& metric) {
  const auto a = v.find(w);
  if (a == v.end()) return nullptr;
  const auto b = a->second.find(trace);
  if (b == a->second.end()) return nullptr;
  const auto c = b->second.find(metric);
  return c == b->second.end() ? nullptr : &c->second;
}

std::string resolve_set(const std::string& arg) {
  if (arg.find('/') != std::string::npos || arg.ends_with(".json")) return arg;
  return "build-perf/results/" + arg + "/results.json";
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

bool load_bench_spec(const std::string& path, BenchSpec& out,
                     std::string& error) {
  JsonValue doc;
  if (!load_json(path, doc, error)) return false;
  if (const JsonValue* ws = doc.find("workloads"))
    for (const JsonValue& w : ws->array)
      if (const JsonValue* n = w.find("name")) out.workloads.push_back(n->string);
  const auto metrics = [&](const char* key, std::vector<MetricSpec>& list) {
    if (const JsonValue* arr = doc.find(key))
      for (const JsonValue& m : arr->array) {
        MetricSpec s;
        if (const JsonValue* f = m.find("name")) s.name = f->string;
        if (const JsonValue* f = m.find("unit")) s.unit = f->string;
        if (const JsonValue* f = m.find("better")) s.better = f->string;
        if (const JsonValue* f = m.find("bound")) s.bound = f->number;
        list.push_back(std::move(s));
      }
  };
  metrics("end_to_end", out.end_to_end);
  metrics("per_layer", out.per_layer);
  if (out.workloads.empty() || out.end_to_end.empty() || out.per_layer.empty()) {
    error = path + " lacks workloads, end_to_end or per_layer";
    return false;
  }
  return true;
}

std::string result_json(const RunRecord& r) {
  return "{\"correct\":" + std::string(r.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"metrics\":" + metrics_json(r.metrics) + "}";
}

void record_run(const std::string& path, const RunRecord& r) {
  JsonValue doc;
  std::string error;
  std::vector<RunRecord> runs;
  if (load_json(path, doc, error)) runs = parse_runs(doc);
  runs.push_back(r);

  std::string out = "{\"host\":{\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"build_type\":" + json_quote(AFS_PERF_BUILD_TYPE) +
                    "},\n\"summary\":{";
  const Values values = collect(runs);
  bool first_w = true;
  for (const auto& [workload, by_trace] : values) {
    out += std::string(first_w ? "" : ",") + "\n" + json_quote(workload) + ":{";
    first_w = false;
    bool first_m = true;
    for (const auto& [trace, by_metric] : by_trace)
      for (const auto& [name, vs] : by_metric) {
        const auto q = quartiles(vs);
        out += std::string(first_m ? "" : ",") + json_quote(name) +
               ":{\"median\":" + json_number(q[1]) +
               ",\"q1\":" + json_number(q[0]) + ",\"q3\":" + json_number(q[2]) +
               ",\"n\":" + std::to_string(vs.size()) + "}";
        first_m = false;
      }
    out += "}";
  }
  out += "},\n\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& x = runs[i];
    out += std::string(i ? ",\n" : "\n") + "{\"workload\":" +
           json_quote(x.workload) + ",\"seed\":" + std::to_string(x.seed) +
           ",\"trace\":" + (x.trace ? "true" : "false") +
           ",\"correct\":" + (x.correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(x.attempted) +
           ",\"failed\":" + std::to_string(x.failed) +
           ",\"metrics\":" + metrics_json(x.metrics) + "}";
  }
  out += "]}\n";
  afs::write_file_atomic(path, out);
}

int compare_sets(const std::string& path_a, const std::string& path_b,
                 const BenchSpec& spec) {
  JsonValue da, db;
  std::string error;
  if (!load_json(resolve_set(path_a), da, error) ||
      !load_json(resolve_set(path_b), db, error)) {
    std::cerr << "afs_perf compare: " << error << "\n";
    return 2;
  }
  const Values a = collect(parse_runs(da));
  const Values b = collect(parse_runs(db));
  int bad = 0;
  std::cout << "workload metric A_median [A_q1 A_q3] B_median [B_q1 B_q3] "
               "delta verdict\n";
  for (const std::string& w : spec.workloads)
    for (const MetricSpec& m : spec.end_to_end) {
      const std::vector<double>* va = values_of(a, w, false, m.name);
      const std::vector<double>* vb = values_of(b, w, false, m.name);
      if (!va || !vb) {
        std::cout << w << " " << m.name << " missing in one set: unresolved\n";
        ++bad;
        continue;
      }
      const auto qa = quartiles(*va);
      const auto qb = quartiles(*vb);
      // rel > 0 means B is worse than A.
      const double sign = m.better == "higher" ? -1.0 : 1.0;
      const double rel = sign * (qb[1] - qa[1]) / qa[1];
      const double spread =
          std::max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]);
      // A delta or spread below the absolute floor, as a share of A's
      // median, is no change whatever the relative bound says.
      const double bound =
          m.name == "setup_s" ? std::max(m.bound, kSetupFloorS / qa[1]) : m.bound;
      const auto [amin, amax] = std::minmax_element(va->begin(), va->end());
      const auto [bmin, bmax] = std::minmax_element(vb->begin(), vb->end());
      // Every run of B beats (loses to) every run of A.
      const bool all_better = sign > 0 ? *bmax < *amin : *bmin > *amax;
      const bool all_worse = sign > 0 ? *bmin > *amax : *bmax < *amin;
      std::string verdict;
      if (spread > bound && !all_better && !all_worse)
        verdict = "unresolved";
      else if (rel > bound || (spread > bound && all_worse))
        verdict = "regression";
      else if (-rel > bound || (spread > bound && all_better))
        verdict = "better";
      else
        verdict = "no change";
      if (verdict == "regression" || verdict == "unresolved") ++bad;
      std::cout << w << " " << m.name << " " << fmt(qa[1]) << " [" << fmt(qa[0])
                << " " << fmt(qa[2]) << "] " << fmt(qb[1]) << " [" << fmt(qb[0])
                << " " << fmt(qb[2]) << "] " << fmt(100.0 * rel) << "% "
                << verdict << "\n";
    }
  std::cout << "\nper-layer (traced runs): workload metric A_median B_median "
               "delta\n";
  for (const std::string& w : spec.workloads)
    for (const MetricSpec& m : spec.per_layer) {
      const std::vector<double>* va = values_of(a, w, true, m.name);
      const std::vector<double>* vb = values_of(b, w, true, m.name);
      if (!va || !vb) continue;
      const double ma = median(*va), mb = median(*vb);
      std::cout << w << " " << m.name << " " << fmt(ma) << " " << fmt(mb) << " "
                << (ma != 0.0 ? fmt(100.0 * (mb - ma) / ma) + "%" : "-") << "\n";
    }
  std::cout << (bad ? "compare: " + std::to_string(bad) +
                          " regression(s) or unresolved metric(s)\n"
                    : std::string("compare: no regression, nothing unresolved\n"));
  return bad ? 1 : 0;
}

}  // namespace perf
