// afs_perf: the repository benchmark's load generator and per-layer probe
// (perf/README.md).
//
//   afs_perf run --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                [--work=DIR] [--spans=FILE] [--record=FILE]
//       one run of one workload; prints "workload metric value unit" lines
//       and, last, {"correct","attempted","failed","metrics"}. --trace=0
//       reports the end-to-end metrics, --trace=1 the per-layer ones.
//   afs_perf run --smoke [--work=DIR]
//       every workload at minimum size, checked against the schema and
//       the pins, plus the request-sequence seed checks (a ctest).
//   afs_perf compare SET_A SET_B
//       medians, quartiles, deltas and verdicts between two result sets.
//   afs_perf pin [--work=DIR]
//       prints the pins (perf/pins.json) this build produces.
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "results.hpp"
#include "service/json.hpp"
#include "stats.hpp"
#include "util/atomic_file.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perf;
using afs::service::json_number;
using afs::service::json_quote;

/// Requests generated per serve run; far more than any run sends.
constexpr std::size_t kSequenceLength = 20000;
/// Requests per serve "pass" (the unit wall_s is quoted per).
constexpr std::size_t kServeBlock = 200;
/// The request count the sequence digest covers.
constexpr std::size_t kDigestLength = 2400;
/// Passes a batch run makes even when the second overruns --seconds. A
/// cold pass takes 11-20 s on a shared 4-vCPU host; with two, one slow
/// pass is not a run's whole result.
constexpr int kMinPasses = 2;

const char* const kWorkloads[] = {"cold_all", "warm_all", "serve_mixed"};

struct Plan {
  double seconds = 35.0;
  int setup_probes = 10;
  std::size_t max_requests = kSequenceLength;
  int max_passes = 1000;
};

/// What one measured phase of a workload produced.
struct Phase {
  Metrics e2e;
  std::vector<BatchPass> passes;  ///< batch workloads
  std::string store;              ///< batch: the last pass's store
  ServeRun serve;                 ///< serve workloads
};

bool is_serve(const std::string& w) { return w.rfind("serve_", 0) == 0; }

void put(Metrics& m, const std::string& name, double v, const char* unit) {
  m[name] = {v, unit};
}

Phase run_batch(const Env& env, bool warm, const Plan& plan,
                const std::string& tag, Ledger& ledger, SpanRecorder& spans) {
  Phase ph;
  std::error_code ec;
  const std::string warm_store =
      warm ? warm_store_copy(env, env.work + "/" + tag + "-store", ledger, spans)
           : std::string();
  std::vector<double> setup =
      batch_setup_probes(env, warm_store, plan.setup_probes, ledger);
  const double start = now_s();
  for (int k = 0; k < plan.max_passes; ++k) {
    const std::string out = env.work + "/" + tag + "-pass" + std::to_string(k);
    const std::string store = warm ? warm_store : out + "-store";
    if (k > 0) {
      // Only the latest pass stays on disk (a cold pass writes ~50 MB).
      fs::remove_all(ph.passes.back().out_dir, ec);
      if (!warm) fs::remove_all(ph.store, ec);
    }
    ph.passes.push_back(run_batch_pass(env, out, store, warm, ledger, spans));
    ph.store = store;
    const double elapsed = now_s() - start;
    if (ph.passes.back().wall_s <= 0.0 ||
        (k + 1 >= kMinPasses &&
         elapsed + ph.passes.back().wall_s > plan.seconds))
      break;
  }
  std::vector<double> wall, rss;
  for (const BatchPass& p : ph.passes) {
    if (p.wall_s <= 0.0) continue;
    setup.push_back(p.first_byte_s);
    wall.push_back(p.wall_s);
    rss.push_back(p.rss_mb);
  }
  put(ph.e2e, "setup_s", median(setup), "s");
  put(ph.e2e, "wall_s", median(wall), "s");
  put(ph.e2e, "peak_rss_mb", median(rss), "MB");
  return ph;
}

Phase run_serve_phase(const Env& env, const Plan& plan, std::uint64_t seed,
                      Ledger& ledger, SpanRecorder& spans) {
  Phase ph;
  ServeOptions opts;
  opts.seconds = plan.seconds;
  opts.max_requests = plan.max_requests;
  opts.setup_launches = plan.setup_probes;
  ph.serve = run_serve(env, opts, seed, ledger, spans);
  const ServeRun& r = ph.serve;
  std::vector<double> blocks;
  double block_start = r.traffic_start;
  for (std::size_t i = 0; i < r.completed.size(); ++i) {
    if ((i + 1) % kServeBlock == 0) {
      blocks.push_back(r.completed[i].t_done - block_start);
      block_start = r.completed[i].t_done;
    }
  }
  const double n = double(r.completed.size());
  const double traffic = r.traffic_end - r.traffic_start;
  put(ph.e2e, "setup_s", median(r.setup_s), "s");
  // wall_s: median time per block of kServeBlock completions; a run too
  // short for one block (the smoke test) scales its whole traffic window.
  put(ph.e2e, "wall_s",
      blocks.empty() ? traffic * double(kServeBlock) / n : median(blocks), "s");
  put(ph.e2e, "peak_rss_mb", r.rss_mb, "MB");
  return ph;
}

Phase run_phase(const Env& env, const std::string& workload, const Plan& plan,
                std::uint64_t seed, const std::string& tag, Ledger& ledger,
                SpanRecorder& spans) {
  if (workload == "cold_all" || workload == "warm_all")
    return run_batch(env, workload == "warm_all", plan, tag, ledger, spans);
  return run_serve_phase(env, plan, seed, ledger, spans);
}

/// The traced run: the workload with span recording on, then every layer
/// probe. bench.trace_overhead is the time spent recording spans over the
/// run's wall time.
Metrics traced_run(const Env& env, const std::string& workload,
                   const Plan& plan, std::uint64_t seed, Ledger& ledger,
                   SpanRecorder& spans) {
  const double start = now_s();
  const Phase traced =
      run_phase(env, workload, plan, seed, "traced", ledger, spans);
  Metrics m;

  Plan one = plan;
  one.max_passes = 1;
  one.setup_probes = 0;
  const Phase cold = workload == "cold_all"
                         ? traced
                         : run_phase(env, "cold_all", one, seed, "probe",
                                     ledger, spans);
  const BatchPass& cold_pass = cold.passes.back();
  cold_pass_metrics(cold_pass, m);
  sim_sched_metrics(env, cold_pass, cold.store, 4, ledger, spans, m);

  Plan short_serve = plan;
  short_serve.seconds = 3.0;
  short_serve.setup_probes = 0;
  const Phase serve = is_serve(workload)
                          ? traced
                          : run_phase(env, "serve_mixed", short_serve, seed,
                                      "probe", ledger, spans);
  service_metrics(serve.serve, m);
  store_metrics({cold.store, serve.serve.store}, env.work + "/scratch-store",
                ledger, spans, m);
  // Store traffic of the workload itself: the batch witness line, or the
  // daemon's counters.
  if (is_serve(workload)) {
    for (const char* k : {"hits", "misses", "writes"}) {
      const afs::service::JsonValue* v =
          traced.serve.stats.find(std::string("store_") + k);
      put(m, std::string("store.") + k, v ? v->number : -1.0, "count");
    }
  } else {
    const BatchPass& p = traced.passes.back();
    put(m, "store.hits", double(p.hits), "count");
    put(m, "store.misses", double(p.misses), "count");
    put(m, "store.writes", double(p.writes), "count");
  }
  worker_metrics(env, seed, ledger, spans, m);
  put(m, "bench.trace_overhead", spans.cost_s() / (now_s() - start), "ratio");
  return m;
}

/// Prints and checks `m` against the catalogue: every listed metric must
/// be present and finite, and end-to-end ones positive.
void report(const std::string& workload, const std::vector<MetricSpec>& list,
            bool positive, const Metrics& m, Metrics& out, Ledger& ledger) {
  for (const MetricSpec& s : list) {
    const auto it = m.find(s.name);
    if (it == m.end() || !std::isfinite(it->second.value) ||
        (positive && it->second.value <= 0.0) || it->second.unit != s.unit) {
      ledger.fail("metric " + s.name + " missing, non-finite or mis-united");
      continue;
    }
    out[s.name] = it->second;
    std::cout << workload << " " << s.name << " " << json_number(it->second.value)
              << " " << s.unit << "\n";
  }
}

struct Paths {
  std::string build;  ///< directory holding afs_perf and afs_sweep
  std::string exe;
  std::string pins = std::string(AFS_PERF_SOURCE_DIR) + "/pins.json";
  std::string bench = std::string(AFS_PERF_SOURCE_DIR) + "/../BENCHMARK.json";
};

Paths find_paths() {
  Paths p;
  p.build = fs::canonical("/proc/self/exe").parent_path().string();
  p.exe = p.build + "/afs_sweep";
  return p;
}

Env make_env(const Paths& paths, const std::string& work, bool pinning) {
  Env env;
  env.exe = paths.exe;
  env.work = fs::absolute(work).string();
  env.cache = paths.build + "/cache";
  env.pinning = pinning;
  // The work directory is wiped on every run, so only ever one this
  // program created (it carries a marker) or an empty one.
  const std::string marker = env.work + "/.afs_perf_work";
  std::error_code ec;
  if (fs::exists(env.work) && !fs::is_empty(env.work) && !fs::exists(marker))
    throw std::runtime_error("refusing to wipe " + env.work +
                             ": not an afs_perf work directory");
  fs::remove_all(env.work, ec);
  fs::create_directories(env.work);
  afs::write_file_atomic(marker, "");
  fs::create_directories(env.cache);
  settle_disk(env.work);
  if (!pinning) {
    std::string error;
    if (!load_pins(paths.pins, env.pins, error))
      throw std::runtime_error(error);
  }
  return env;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  bool smoke = false;
  std::string work, spans, record;
};

bool parse_args(const std::vector<std::string>& in, Args& a, std::string& error) {
  for (const std::string& s : in) {
    const std::size_t eq = s.find('=');
    const std::string key = s.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : s.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') error = "bad --seed";
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0 && a.seconds <= 3600.0))
        error = "bad --seconds";
    } else if (key == "--trace") {
      if (v != "0" && v != "1") error = "bad --trace";
      a.trace = v == "1";
    } else if (key == "--work") {
      a.work = v;
    } else if (key == "--spans") {
      a.spans = v;
    } else if (key == "--record") {
      a.record = v;
    } else if (s == "--smoke") {
      a.smoke = true;
    } else {
      error = "unknown argument '" + s + "'";
    }
    if (!error.empty()) return false;
  }
  return true;
}

int cmd_run(const Args& a, const Paths& paths, const BenchSpec& spec) {
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) {
    std::cerr << "afs_perf run: --workload must be one of cold_all, warm_all, "
                 "serve_mixed\n";
    return 2;
  }
  const Env env = make_env(
      paths, a.work.empty() ? paths.build + "/work/" + a.workload : a.work,
      false);
  Plan plan;
  plan.seconds = a.seconds;
  Ledger ledger;
  SpanRecorder spans(a.trace);
  if (is_serve(a.workload))
    std::cout << "# request sequence sha256 "
              << request_sequence_digest(a.seed, kDigestLength) << " (seed "
              << a.seed << ", first " << kDigestLength << " requests)\n";
  RunRecord rec;
  rec.workload = a.workload;
  rec.seed = a.seed;
  rec.trace = a.trace;
  if (a.trace) {
    const Metrics m = traced_run(env, a.workload, plan, a.seed, ledger, spans);
    report(a.workload, spec.per_layer, false, m, rec.metrics, ledger);
    const std::string path =
        a.spans.empty() ? env.work + "/spans.json" : a.spans;
    afs::write_file_atomic(path, spans.to_json(a.workload));
    std::cerr << "afs_perf: spans written to " << path << "\n";
  } else {
    const Phase ph =
        run_phase(env, a.workload, plan, a.seed, "run", ledger, spans);
    report(a.workload, spec.end_to_end, true, ph.e2e, rec.metrics, ledger);
  }
  for (const std::string& p : ledger.problems)
    std::cerr << "afs_perf: FAILED " << p << "\n";
  std::cout << "# csv_mismatch " << ledger.csv_mismatch << ", failed "
            << ledger.failed << " of " << ledger.attempted << " operations\n";
  rec.correct = ledger.correct();
  rec.attempted = std::max<std::int64_t>(ledger.attempted, 1);
  rec.failed = ledger.failed;
  if (!a.record.empty()) record_run(a.record, rec);
  std::cout << result_json(rec) << std::endl;
  return rec.correct ? 0 : 1;
}

/// Every workload at its smallest size, schema-checked, plus the seed
/// contract of the request generator.
int cmd_smoke(const Args& a, const Paths& paths, const BenchSpec& spec) {
  Ledger ledger;
  const std::string d1 = request_sequence_digest(1, kDigestLength);
  if (d1 != request_sequence_digest(1, kDigestLength))
    ledger.fail("seed 1 generated two different request sequences");
  if (d1 == request_sequence_digest(2, kDigestLength))
    ledger.fail("seeds 1 and 2 generated the same request sequence");
  Plan plan;
  plan.seconds = 0.0;
  plan.setup_probes = 1;
  plan.max_requests = 60;
  plan.max_passes = 1;
  for (const char* w : kWorkloads) {
    const Env env = make_env(
        paths, (a.work.empty() ? paths.build + "/work/smoke" : a.work) + "/" + w,
        false);
    plan.seconds = is_serve(w) ? 30.0 : 0.0;
    SpanRecorder spans(false);
    Ledger one;
    const Phase ph = run_phase(env, w, plan, 1, "smoke", one, spans);
    Metrics out;
    report(w, spec.end_to_end, true, ph.e2e, out, one);
    if (is_serve(w) && ph.serve.completed.size() != plan.max_requests)
      one.fail(std::string(w) + " completed " +
               std::to_string(ph.serve.completed.size()) + " of " +
               std::to_string(plan.max_requests) + " requests");
    RunRecord rec;
    rec.correct = one.correct();
    rec.attempted = one.attempted;
    rec.failed = one.failed;
    rec.metrics = out;
    afs::service::JsonValue parsed;
    std::string error;
    if (!afs::service::parse_json(result_json(rec), parsed, error) ||
        parsed.object.size() != 4)
      one.fail("result line does not parse: " + error);
    for (std::string& p : one.problems) p = w + (": " + p);
    ledger.merge(one);
  }
  for (const std::string& p : ledger.problems)
    std::cerr << "afs_perf smoke: FAILED " << p << "\n";
  std::cout << (ledger.correct() ? "smoke: ok\n" : "smoke: FAILED\n");
  return ledger.correct() ? 0 : 1;
}

/// Takes the pins from this build: a cold and a warm pass, the serve pool
/// and the figure-cell counts.
int cmd_pin(const Args& a, const Paths& paths) {
  const Env env = make_env(
      paths, a.work.empty() ? paths.build + "/work/pin" : a.work, true);
  Ledger ledger;
  SpanRecorder spans(false);
  Plan one;
  one.max_passes = 1;
  one.setup_probes = 0;
  one.seconds = 0.0;
  const Phase cold = run_phase(env, "cold_all", one, 1, "cold", ledger, spans);
  const Phase warm = run_phase(env, "warm_all", one, 1, "warm", ledger, spans);
  const BatchPass& c = cold.passes.back();
  const BatchPass& w = warm.passes.back();
  if (c.csv_sha256 != w.csv_sha256) ledger.fail("warm CSVs differ from cold");
  Plan serve = one;
  serve.seconds = 1.0;
  const Phase s = run_phase(env, "serve_mixed", serve, 1, "serve", ledger, spans);
  Metrics m;
  sim_sched_metrics(env, c, cold.store, 4, ledger, spans, m);
  for (const std::string& p : ledger.problems)
    std::cerr << "afs_perf pin: FAILED " << p << "\n";
  if (!ledger.correct()) return 1;

  std::string out = "{\n\"held_out_seed\": 7919,\n\"counts\": {";
  const std::vector<std::pair<std::string, double>> counts = {
      {"cold.hits", double(c.hits)},     {"cold.misses", double(c.misses)},
      {"cold.writes", double(c.writes)}, {"warm.hits", double(w.hits)},
      {"warm.misses", double(w.misses)}, {"warm.writes", double(w.writes)},
      {"sim.cells", m["sim.cells"].value},
      {"sim.iterations", m["sim.iterations"].value},
      {"sim.accesses", m["sim.accesses"].value},
      {"sim.misses", m["sim.misses"].value},
      {"sim.fig15_misses", m["sim.fig15_misses"].value}};
  for (std::size_t i = 0; i < counts.size(); ++i)
    out += std::string(i ? "," : "") + "\n  " + json_quote(counts[i].first) +
           ": " + json_number(counts[i].second);
  out += "\n},\n\"csv_sha256\": {";
  bool first = true;
  for (const auto& [name, digest] : c.csv_sha256) {
    out += std::string(first ? "" : ",") + "\n  " + json_quote(name) + ": " +
           json_quote(digest);
    first = false;
  }
  out += "\n},\n\"pool_sha256\": {";
  first = true;
  for (const auto& [recipe, digest] : s.serve.pool_sha256) {
    out += std::string(first ? "" : ",") + "\n  " + json_quote(recipe) + ": " +
           json_quote(digest);
    first = false;
  }
  std::cout << out << "\n}\n}\n";
  return 0;
}

int usage() {
  std::cerr << "usage: afs_perf run --workload=NAME [--seed=N] [--seconds=S]\n"
               "                    [--trace=0|1] [--work=DIR] [--spans=FILE]\n"
               "                    [--record=FILE]\n"
               "       afs_perf run --smoke [--work=DIR]\n"
               "       afs_perf compare SET_A SET_B\n"
               "       afs_perf pin [--work=DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Client sockets use MSG_NOSIGNAL, pipes to workers do not.
  std::signal(SIGPIPE, SIG_IGN);
  install_termination_handler();
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const Paths paths = find_paths();
    BenchSpec spec;
    std::string error;
    if (!load_bench_spec(paths.bench, spec, error)) {
      std::cerr << "afs_perf: " << error << "\n";
      return 2;
    }
    if (args[0] == "compare" && args.size() == 3)
      return compare_sets(args[1], args[2], spec);
    Args a;
    if (!parse_args({args.begin() + 1, args.end()}, a, error)) {
      std::cerr << "afs_perf: " << error << "\n";
      return usage();
    }
    if (args[0] == "pin") return cmd_pin(a, paths);
    if (args[0] == "run") return a.smoke ? cmd_smoke(a, paths, spec)
                                         : cmd_run(a, paths, spec);
    return usage();
  } catch (const std::exception& ex) {
    std::cerr << "afs_perf: " << ex.what() << "\n";
    return 1;
  }
}
