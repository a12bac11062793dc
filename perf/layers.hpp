// Per-layer probes for the traced run (perf/README.md, "Per-layer
// metrics"). Each one times calls into a layer's public functions from the
// benchmark's own code — nothing under src/ is instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perf {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// experiments.cold_s.<id>, runtime.checkpoint_files and trace.* from one
/// cold batch pass and its output directory.
void cold_pass_metrics(const BatchPass& pass, Metrics& m);

/// sim.* and sched.*: every figure cell of a cold pass, simulated twice on
/// `threads` threads — once plain (timed) and once under a timing
/// Scheduler decorator — with both results required to be bit-identical
/// to each other and to the entry the cold pass left in `store`. Also
/// store.key_us_p50 (make_cell_key) and runtime.parallel_efficiency
/// against the pass's figure-experiment wall times.
void sim_sched_metrics(const Env& env, const BatchPass& cold,
                       const std::string& store, int threads, Ledger& ledger,
                       SpanRecorder& spans, Metrics& m);

/// store.*: load (hit and miss), save and parse_sim_result timed over
/// every entry of `stores`; `scratch` receives the saves.
void store_metrics(const std::vector<std::string>& stores,
                   const std::string& scratch, Ledger& ledger,
                   SpanRecorder& spans, Metrics& m);

/// worker.*: the benchmark's own WorkerPool of afs_sweep workers executes
/// the first miss recipes of `seed`'s request sequence; each cell is
/// compared with an in-process run_figure_cell.
void worker_metrics(const Env& env, std::uint64_t seed, Ledger& ledger,
                    SpanRecorder& spans, Metrics& m);

/// service.*: client-side request phases and the daemon's `stats` verb.
void service_metrics(const ServeRun& run, Metrics& m);

}  // namespace perf
