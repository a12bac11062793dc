// The metric catalogue (BENCHMARK.json), result sets on disk and
// `afs_perf compare`.
#pragma once

#include <string>
#include <vector>

#include "layers.hpp"

namespace perf {

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  double bound = 0.0;  ///< end-to-end only: allowed worsening, share of median
};

struct BenchSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

bool load_bench_spec(const std::string& path, BenchSpec& out,
                     std::string& error);

/// One finished run, as `afs_perf run` reports it.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool correct = false;
  std::int64_t attempted = 0, failed = 0;
  Metrics metrics;
};

/// The run's final stdout line: {"correct","attempted","failed","metrics"}.
std::string result_json(const RunRecord& r);

/// Appends `r` to the result set at `path` (created when absent) and
/// refreshes the set's per-workload medians and quartiles.
void record_run(const std::string& path, const RunRecord& r);

/// `afs_perf compare`: prints, per workload and end-to-end metric, both
/// medians, their quartiles, the delta and a verdict, then per-layer
/// deltas. Returns 1 when any verdict is a regression or unresolved.
int compare_sets(const std::string& path_a, const std::string& path_b,
                 const BenchSpec& spec);

}  // namespace perf
