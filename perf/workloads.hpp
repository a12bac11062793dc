// The three benchmark workloads (perf/README.md). Every one drives the
// afs_sweep binary from outside, as a user would: batch passes are child
// processes whose stdout is read through a pseudo-terminal (so progress
// lines arrive as they are printed), the serve workload is a daemon plus
// closed-loop clients on its Unix socket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/grid.hpp"
#include "service/json.hpp"
#include "spans.hpp"

namespace perf {

/// Correct outputs this commit produces (perf/pins.json). Host speed must
/// never move any of them.
struct Pins {
  std::map<std::string, std::string> csv_sha256;   ///< "fig03.csv" -> hex
  std::map<std::string, std::string> pool_sha256;  ///< serve pool recipe -> hex
  std::map<std::string, std::int64_t> counts;      ///< "sim.misses" -> value
};

/// Loads perf/pins.json; false with `error` when missing or malformed.
bool load_pins(const std::string& path, Pins& out, std::string& error);

/// Operations attempted and failed, plus what went wrong.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t csv_mismatch = 0;  ///< outputs that differ from their pins
  std::vector<std::string> problems;

  void fail(const std::string& what, std::int64_t n = 1);
  void mismatch(const std::string& what) {
    ++csv_mismatch;
    fail("csv_mismatch: " + what);
  }
  void merge(const Ledger& other);
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// SIGTERM/SIGINT/SIGHUP kill every child process group the benchmark
/// started (a daemon would otherwise outlive it) before the default
/// action ends the benchmark.
void install_termination_handler();

struct Env {
  std::string exe;    ///< absolute path of the afs_sweep under test
  std::string work;   ///< this run's scratch directory (absolute)
  std::string cache;  ///< per-build cache directory (absolute)
  Pins pins;
  /// True while pins are being taken: outputs are recorded, not checked.
  bool pinning = false;
};

// ---------------------------------------------------------------- batch

/// One `afs_sweep run --all --jobs=4` pass.
struct BatchPass {
  double wall_s = 0.0;         ///< launch to exit
  double first_byte_s = 0.0;   ///< launch to first stdout byte
  double rss_mb = 0.0;         ///< its peak resident set
  std::vector<double> experiment_s;  ///< per experiment, registry order
  std::int64_t hits = 0, misses = 0, writes = 0;  ///< store witness line
  std::map<std::string, std::string> csv_sha256;  ///< produced CSVs
  std::string out_dir;
};

/// Runs one pass into a fresh `out_dir` over `store`, checks its exit
/// status, experiment count, store witness and CSV digests, and records
/// pass/experiment spans.
BatchPass run_batch_pass(const Env& env, const std::string& out_dir,
                         const std::string& store, bool warm, Ledger& ledger,
                         SpanRecorder& spans);

/// Launch-to-first-byte of `n` batch launches over `store`, each killed
/// as soon as it is ready.
std::vector<double> batch_setup_probes(const Env& env, const std::string& store,
                                       int n, Ledger& ledger);

/// A private copy of a store primed by one cold pass, for warm passes.
/// The primed original is cached per afs_sweep build under env.cache, so
/// only the first warm run of a build pays for the cold pass.
std::string warm_store_copy(const Env& env, const std::string& dest,
                            Ledger& ledger, SpanRecorder& spans);

/// Experiment ids in the order a `run --all` pass prints them.
std::vector<std::string> runnable_experiment_ids();

// ---------------------------------------------------------------- serve

/// One request of the seeded closed-loop sequence.
struct ServeRequest {
  bool hit = false;     ///< a pool recipe (store hit) or a new grid (miss)
  int pool_index = -1;  ///< which pool recipe, for hits
  afs::GridSpec grid;   ///< the grid, for misses
  std::string line;     ///< the protocol request line
};

/// The fixed 24-recipe pool every serve run primes and then hits.
const std::vector<std::string>& serve_pool();

/// `n` requests derived from `seed`: 75% pool hits, 25% never-seen grids
/// (one third of them with a stall perturbation).
std::vector<ServeRequest> make_request_sequence(std::uint64_t seed,
                                                std::size_t n);

/// SHA-256 over the first `n` request lines of `seed`'s sequence.
std::string request_sequence_digest(std::uint64_t seed, std::size_t n);

struct RequestSample {
  bool hit = false;
  double t_send = 0.0, t_accept = 0.0, t_done = 0.0;
  double exec_s = 0.0;  ///< the daemon's own elapsed_s for the request
};

struct ServeRun {
  std::vector<double> setup_s;           ///< launch to serving, per launch
  std::vector<RequestSample> completed;  ///< in completion order
  double traffic_start = 0.0, traffic_end = 0.0;
  double rss_mb = 0.0;         ///< the daemon's peak RSS
  afs::service::JsonValue stats;  ///< the `stats` verb after traffic
  std::string store;              ///< the daemon's store root
  /// Digest of the CSVs each pool recipe's first response named.
  std::map<std::string, std::string> pool_sha256;
};

struct ServeOptions {
  double seconds = 10.0;  ///< traffic duration
  std::size_t max_requests = 100000;
  int setup_launches = 5;  ///< extra launch-to-ready probes
};

ServeRun run_serve(const Env& env, const ServeOptions& opts,
                   std::uint64_t seed, Ledger& ledger, SpanRecorder& spans);

}  // namespace perf
