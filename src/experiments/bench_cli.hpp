// The command-line interface of `afs_sweep run` (tools/afs_sweep.cpp),
// the one entry point for the paper's figures and tables. The sweep
// daemon reuses the same struct for each request's options.
//
//   --procs=1,2,4     override the processor sweep (figures only)
//   --out-dir=DIR     write CSVs (and traces) under DIR [bench_results]
//   --trace           also write a .cctrace per (scheduler, P) cell
//   --time-phases     write the engine's host phase breakdown
//   --jobs=N          run the cells of the run on N threads [1]
//   --cell-timeout=S  wall-clock deadline (seconds) per cell attempt
//   --cell-retries=N  re-attempts per cell after the first failed try
//   --sweep-timeout=S wall-clock deadline for the whole run
//   --store=DIR       serve/fill the content-addressed result store at DIR
//   --no-store        disable the store (afs_sweep enables it by default)
//   --help            usage
//
// See docs/SWEEP_SERVICE.md.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/sweep_runner.hpp"

namespace afs::bench {

/// Options of one experiment run. Defaults reproduce the paper
/// configuration exactly; anything else is an explicit deviation.
struct BenchCli {
  std::vector<int> procs;                 ///< empty = the figure's own sweep
  std::string out_dir = "bench_results";  ///< CSV / trace destination
  bool trace = false;  ///< write one .cctrace per (scheduler, P) cell
                       ///< under <out_dir> (see trace_cell_path)
  bool time_phases = false;  ///< collect engine phase timers; write
                             ///< <out_dir>/<id>.phases.json
  int jobs = 1;                ///< run-queue worker threads
  double cell_timeout = 0.0;   ///< seconds per cell attempt; 0 = unlimited
  double sweep_timeout = 0.0;  ///< seconds for the whole run; 0 = unlimited
  int cell_retries = -1;       ///< re-attempts per cell; -1 = runner default
  std::string store_dir;       ///< content-addressed store root; empty = off
  bool no_store = false;       ///< force the store off (driver default is on)
};

inline void print_usage(const char* argv0, std::ostream& out) {
  out << "usage: " << argv0
      << " [--procs=1,2,4] [--out-dir=DIR] [--trace] [--time-phases]\n"
      << "       [--jobs=N] [--cell-timeout=S] [--sweep-timeout=S]\n"
      << "       [--cell-retries=N] [--store=DIR] [--no-store]\n"
      << "  --procs=LIST   comma-separated processor counts overriding the\n"
      << "                 figure's standard sweep\n"
      << "  --out-dir=DIR  directory for CSV output (default bench_results)\n"
      << "  --trace        also stream an event trace per (scheduler, P)\n"
      << "                 cell to <out-dir>/<id>.p<P>.<scheduler>.cctrace\n"
      << "                 (render with tools/trace_report, dump as JSON\n"
      << "                 lines with trace_report --jsonl); composes with\n"
      << "                 --jobs\n"
      << "  --time-phases  collect the engine's host wall-clock phase\n"
      << "                 breakdown and write <out-dir>/<id>.phases.json\n"
      << "                 (simulated results stay bit-identical; see\n"
      << "                 tools/phase_report.py)\n"
      << "  --jobs=N       run the cells of every selected experiment on one\n"
      << "                 queue of N threads, costliest first (default 1 =\n"
      << "                 serial; results identical)\n"
      << "  --cell-timeout=S  per-cell wall-clock deadline in seconds\n"
      << "  --sweep-timeout=S wall-clock deadline in seconds for the whole\n"
      << "                 run\n"
      << "                 (timed-out cells are reported, not fatal —\n"
      << "                  see docs/SWEEP_RUNNER.md)\n"
      << "  --cell-retries=N  re-attempts after a cell's first failed try\n"
      << "                 (default " << SweepOptions{}.max_retries
      << "; 0 disables retries)\n"
      << "  --store=DIR    serve cells from (and fill) the content-\n"
      << "                 addressed result store rooted at DIR; a cell\n"
      << "                 simulated once is never simulated again\n"
      << "                 (docs/SWEEP_SERVICE.md)\n"
      << "  --no-store     disable the store (afs_sweep run defaults it\n"
      << "                 to <out-dir>/.store)\n";
}

/// Parses `args` (the flags after `afs_sweep run`) into `cli`. Unknown
/// flags are errors: a typo should fail loudly, not silently run the
/// default multi-minute sweep. Returns false with `error` describing the
/// offending flag/value on malformed input; sets `want_help` (and returns
/// true) when --help / -h is present.
inline bool parse_cli_args(const std::vector<std::string>& args, BenchCli& cli,
                           std::string& error, bool& want_help) {
  error.clear();
  want_help = false;
  const auto parse_seconds = [&error](const std::string& arg,
                                      std::size_t prefix_len, const char* flag,
                                      double& out_v) {
    const std::string tok = arg.substr(prefix_len);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v > 86400.0) {
      error = std::string("bad ") + flag + " value '" + tok +
              "' (need seconds in (0, 86400])";
      return false;
    }
    out_v = v;
    return true;
  };
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      want_help = true;
      return true;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--time-phases") {
      cli.time_phases = true;
    } else if (arg.rfind("--cell-retries=", 0) == 0) {
      const std::string tok = arg.substr(15);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (tok.empty() || end == tok.c_str() || *end != '\0' ||
          errno == ERANGE || v < 0 || v > 100) {
        error = "bad --cell-retries value '" + tok +
                "' (need an integer in 0..100)";
        return false;
      }
      cli.cell_retries = static_cast<int>(v);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      cli.out_dir = arg.substr(10);
      if (cli.out_dir.empty()) {
        error = "--out-dir needs a non-empty directory";
        return false;
      }
    } else if (arg.rfind("--store=", 0) == 0) {
      cli.store_dir = arg.substr(8);
      if (cli.store_dir.empty()) {
        error = "--store needs a non-empty directory";
        return false;
      }
      cli.no_store = false;
    } else if (arg == "--no-store") {
      cli.no_store = true;
      cli.store_dir.clear();
    } else if (arg.rfind("--procs=", 0) == 0) {
      cli.procs.clear();
      const std::string list = arg.substr(8);
      if (list.empty()) {
        error = "--procs needs at least one value";
        return false;
      }
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma - pos);
        char* end = nullptr;
        errno = 0;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || errno == ERANGE || v < 1 ||
            v > 64) {
          error = "bad --procs entry '" + tok + "' (need integers in 1..64)";
          return false;
        }
        cli.procs.push_back(static_cast<int>(v));
        if (comma == std::string::npos) break;
        pos = comma + 1;  // a trailing comma leaves an empty (bad) token
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string tok = arg.substr(7);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (tok.empty() || end == tok.c_str() || *end != '\0' ||
          errno == ERANGE || v < 1 || v > 256) {
        error = "bad --jobs value '" + tok + "' (need an integer in 1..256)";
        return false;
      }
      cli.jobs = static_cast<int>(v);
    } else if (arg.rfind("--cell-timeout=", 0) == 0) {
      if (!parse_seconds(arg, 15, "--cell-timeout", cli.cell_timeout))
        return false;
    } else if (arg.rfind("--sweep-timeout=", 0) == 0) {
      if (!parse_seconds(arg, 16, "--sweep-timeout", cli.sweep_timeout))
        return false;
    } else {
      error = "unknown argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

/// CSV path for a non-figure table under the chosen output directory.
inline std::string csv_path(const BenchCli& cli, const std::string& id) {
  return cli.out_dir + "/" + id + ".csv";
}

}  // namespace afs::bench
