// afs_sweep: the one entry point for the paper's figures and tables — the
// batch driver over the experiment registry and the content-addressed
// result store (docs/SWEEP_SERVICE.md).
//
//   afs_sweep list
//       every registered experiment id with title and kind
//   afs_sweep run fig04 tab2 [shared flags]
//   afs_sweep run --all [shared flags]
//       run experiments as one cell queue on one worker pool (--jobs=N),
//       costliest cell first, over one result store, printing each
//       experiment's block in registry order. The store defaults to
//       <out-dir>/.store; --store=DIR moves it, --no-store disables it.
//       Exit code = first nonzero experiment exit.
//   afs_sweep run --kernel=K --machine=M --schedulers=S1,S2 [--procs=...]
//       [--perturb=...] [shared flags]
//       an arbitrary user grid through the same harness (see
//       src/experiments/grid.hpp for the K/M/perturb grammars); writes
//       <out-dir>/grid.csv.
//   afs_sweep cache stats [--store=DIR]
//   afs_sweep cache gc [--store=DIR] [--max-age-days=D] [--max-bytes=B]
//   afs_sweep cache verify [--store=DIR]
//       store maintenance: entry count/bytes/quarantined; eviction by age
//       then LRU size cap; and the integrity scrub — re-checksum every
//       entry, quarantine corruption, repair metadata (exit 1 when
//       anything corrupt was found).
//   afs_sweep serve --socket=PATH [--jobs=N --max-queue=M ...]
//       the long-running sweep daemon: line-delimited JSON requests over
//       a Unix-domain socket, against the same registry and store
//       (docs/SWEEP_SERVICE.md, "Serving"). Store hits are answered at
//       admission; only missing cells wait, on one cell queue that every
//       request shares (--jobs workers). With
//       --isolation=process cells execute in supervised sandbox worker
//       subprocesses: crashes are contained, crash-looping cells are
//       quarantined (poison_cell), and an exhausted restart budget turns
//       the daemon cache-only (degraded) until it refills
//       (docs/ROBUSTNESS.md).
//   afs_sweep request --socket=PATH run fig04 [--deadline=S] [--tag=T]
//   afs_sweep request --socket=PATH '{"verb":"stats"}'
//       client helper: send one request, stream the responses, exit with
//       0 = ok, 1 = failed, 2 = transport error, 3 = bounced
//       (overloaded / shutting down). --retries=N retries transport
//       failures and overloaded bounces under deterministic jittered
//       exponential backoff (--backoff=S scales it).
//
// (Hidden: `afs_sweep worker` is the sandbox worker entry point that
// --isolation=process re-execs; it is not part of the CLI surface.)
//
// Shared flags are experiments/bench_cli.hpp's (`afs_sweep run <id> --help`).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "sched/registry.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/worker.hpp"
#include "store/result_store.hpp"
#include "util/cancel.hpp"
#include "util/table.hpp"

namespace {

using namespace afs;

bool parse_double_flag(const std::string& arg, std::size_t prefix,
                       const char* flag, double lo, double hi, double& out);
bool parse_int_flag(const std::string& arg, std::size_t prefix,
                    const char* flag, long lo, long hi, int& out);

int usage(std::ostream& out, int rc) {
  out << "usage: afs_sweep <command> [args]\n"
         "  list                      registered experiments\n"
         "  list --schedulers         registered scheduler specs\n"
         "  run <id>... [flags]       run experiments by id\n"
         "  run --all [flags]         run every runnable experiment\n"
         "  run --kernel=K --machine=M --schedulers=S,S [--procs=P,P]\n"
         "      [--perturb=SPEC] [flags]   run a user-defined grid\n"
         "  cache stats [--store=DIR] store entries, bytes, quarantined\n"
         "  cache gc [--store=DIR] [--max-age-days=D] [--max-bytes=B]\n"
         "                            evict by age, then by LRU size cap\n"
         "  cache verify [--store=DIR]\n"
         "                            scrub: checksum every entry,\n"
         "                            quarantine corruption (exit 1 if any)\n"
         "  serve --socket=PATH [--jobs=N] [--max-queue=M]\n"
         "      [--default-deadline=S] [--drain-timeout=S]\n"
         "      [--write-timeout=S] [--max-connections=N] [--quiet]\n"
         "      [--out-dir=DIR] [--store=DIR|--no-store]\n"
         "      [--cell-timeout=S] [--cell-retries=N]\n"
         "      [--isolation=thread|process] [--poison-strikes=N]\n"
         "      [--restart-burst=N] [--restart-refill=R]\n"
         "                            the sweep daemon (SIGTERM drains)\n"
         "  request --socket=PATH [--raw] [--timeout=S]\n"
         "      [--retries=N] [--backoff=S] <request>\n"
         "      where <request> is one of\n"
         "        run <id>... | run --all   [--deadline=S] [--tag=T]\n"
         "        grid --kernel=K --machine=M --schedulers=S,S\n"
         "             [--procs=P,P] [--perturb=SPEC]\n"
         "        stats | health | shutdown\n"
         "        '{\"verb\":...}'       a raw protocol line\n"
         "shared flags: see afs_sweep run <id> --help;\n"
         "run also takes --isolation=thread|process (sandboxed cell\n"
         "execution on --jobs workers: a crash loses one attempt, not the\n"
         "batch); the store defaults to <out-dir>/.store unless "
         "--no-store\n";
  return rc;
}

const char* kind_name(ExperimentKind k) {
  switch (k) {
    case ExperimentKind::kFigure:
      return "figure";
    case ExperimentKind::kTable:
      return "table";
    case ExperimentKind::kMicro:
      return "micro";
  }
  return "?";
}

int cmd_list(const std::vector<std::string>& args) {
  for (const std::string& a : args) {
    if (a == "--schedulers") {
      // Every spec form make_scheduler() accepts, with the registry's own
      // one-line description — the same single source of truth the
      // unknown-spec error prints.
      Table t({"spec", "description"});
      for (const SchedulerSpecInfo& info : scheduler_spec_infos())
        t.add_row({info.spec, info.description});
      std::cout << t.to_ascii();
      return 0;
    }
    std::cerr << "afs_sweep list: unknown flag '" << a << "'\n";
    return usage(std::cerr, 2);
  }
  Table t({"id", "kind", "csv", "title"});
  for (const Experiment& e : all_experiments()) {
    std::string csvs;
    for (const std::string& c : e.csv_ids)
      csvs += (csvs.empty() ? "" : " ") + c + ".csv";
    t.add_row({e.id, kind_name(e.kind), csvs, e.title});
  }
  std::cout << t.to_ascii();
  return 0;
}

/// Store root for maintenance commands: --store=DIR or <out-dir>/.store.
std::string store_root(const bench::BenchCli& cli) {
  return cli.store_dir.empty() ? cli.out_dir + "/.store" : cli.store_dir;
}

int cmd_cache(const std::vector<std::string>& args) {
  if (args.empty()) return usage(std::cerr, 2);
  const std::string sub = args[0];
  bench::BenchCli cli;
  GcOptions gc;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--store=", 0) == 0 || a.rfind("--out-dir=", 0) == 0) {
      std::string error;
      bool help = false;
      if (!bench::parse_cli_args({a}, cli, error, help)) {
        std::cerr << "afs_sweep cache: " << error << "\n";
        return 2;
      }
    } else if (a.rfind("--max-age-days=", 0) == 0) {
      gc.max_age_days = std::strtod(a.c_str() + 15, nullptr);
      if (!(gc.max_age_days > 0.0)) {
        std::cerr << "afs_sweep cache: bad --max-age-days value\n";
        return 2;
      }
    } else if (a.rfind("--max-bytes=", 0) == 0) {
      gc.max_bytes = std::strtoll(a.c_str() + 12, nullptr, 10);
      if (gc.max_bytes < 0) {
        std::cerr << "afs_sweep cache: bad --max-bytes value\n";
        return 2;
      }
    } else {
      std::cerr << "afs_sweep cache: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  ResultStore store(store_root(cli));
  if (sub == "stats") {
    const StoreStats s = store.scan();
    std::cout << "store: " << store.root() << "\n"
              << "entries: " << s.entries << "\n"
              << "bytes: " << s.bytes << "\n"
              << "quarantined=" << s.quarantined << "\n";
    return 0;
  }
  if (sub == "gc") {
    if (gc.max_age_days <= 0.0 && gc.max_bytes < 0) {
      std::cerr << "afs_sweep cache gc: nothing to do — pass "
                   "--max-age-days=D and/or --max-bytes=B\n";
      return 2;
    }
    const GcOutcome o = store.gc(gc);
    std::cout << "store: " << store.root() << "\n"
              << "scanned: " << o.scanned << "\n"
              << "evicted: " << o.evicted << "\n"
              << "bytes: " << o.bytes_before << " -> " << o.bytes_after
              << "\n";
    return 0;
  }
  if (sub == "verify") {
    const ScrubOutcome o = store.verify();
    std::cout << "store: " << store.root() << "\n"
              << "scanned: " << o.scanned << "\n"
              << "ok: " << o.ok << "\n"
              << "corrupt: " << o.corrupt << "\n"
              << "upgraded: " << o.upgraded << "\n"
              << "tmp_removed: " << o.tmp_removed << "\n"
              << "mtime_repaired: " << o.mtime_repaired << "\n";
    // Nonzero exit iff corruption was found (and quarantined) — what a
    // cron job or CI stage keys its alerting on.
    return o.clean() ? 0 : 1;
  }
  std::cerr << "afs_sweep cache: unknown subcommand '" << sub << "'\n";
  return usage(std::cerr, 2);
}

// SIGINT/SIGTERM in batch mode fire the run's CancelToken cooperatively:
// running cells stop at the next simulation event boundary, queued cells
// never start, and no further block prints — finished cells are already
// in the store, so rerunning over it picks up where this left off, and
// the CSVs are never truncated. CancelToken::cancel() is a lock-free
// atomic store, which is all a signal handler is allowed to do.
CancelToken* g_batch_cancel = nullptr;
volatile std::sig_atomic_t g_batch_signal = 0;

void batch_signal_handler(int sig) {
  g_batch_signal = sig;
  if (g_batch_cancel != nullptr) g_batch_cancel->cancel();
}

int cmd_run(const std::vector<std::string>& args) {
  std::vector<std::string> ids;
  std::vector<std::string> shared;
  bool run_all = false;
  std::string kernel, machine, schedulers, perturb;
  std::string isolation = "thread";
  for (const std::string& a : args) {
    if (a == "--all") {
      run_all = true;
    } else if (a.rfind("--kernel=", 0) == 0) {
      kernel = a.substr(9);
    } else if (a.rfind("--machine=", 0) == 0) {
      machine = a.substr(10);
    } else if (a.rfind("--schedulers=", 0) == 0) {
      schedulers = a.substr(13);
    } else if (a.rfind("--perturb=", 0) == 0) {
      perturb = a.substr(10);
    } else if (a.rfind("--isolation=", 0) == 0) {
      isolation = a.substr(12);
      if (isolation != "thread" && isolation != "process") {
        std::cerr << "afs_sweep run: --isolation must be thread or process\n";
        return 2;
      }
    } else if (a.rfind("--", 0) == 0) {
      shared.push_back(a);
    } else {
      ids.push_back(a);
    }
  }
  const bool grid = !kernel.empty() || !machine.empty() || !schedulers.empty();
  if (grid && (run_all || !ids.empty())) {
    std::cerr << "afs_sweep run: a grid (--kernel/--machine/--schedulers) "
                 "cannot be combined with experiment ids\n";
    return 2;
  }
  if (!grid && !run_all && ids.empty()) return usage(std::cerr, 2);

  bench::BenchCli cli;
  std::string error;
  bool want_help = false;
  if (!bench::parse_cli_args(shared, cli, error, want_help)) {
    std::cerr << "afs_sweep run: " << error << "\n";
    bench::print_usage("afs_sweep run", std::cerr);
    return 2;
  }
  if (want_help) {
    bench::print_usage("afs_sweep run", std::cout);
    return 0;
  }

  ExperimentContext ctx;
  ctx.cli = cli;
  ctx.log = &std::cerr;

  CancelToken interrupt;
  g_batch_cancel = &interrupt;
  ctx.cancel = &interrupt;
  struct sigaction sa {}, old_int {}, old_term {};
  sa.sa_handler = batch_signal_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, &old_int);
  sigaction(SIGTERM, &sa, &old_term);

  // The driver's store is ON by default: sweeps over overlapping grids
  // are exactly where the content-addressed cache pays off.
  std::optional<ResultStore> store;
  if (!cli.no_store) {
    store.emplace(store_root(cli));
    ctx.store = &*store;
  }

  // --isolation=process: store-missed cells run in supervised sandbox
  // subprocesses (re-exec'ing this binary's hidden `worker` command), so
  // an engine crash loses one cell attempt, not the whole batch.
  std::unique_ptr<service::WorkerPool> sandbox;
  if (isolation == "process") {
    service::WorkerPoolOptions wopts;
    wopts.workers = cli.jobs;
    wopts.log = &std::cerr;
    sandbox = std::make_unique<service::WorkerPool>(std::move(wopts));
    std::string werror;
    if (!sandbox->start(werror)) {
      std::cerr << "afs_sweep run: cannot start sandbox workers: " << werror
                << "\n";
      return 2;
    }
    ctx.executor = sandbox.get();
  }

  std::vector<const Experiment*> selected;
  Experiment grid_experiment;
  if (grid) {
    if (kernel.empty() || machine.empty() || schedulers.empty()) {
      std::cerr << "afs_sweep run: a grid needs all of --kernel=, "
                   "--machine= and --schedulers=\n";
      return 2;
    }
    try {
      // The same code path the daemon's `grid` verb validates and runs,
      // so both produce byte-identical grid.csv for the same specs.
      GridSpec g;
      g.kernel = kernel;
      g.machine = machine;
      g.schedulers = schedulers;
      g.perturb = perturb;
      g.procs = cli.procs;
      grid_experiment = make_grid_experiment(g);
    } catch (const std::exception& ex) {
      std::cerr << "afs_sweep run: " << ex.what() << "\n";
      return 2;
    }
    selected.push_back(&grid_experiment);
  } else if (run_all) {
    for (const Experiment& e : all_experiments()) selected.push_back(&e);
  } else {
    for (const std::string& id : ids) {
      const Experiment* e = find_experiment(id);
      if (!e) {
        std::cerr << "afs_sweep run: unknown experiment id '" << id
                  << "' (see afs_sweep list)\n";
        return 2;
      }
      selected.push_back(e);
    }
  }
  int rc = 0;
  std::size_t cells = 0;
  for (const int one : run_experiments(selected, ctx, std::cout, &cells))
    if (one != 0 && rc == 0) rc = one;

  // The store witness; cells is the planned count, so a pass that sends
  // every cell through the store reads hits + misses == cells.
  if (store) {
    const double rate = store->hit_rate() * 100.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", rate);
    std::cout << "store: hits=" << store->hits()
              << " misses=" << store->misses()
              << " writes=" << store->writes() << " hit_rate=" << buf
              << "% cells=" << cells << "\n";
  }
  if (sandbox) {
    const service::WorkerPoolStats ws = sandbox->stats();
    std::cout << "workers: cells=" << ws.cells_executed
              << " spawned=" << ws.spawned << " crashes=" << ws.crashes
              << " poisoned=" << ws.poisoned << "\n";
  }

  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  g_batch_cancel = nullptr;
  if (interrupt.cancelled()) {
    std::cerr << "afs_sweep run: interrupted (signal "
              << static_cast<int>(g_batch_signal)
              << "); finished cells are in the store — rerun over it to "
                 "pick up where this left off\n";
    return 130;
  }
  return rc;
}

bool parse_double_flag(const std::string& arg, std::size_t prefix,
                       const char* flag, double lo, double hi, double& out) {
  const std::string tok = arg.substr(prefix);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
      v < lo || v > hi) {
    std::cerr << "afs_sweep: bad " << flag << " value '" << tok << "'\n";
    return false;
  }
  out = v;
  return true;
}

bool parse_int_flag(const std::string& arg, std::size_t prefix,
                    const char* flag, long lo, long hi, int& out) {
  const std::string tok = arg.substr(prefix);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
      v < lo || v > hi) {
    std::cerr << "afs_sweep: bad " << flag << " value '" << tok << "'\n";
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

int cmd_serve(const std::vector<std::string>& args) {
  service::DaemonOptions opts;
  opts.log = &std::cerr;
  for (const std::string& a : args) {
    if (a.rfind("--socket=", 0) == 0) {
      opts.socket_path = a.substr(9);
    } else if (a.rfind("--out-dir=", 0) == 0) {
      opts.out_dir = a.substr(10);
    } else if (a.rfind("--store=", 0) == 0) {
      opts.store_dir = a.substr(8);
      opts.no_store = false;
    } else if (a == "--no-store") {
      opts.no_store = true;
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!parse_int_flag(a, 7, "--jobs", 1, 256, opts.jobs)) return 2;
    } else if (a.rfind("--max-queue=", 0) == 0) {
      if (!parse_int_flag(a, 12, "--max-queue", 1, 4096, opts.max_queue))
        return 2;
    } else if (a.rfind("--max-connections=", 0) == 0) {
      if (!parse_int_flag(a, 18, "--max-connections", 1, 1024,
                          opts.max_connections))
        return 2;
    } else if (a.rfind("--default-deadline=", 0) == 0) {
      if (!parse_double_flag(a, 19, "--default-deadline", 0.0, 86400.0,
                             opts.default_deadline))
        return 2;
    } else if (a.rfind("--drain-timeout=", 0) == 0) {
      if (!parse_double_flag(a, 16, "--drain-timeout", 0.001, 86400.0,
                             opts.drain_timeout))
        return 2;
    } else if (a.rfind("--write-timeout=", 0) == 0) {
      if (!parse_double_flag(a, 16, "--write-timeout", 0.001, 3600.0,
                             opts.write_timeout))
        return 2;
    } else if (a.rfind("--cell-timeout=", 0) == 0) {
      if (!parse_double_flag(a, 15, "--cell-timeout", 0.0, 86400.0,
                             opts.cell_timeout))
        return 2;
    } else if (a.rfind("--cell-retries=", 0) == 0) {
      if (!parse_int_flag(a, 15, "--cell-retries", 0, 100, opts.cell_retries))
        return 2;
    } else if (a.rfind("--isolation=", 0) == 0) {
      opts.isolation = a.substr(12);
      if (opts.isolation != "thread" && opts.isolation != "process") {
        std::cerr << "afs_sweep serve: --isolation must be thread or "
                     "process\n";
        return 2;
      }
    } else if (a.rfind("--poison-strikes=", 0) == 0) {
      if (!parse_int_flag(a, 17, "--poison-strikes", 1, 100,
                          opts.poison_strikes))
        return 2;
    } else if (a.rfind("--restart-burst=", 0) == 0) {
      if (!parse_double_flag(a, 16, "--restart-burst", 0.0, 10000.0,
                             opts.restart_burst))
        return 2;
    } else if (a.rfind("--restart-refill=", 0) == 0) {
      if (!parse_double_flag(a, 17, "--restart-refill", 0.0, 10000.0,
                             opts.restart_refill))
        return 2;
    } else if (a == "--quiet") {
      opts.log = nullptr;
    } else {
      std::cerr << "afs_sweep serve: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  if (opts.socket_path.empty()) {
    std::cerr << "afs_sweep serve: --socket=PATH is required\n";
    return 2;
  }
  try {
    service::SweepDaemon daemon(std::move(opts));
    return daemon.serve();
  } catch (const std::exception& ex) {
    std::cerr << "afs_sweep serve: " << ex.what() << "\n";
    return 2;
  }
}

/// Builds the protocol line for `afs_sweep request`'s convenience syntax
/// (run/grid/stats/health/shutdown + flags). A raw '{...}' argument is
/// passed through untouched so tests can speak arbitrary frames.
bool build_request_line(const std::vector<std::string>& args,
                        std::string& line, std::string& error) {
  using service::json_number;
  using service::json_quote;
  if (args.empty()) {
    error = "need a request (run/grid/stats/health/shutdown or '{...}')";
    return false;
  }
  if (args[0].rfind('{', 0) == 0) {
    if (args.size() != 1) {
      error = "a raw JSON request takes no further arguments";
      return false;
    }
    line = args[0];
    return true;
  }
  const std::string& verb = args[0];
  std::vector<std::string> ids;
  bool all = false;
  std::string kernel, machine, schedulers, procs, perturb, tag;
  double deadline = 0.0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--all") {
      all = true;
    } else if (a.rfind("--kernel=", 0) == 0) {
      kernel = a.substr(9);
    } else if (a.rfind("--machine=", 0) == 0) {
      machine = a.substr(10);
    } else if (a.rfind("--schedulers=", 0) == 0) {
      schedulers = a.substr(13);
    } else if (a.rfind("--procs=", 0) == 0) {
      procs = a.substr(8);
    } else if (a.rfind("--perturb=", 0) == 0) {
      perturb = a.substr(10);
    } else if (a.rfind("--tag=", 0) == 0) {
      tag = a.substr(6);
    } else if (a.rfind("--deadline=", 0) == 0) {
      char* end = nullptr;
      deadline = std::strtod(a.c_str() + 11, &end);
      if (end == a.c_str() + 11 || *end != '\0' || !(deadline > 0.0)) {
        error = "bad --deadline value";
        return false;
      }
    } else if (a.rfind("--", 0) == 0) {
      error = "unknown argument '" + a + "'";
      return false;
    } else {
      ids.push_back(a);
    }
  }
  line = "{\"verb\":" + json_quote(verb);
  if (verb == "run") {
    if (all) {
      line += ",\"all\":true";
    } else {
      line += ",\"ids\":[";
      for (std::size_t i = 0; i < ids.size(); ++i)
        line += (i > 0 ? "," : "") + json_quote(ids[i]);
      line += "]";
    }
  } else if (verb == "grid") {
    line += ",\"kernel\":" + json_quote(kernel) +
            ",\"machine\":" + json_quote(machine) +
            ",\"schedulers\":" + json_quote(schedulers);
    if (!procs.empty()) line += ",\"procs\":" + json_quote(procs);
    if (!perturb.empty()) line += ",\"perturb\":" + json_quote(perturb);
  } else if (verb != "stats" && verb != "health" && verb != "shutdown") {
    error = "unknown request verb '" + verb + "'";
    return false;
  }
  if (deadline > 0.0) line += ",\"deadline\":" + json_number(deadline);
  if (!tag.empty()) line += ",\"tag\":" + json_quote(tag);
  line += "}";
  return true;
}

int cmd_request(const std::vector<std::string>& args) {
  std::string socket_path;
  bool raw = false;
  double timeout = 0.0;
  service::RequestRetryOptions retry;
  std::vector<std::string> rest;
  for (const std::string& a : args) {
    if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(9);
    } else if (a == "--raw") {
      raw = true;
    } else if (a.rfind("--timeout=", 0) == 0) {
      if (!parse_double_flag(a, 10, "--timeout", 0.001, 86400.0, timeout))
        return 2;
    } else if (a.rfind("--retries=", 0) == 0) {
      if (!parse_int_flag(a, 10, "--retries", 0, 100, retry.retries))
        return 2;
    } else if (a.rfind("--backoff=", 0) == 0) {
      if (!parse_double_flag(a, 10, "--backoff", 0.0, 3600.0,
                             retry.backoff_base))
        return 2;
    } else {
      rest.push_back(a);
    }
  }
  if (socket_path.empty()) {
    std::cerr << "afs_sweep request: --socket=PATH is required\n";
    return 2;
  }
  std::string line, error;
  if (!build_request_line(rest, line, error)) {
    std::cerr << "afs_sweep request: " << error << "\n";
    return 2;
  }
  return service::run_request(socket_path, line, std::cout, std::cerr, raw,
                              timeout, retry);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  const std::string& cmd = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "list") return cmd_list(rest);
  if (cmd == "run") return cmd_run(rest);
  if (cmd == "cache") return cmd_cache(rest);
  if (cmd == "serve") return cmd_serve(rest);
  if (cmd == "request") return cmd_request(rest);
  // Hidden: the sandbox worker entry point. A WorkerPool re-execs this
  // binary with argv {"worker"}; stdin/stdout are the protocol pipes.
  if (cmd == "worker") return afs::service::worker_main();
  if (cmd == "--help" || cmd == "-h" || cmd == "help")
    return usage(std::cout, 0);
  std::cerr << "afs_sweep: unknown command '" << cmd << "'\n";
  return usage(std::cerr, 2);
}
