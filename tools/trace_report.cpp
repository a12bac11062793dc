// trace_report: decode simulator traces (.cctrace), print per-run
// analytics, and optionally render a self-contained HTML/SVG Gantt
// timeline — or dump the decoded records as JSON lines.
//
//   trace_report TRACE... [--html=PATH] [--title=TEXT]
//   trace_report --jsonl TRACE...
//
// For every input trace the tool prints, per run: the (machine, program,
// scheduler, P) header, makespan, affinity score, steal totals, a
// per-processor utilization breakdown, and the steal matrix. The trace
// conservation law (executed + abandoned == announced iterations) is
// checked on every run; a violation — or any decode error — makes the
// exit status nonzero, so CI can gate on it.
//
// --html renders all decoded runs into one standalone HTML document
// (written atomically), e.g.
//
//   trace_report bench_results/fig15.p8.AFS.cctrace --html=fig15_afs.html
//
// --jsonl prints every decoded record as one JSON object per line, in the
// schema of docs/SIMULATOR.md ("Trace schema"), and nothing else — the
// grep/jq view of a binary trace. It exits nonzero only on a decode
// error.

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "trace/analysis.hpp"
#include "trace/gantt.hpp"
#include "trace/trace_reader.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: trace_report TRACE... [--html=PATH] [--title=TEXT]\n"
      << "       trace_report --jsonl TRACE...\n"
      << "  TRACE         a .cctrace simulator trace\n"
      << "  --html=PATH   render all runs as a standalone HTML/SVG Gantt\n"
      << "  --title=TEXT  document heading for --html\n"
      << "  --jsonl       print each record as one JSON object per line\n"
      << "                (docs/SIMULATOR.md, \"Trace schema\") instead\n"
      << "                of the analytics\n"
      << "Exits nonzero on decode errors or a trace conservation violation\n"
      << "(executed + abandoned iterations must equal the announced total).\n";
}

std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

void print_run(const afs::TraceAnalysis& a, std::ostream& out) {
  out << "run: " << a.scheduler << " | " << a.program << " on " << a.machine
      << " | P=" << a.p << "\n";
  out << "  makespan " << fmt(a.makespan) << ", epochs " << a.epochs
      << ", records " << a.records << "\n";
  out << "  iterations: " << a.total_iterations << " announced, "
      << a.executed_iterations << " executed, " << a.abandoned_iterations
      << " abandoned -> conservation "
      << (a.conserved() ? "OK" : "VIOLATED") << "\n";
  out << "  affinity score " << fmt(a.affinity_score(), 4) << " ("
      << a.affine_iterations << "/" << a.scored_iterations
      << " re-executed by their previous-epoch owner)\n";
  out << "  stolen iterations " << a.remote_steals() << ", fault-reassigned "
      << a.fault_steals() << "\n";

  afs::Table t({"proc", "busy", "memory", "sync", "stall", "idle", "util%",
                "iters", "chunks"});
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    const afs::ProcBreakdown& pb = a.procs[p];
    const double util = a.makespan > 0 ? 100.0 * pb.exec / a.makespan : 0.0;
    t.add_row({"P" + std::to_string(p), fmt(pb.busy()), fmt(pb.memory),
               fmt(pb.sync), fmt(pb.stall), fmt(pb.idle), fmt(util),
               std::to_string(pb.iterations), std::to_string(pb.chunks)});
  }
  out << t.to_ascii();

  if (a.remote_steals() > 0 || a.fault_steals() > 0) {
    std::vector<std::string> headers{"thief\\victim"};
    for (std::size_t v = 0; v < a.procs.size(); ++v)
      headers.push_back("P" + std::to_string(v));
    afs::Table steals(std::move(headers));
    for (std::size_t th = 0; th < a.procs.size(); ++th) {
      std::vector<std::string> row{"P" + std::to_string(th)};
      for (std::size_t v = 0; v < a.procs.size(); ++v) {
        const std::int64_t iters =
            a.steal_iters[th][v] + a.fault_steal_iters[th][v];
        row.push_back(iters == 0 ? "." : std::to_string(iters));
      }
      steals.add_row(std::move(row));
    }
    out << "  steal matrix (iterations; remote grabs + fault reassignment):\n"
        << steals.to_ascii();
  }
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string html_path;
  std::string title;
  bool jsonl = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return EXIT_SUCCESS;
    } else if (arg.rfind("--html=", 0) == 0) {
      html_path = arg.substr(7);
      if (html_path.empty()) {
        std::cerr << "trace_report: --html needs a path\n";
        return 2;
      }
    } else if (arg.rfind("--title=", 0) == 0) {
      title = arg.substr(8);
    } else if (arg == "--jsonl") {
      jsonl = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "trace_report: unknown argument '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "trace_report: no trace files given\n";
    print_usage(std::cerr);
    return 2;
  }

  if (jsonl && !html_path.empty()) {
    std::cerr << "trace_report: --jsonl and --html are exclusive\n";
    return 2;
  }

  bool violated = false;
  std::vector<afs::TraceRecord> all_records;
  try {
    if (jsonl) {
      for (const std::string& path : inputs) {
        afs::TraceReader reader(path);
        afs::TraceRecord rec;
        while (reader.next(rec)) std::cout << afs::trace_json(rec) << '\n';
      }
      return EXIT_SUCCESS;
    }
    for (const std::string& path : inputs) {
      std::vector<afs::TraceRecord> records = afs::read_trace(path);
      const std::vector<afs::TraceAnalysis> runs =
          afs::analyze_trace(records);
      std::cout << "== " << path << " (" << records.size() << " records, "
                << runs.size() << " run" << (runs.size() == 1 ? "" : "s")
                << ") ==\n";
      for (const afs::TraceAnalysis& a : runs) {
        print_run(a, std::cout);
        if (!a.conserved()) violated = true;
      }
      if (!html_path.empty())
        all_records.insert(all_records.end(),
                           std::make_move_iterator(records.begin()),
                           std::make_move_iterator(records.end()));
    }

    if (!html_path.empty()) {
      if (title.empty())
        title = inputs.size() == 1 ? inputs.front()
                                   : std::to_string(inputs.size()) +
                                         " simulator traces";
      afs::write_file_atomic(html_path,
                             afs::render_gantt_html(all_records, title));
      std::cout << "(timeline: " << html_path << ")\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_report: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  if (violated) {
    std::cerr << "trace_report: trace conservation violated (see above)\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
