// Tests for the `afs_sweep run` CLI parser (experiments/bench_cli.hpp). A
// reproduction run must fail loudly on any typo rather than silently
// falling back to a multi-minute default sweep, so parse_cli_args rejects
// unknown flags and malformed values with a message naming the culprit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "trace/trace_record.hpp"

namespace afs::bench {
namespace {

struct Parse {
  BenchCli cli;
  std::string error;
  bool want_help = false;
  bool ok = false;
};

Parse parse(const std::vector<std::string>& args) {
  Parse p;
  p.ok = parse_cli_args(args, p.cli, p.error, p.want_help);
  return p;
}

TEST(BenchCli, DefaultsWithNoArgs) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_FALSE(p.want_help);
  EXPECT_TRUE(p.cli.procs.empty());
  EXPECT_EQ(p.cli.out_dir, "bench_results");
  EXPECT_FALSE(p.cli.trace);
}

TEST(BenchCli, ParsesAllFlags) {
  const Parse p = parse({"--procs=1,2,4,64", "--out-dir=/tmp/x", "--trace"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{1, 2, 4, 64}));
  EXPECT_EQ(p.cli.out_dir, "/tmp/x");
  EXPECT_TRUE(p.cli.trace);
}

TEST(BenchCli, SingleProcValue) {
  const Parse p = parse({"--procs=57"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{57}));
}

TEST(BenchCli, LaterProcsFlagReplacesEarlier) {
  const Parse p = parse({"--procs=1,2", "--procs=8"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{8}));
}

TEST(BenchCli, HelpShortCircuits) {
  for (const char* flag : {"--help", "-h"}) {
    const Parse p = parse({flag});
    EXPECT_TRUE(p.ok) << flag;
    EXPECT_TRUE(p.want_help) << flag;
  }
  // --help wins even when followed by garbage: the user asked for usage.
  const Parse p = parse({"--help", "--bogus"});
  EXPECT_TRUE(p.ok);
  EXPECT_TRUE(p.want_help);
}

TEST(BenchCli, RejectsUnknownArgument) {
  const Parse p = parse({"--prcos=4"});  // typo'd flag
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--prcos=4"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsBareWord) {
  const Parse p = parse({"8"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("'8'"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsEmptyOutDir) {
  const Parse p = parse({"--out-dir="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--out-dir"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsEmptyProcsList) {
  const Parse p = parse({"--procs="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--procs"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsMalformedProcsEntries) {
  for (const char* bad :
       {"--procs=abc", "--procs=4x", "--procs=1,,2", "--procs=1,2,",
        "--procs=,1", "--procs=0", "--procs=65", "--procs=-3",
        "--procs=99999999999999999999"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--procs"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, ErrorNamesTheBadToken) {
  const Parse p = parse({"--procs=1,zap,3"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("'zap'"), std::string::npos) << p.error;
}

TEST(BenchCli, DefaultsLeaveSweepRunnerOff) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.jobs, 1);
  EXPECT_EQ(p.cli.cell_timeout, 0.0);
  EXPECT_EQ(p.cli.sweep_timeout, 0.0);
  EXPECT_EQ(p.cli.cell_retries, -1);
}

TEST(BenchCli, ParsesSweepRunnerFlags) {
  const Parse p =
      parse({"--jobs=4", "--cell-timeout=2.5", "--sweep-timeout=600"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.jobs, 4);
  EXPECT_EQ(p.cli.cell_timeout, 2.5);
  EXPECT_EQ(p.cli.sweep_timeout, 600.0);
  // The store is the only checkpoint: resuming is rerunning over it.
  EXPECT_FALSE(parse({"--resume"}).ok);
}

TEST(BenchCli, RejectsMalformedJobs) {
  for (const char* bad :
       {"--jobs=", "--jobs=0", "--jobs=-2", "--jobs=257", "--jobs=two",
        "--jobs=4x"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--jobs"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, RejectsMalformedTimeouts) {
  for (const char* bad :
       {"--cell-timeout=", "--cell-timeout=0", "--cell-timeout=-1",
        "--cell-timeout=abc", "--cell-timeout=1s", "--sweep-timeout=0",
        "--sweep-timeout=1e9"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("timeout"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, DefaultsLeaveEngineTogglesAlone) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_FALSE(p.cli.time_phases);
  EXPECT_EQ(p.cli.cell_retries, -1);  // -1 = keep SweepOptions default
}

TEST(BenchCli, ParsesEngineToggles) {
  const Parse p = parse({"--time-phases"});
  ASSERT_TRUE(p.ok);
  EXPECT_TRUE(p.cli.time_phases);
}

TEST(BenchCli, ParsesCellRetries) {
  const Parse p = parse({"--cell-retries=0"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.cell_retries, 0);
  EXPECT_EQ(parse({"--cell-retries=5"}).cli.cell_retries, 5);
}

TEST(BenchCli, RejectsMalformedCellRetries) {
  for (const char* bad : {"--cell-retries=", "--cell-retries=-1",
                          "--cell-retries=101", "--cell-retries=two"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--cell-retries"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, TraceComposesWithParallelJobs) {
  // Traces are per (scheduler, P) cell — each cell owns its writer — so
  // the old "--trace requires --jobs=1" restriction is gone.
  const Parse p = parse({"--trace", "--jobs=4"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.cli.trace);
  EXPECT_EQ(p.cli.jobs, 4);
}

TEST(BenchCli, TraceCellPathSanitizesLabel) {
  EXPECT_EQ(trace_cell_path("/tmp/out", "fig15", "CHUNK(8)", 4),
            "/tmp/out/fig15.p4.CHUNK_8_.cctrace");
  EXPECT_EQ(trace_cell_path("out", "fig04", "AFS", 57),
            "out/fig04.p57.AFS.cctrace");
}

TEST(BenchCli, DefaultsLeaveStoreOff) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_TRUE(p.cli.store_dir.empty());
  EXPECT_FALSE(p.cli.no_store);
}

TEST(BenchCli, ParsesStoreDir) {
  const Parse p = parse({"--store=/tmp/cells"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.store_dir, "/tmp/cells");
  EXPECT_FALSE(p.cli.no_store);
}

TEST(BenchCli, RejectsEmptyStoreDir) {
  const Parse p = parse({"--store="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--store"), std::string::npos) << p.error;
}

TEST(BenchCli, NoStoreWinsWhenLast) {
  // Later flags override earlier ones, in both directions.
  const Parse off = parse({"--store=/tmp/cells", "--no-store"});
  ASSERT_TRUE(off.ok);
  EXPECT_TRUE(off.cli.no_store);
  EXPECT_TRUE(off.cli.store_dir.empty());
  const Parse on = parse({"--no-store", "--store=/tmp/cells"});
  ASSERT_TRUE(on.ok);
  EXPECT_FALSE(on.cli.no_store);
  EXPECT_EQ(on.cli.store_dir, "/tmp/cells");
}

TEST(BenchCli, CsvPathJoinsOutDir) {
  BenchCli cli;
  cli.out_dir = "/tmp/results";
  EXPECT_EQ(csv_path(cli, "tab7"), "/tmp/results/tab7.csv");
}

}  // namespace
}  // namespace afs::bench
