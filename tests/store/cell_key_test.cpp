// CellKey: the content address of one simulation cell. These tests pin
// what the key must guarantee — determinism across calls (and therefore
// across processes: the text is a pure rendering and FNV-1a is a pure
// function), sensitivity to every input that changes simulated results,
// and the uncacheable escape hatch for cells whose identity is unknown.
#include "store/cell_key.hpp"

#include <gtest/gtest.h>

#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "sim/engine_version.hpp"
#include "sim/metrics.hpp"
#include "util/hash.hpp"

namespace afs {
namespace {

CellKey base_key(const SimOptions& options = {}) {
  return make_cell_key(iris(), "balanced(n=64,u=0x1p+0)", "AFS", 4, options);
}

TEST(CellKey, DeterministicAcrossCalls) {
  const CellKey a = base_key();
  const CellKey b = base_key();
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_TRUE(a.cacheable);
  EXPECT_EQ(a.hash, fnv1a64(a.text));
}

TEST(CellKey, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors: the hash function itself must be
  // stable across platforms and runs or stored entries become orphans.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(CellKey, EmbedsEngineVersionAndSchema) {
  const CellKey k = base_key();
  EXPECT_EQ(k.text.rfind("afs-store-key-v1\n", 0), 0u) << k.text;
  EXPECT_NE(k.text.find(std::string("engine ") + kEngineVersion),
            std::string::npos)
      << k.text;
}

TEST(CellKey, EveryInputChangesTheHash) {
  const CellKey base = base_key();

  MachineConfig m2 = iris();
  m2.miss_latency += 1.0;
  EXPECT_NE(make_cell_key(m2, "balanced(n=64,u=0x1p+0)", "AFS", 4, {}).hash,
            base.hash);

  EXPECT_NE(
      make_cell_key(iris(), "balanced(n=65,u=0x1p+0)", "AFS", 4, {}).hash,
      base.hash);
  EXPECT_NE(
      make_cell_key(iris(), "balanced(n=64,u=0x1p+0)", "GSS", 4, {}).hash,
      base.hash);
  EXPECT_NE(
      make_cell_key(iris(), "balanced(n=64,u=0x1p+0)", "AFS", 5, {}).hash,
      base.hash);

  SimOptions seed;
  seed.jitter_seed ^= 1;
  EXPECT_NE(base_key(seed).hash, base.hash);

  SimOptions nobatch;
  nobatch.batch_iterations = false;
  EXPECT_NE(base_key(nobatch).hash, base.hash);

  SimOptions nofast;
  nofast.memory_fast_path = false;
  EXPECT_NE(base_key(nofast).hash, base.hash);

  SimOptions perturbed;
  perturbed.perturb.stall_mean_interval = 100.0;
  perturbed.perturb.stall_duration = 5.0;
  EXPECT_NE(base_key(perturbed).hash, base.hash);
}

TEST(CellKey, TextLayoutIsPinned) {
  // Stored entries are found by this exact text: one line per input, in
  // this order. Changing it orphans every stored entry.
  SimOptions options;
  options.jitter_seed = 7;
  options.memory_fast_path = false;
  options.perturb.stall_mean_interval = 100.0;
  const std::string expected =
      std::string("afs-store-key-v1\nengine ") + kEngineVersion + "\n" +
      machine_key(iris()) +
      "\nprogram balanced(n=64,u=0x1p+0)\nscheduler AFS\nprocs 4\n"
      "jitter_seed 7\nbatch 1\nmemfast 0\ncalendar 1\nepochbatch 1\n" +
      perturb_key(options.perturb) + "\n";
  EXPECT_EQ(base_key(options).text, expected);
}

TEST(CellKey, OnePrefixKeysEveryCellOfAPlan) {
  // A prefix renders the machine and option lines once; the keys it makes
  // are make_cell_key's, cacheability included.
  SimOptions perturbed;
  perturbed.perturb.start_delays = {0.0, 12.5};
  SimOptions timed;
  timed.time_phases = true;
  for (const SimOptions& options : {SimOptions{}, perturbed, timed}) {
    const CellKeyPrefix prefix(ksr1(), options);
    for (const char* scheduler : {"AFS", "GSS", ""})
      for (int procs : {1, 57}) {
        const CellKey a = prefix.key("gauss(n=64)", scheduler, procs);
        const CellKey b =
            make_cell_key(ksr1(), "gauss(n=64)", scheduler, procs, options);
        EXPECT_EQ(a.text, b.text);
        EXPECT_EQ(a.hash, b.hash);
        EXPECT_EQ(a.cacheable, b.cacheable);
      }
  }
}

TEST(CellKey, UnknownIdentityIsUncacheable) {
  EXPECT_FALSE(make_cell_key(iris(), "", "AFS", 4, {}).cacheable);
  EXPECT_FALSE(
      make_cell_key(iris(), "balanced(n=64,u=0x1p+0)", "", 4, {}).cacheable);
}

TEST(CellKey, SideEffectingRunsAreUncacheable) {
  SimOptions timed;
  timed.time_phases = true;
  EXPECT_FALSE(base_key(timed).cacheable);

  MetricsSink sink;  // all hooks default to no-ops
  SimOptions traced;
  traced.trace = &sink;
  EXPECT_FALSE(base_key(traced).cacheable);
}

TEST(CellKey, ProgramFactoriesStampStableKeys) {
  // A factory-built program carries its identity; the same parameters give
  // the same key, different parameters a different one.
  EXPECT_FALSE(balanced_program(64).key.empty());
  EXPECT_EQ(balanced_program(64).key, balanced_program(64).key);
  EXPECT_NE(balanced_program(64).key, balanced_program(65).key);
}

}  // namespace
}  // namespace afs
