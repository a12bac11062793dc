// Differential test of the store's two parsers: parse_store_entry (an
// entry's schema, checksum and framing) and parse_sim_result (its
// payload). Both read in one pass over the bytes, with std::from_chars for
// the hexfloats. The istringstream parsers they replaced are kept below,
// verbatim, as the reference. From a fixed seed, real v2 and v1 entries
// and payloads are mutated — byte flips, truncation at every line,
// dropped and duplicated lines, extra tokens on q lines, decimal, inf
// and nan values, a leading '+' or spaces in values — and every mutation
// must get the same verdict from both, and a bit-identical result.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "store/cell_key.hpp"
#include "util/rng.hpp"
#include "workload/graphs.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

namespace reference {

constexpr const char* kCellSchema = "afs-cell-v1";
constexpr const char* kStoreSchema = "afs-store-v2";
constexpr const char* kStoreSchemaV1 = "afs-store-v1";

std::uint32_t crc32c(const char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kCellSchema) return false;

  SimResult r;
  auto next_kv = [&](const char* key, std::string& value) {
    if (!std::getline(is, line)) return false;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || line.substr(0, sp) != key) return false;
    value = line.substr(sp + 1);
    return !value.empty();
  };
  auto d = [&](const char* key, double& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);  // strtod accepts %a hexfloats
    return end != value.c_str() && *end == '\0';
  };
  auto i = [&](const char* key, std::int64_t& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtoll(value.c_str(), &end, 10);
    return end != value.c_str() && *end == '\0';
  };

  std::int64_t queues = 0;
  if (!(d("makespan", r.makespan) && d("busy", r.busy) && d("sync", r.sync) &&
        d("comm", r.comm) && d("idle", r.idle) && d("barrier", r.barrier) &&
        d("stall", r.stall_time) && i("hits", r.hits) &&
        i("misses", r.misses) && i("inval", r.invalidations) &&
        d("units", r.units_transferred) && i("local", r.local_grabs) &&
        i("remote", r.remote_grabs) && i("central", r.central_grabs) &&
        i("iters", r.iterations) && i("lost", r.lost_processor_count) &&
        i("stolen", r.stolen_under_fault) &&
        i("abandoned", r.abandoned_iterations) &&
        i("loops", r.sched_stats.loops) && i("queues", queues)))
    return false;
  if (queues < 0 || queues > 1 << 20) return false;

  r.sched_stats.queues.resize(static_cast<std::size_t>(queues));
  for (QueueStats& q : r.sched_stats.queues) {
    if (!std::getline(is, line)) return false;
    std::istringstream qs(line);
    std::string tag;
    if (!(qs >> tag >> q.local_grabs >> q.remote_grabs >> q.iters_local >>
          q.iters_remote) ||
        tag != "q")
      return false;
  }
  // Between the q-lines and "end": optional `xaff`/`ximb` enrichment
  // lines (absent in entries written before those fields existed).
  auto parse_x = [&](const std::string& value, double& v) {
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0';
  };
  for (;;) {
    if (!std::getline(is, line)) return false;
    if (line == "end") break;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "xaff") {
      if (!parse_x(value, r.trace_affinity_score)) return false;
    } else if (key == "ximb") {
      if (!parse_x(value, r.trace_imbalance)) return false;
    } else {
      return false;
    }
  }

  out = r;
  return true;
}

struct ParsedEntry {
  bool v1 = false;          ///< legacy entry without a checksum
  std::string key_text;     ///< the embedded CellKey::text
  std::string payload;      ///< the serialized SimResult
  SimResult result;         ///< payload, parsed
};

bool parse_entry_fields(const std::string& content, ParsedEntry& out) {
  std::size_t pos = content.find('\n');
  if (pos == std::string::npos) return false;
  const bool v2 = content.compare(0, pos, kStoreSchema) == 0;
  if (!v2 && content.compare(0, pos, kStoreSchemaV1) != 0) return false;
  out.v1 = !v2;
  ++pos;

  if (v2) {
    // crc32c <8 hex> over everything after this line.
    const std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) return false;
    const std::string line = content.substr(pos, eol - pos);
    constexpr const char* kCrc = "crc32c ";
    if (line.rfind(kCrc, 0) != 0) return false;
    const std::string hexv = line.substr(std::string(kCrc).size());
    char* end = nullptr;
    const unsigned long long want = std::strtoull(hexv.c_str(), &end, 16);
    if (hexv.size() != 8 || end != hexv.c_str() + 8) return false;
    pos = eol + 1;
    if (crc32c(content.data() + pos, content.size() - pos) !=
        static_cast<std::uint32_t>(want))
      return false;
  }

  const std::size_t eol = content.find('\n', pos);
  if (eol == std::string::npos) return false;
  const std::string header = content.substr(pos, eol - pos);
  constexpr const char* kKeyBytes = "keybytes ";
  if (header.rfind(kKeyBytes, 0) != 0) return false;
  char* end = nullptr;
  const std::string count = header.substr(std::string(kKeyBytes).size());
  const long long n = std::strtoll(count.c_str(), &end, 10);
  if (end == count.c_str() || *end != '\0' || n < 0) return false;
  pos = eol + 1;

  if (content.size() - pos < static_cast<std::size_t>(n)) return false;
  out.key_text = content.substr(pos, static_cast<std::size_t>(n));
  pos += static_cast<std::size_t>(n);
  out.payload = content.substr(pos);
  return parse_sim_result(out.payload, out.result);
}

}  // namespace reference

/// Every field of two results, doubles compared bit for bit (so NaN
/// payloads and signed zeros count); timers are never serialized.
std::string differences(const SimResult& a, const SimResult& b) {
  std::ostringstream os;
  const auto d = [&](const char* name, double x, double y) {
    if (std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(y))
      os << name << ' ' << x << " vs " << y << "; ";
  };
  const auto i = [&](const char* name, std::int64_t x, std::int64_t y) {
    if (x != y) os << name << ' ' << x << " vs " << y << "; ";
  };
  d("makespan", a.makespan, b.makespan);
  d("busy", a.busy, b.busy);
  d("sync", a.sync, b.sync);
  d("comm", a.comm, b.comm);
  d("idle", a.idle, b.idle);
  d("barrier", a.barrier, b.barrier);
  d("stall", a.stall_time, b.stall_time);
  i("hits", a.hits, b.hits);
  i("misses", a.misses, b.misses);
  i("inval", a.invalidations, b.invalidations);
  d("units", a.units_transferred, b.units_transferred);
  i("local", a.local_grabs, b.local_grabs);
  i("remote", a.remote_grabs, b.remote_grabs);
  i("central", a.central_grabs, b.central_grabs);
  i("iters", a.iterations, b.iterations);
  i("lost", a.lost_processor_count, b.lost_processor_count);
  i("stolen", a.stolen_under_fault, b.stolen_under_fault);
  i("abandoned", a.abandoned_iterations, b.abandoned_iterations);
  i("loops", a.sched_stats.loops, b.sched_stats.loops);
  i("queues", static_cast<std::int64_t>(a.sched_stats.queues.size()),
    static_cast<std::int64_t>(b.sched_stats.queues.size()));
  for (std::size_t q = 0; q < a.sched_stats.queues.size() &&
                          q < b.sched_stats.queues.size();
       ++q) {
    const QueueStats& x = a.sched_stats.queues[q];
    const QueueStats& y = b.sched_stats.queues[q];
    i("q.local", x.local_grabs, y.local_grabs);
    i("q.remote", x.remote_grabs, y.remote_grabs);
    i("q.iters_local", x.iters_local, y.iters_local);
    i("q.iters_remote", x.iters_remote, y.iters_remote);
  }
  d("xaff", a.trace_affinity_score, b.trace_affinity_score);
  d("ximb", a.trace_imbalance, b.trace_imbalance);
  return os.str();
}

/// Verdicts over a run of mutations, so the test can show it exercised
/// both outcomes.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

void expect_same_payload_verdict(const std::string& text, Tally& tally) {
  SimResult want, got;
  want.makespan = got.makespan = -7.0;  // a rejection leaves `out` alone
  const bool ok_ref = reference::parse_sim_result(text, want);
  const bool ok_new = parse_sim_result(text, got);
  ASSERT_EQ(ok_new, ok_ref) << "payload:\n" << text;
  EXPECT_EQ(differences(got, want), "") << "payload:\n" << text;
  ++(ok_ref ? tally.accepted : tally.rejected);
}

void expect_same_entry_verdict(const std::string& bytes, Tally& tally) {
  reference::ParsedEntry want;
  StoreEntry got;
  const bool ok_ref = reference::parse_entry_fields(bytes, want);
  const bool ok_new = parse_store_entry(bytes, got);
  ASSERT_EQ(ok_new, ok_ref) << "entry:\n" << bytes;
  if (ok_ref) {
    EXPECT_EQ(got.v1, want.v1);
    EXPECT_EQ(got.key_text, want.key_text);
    EXPECT_EQ(got.payload, want.payload);
    EXPECT_EQ(differences(got.result, want.result), "") << "entry:\n" << bytes;
  }
  ++(ok_ref ? tally.accepted : tally.rejected);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol + 1 - pos));  // keeps its '\n'
    pos = eol + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l;
  return text;
}

/// The value forms a mutated field takes: the serializer's hexfloats and
/// decimals, with signs, spaces, overflow, subnormals, inf and nan.
const std::vector<std::string>& odd_values() {
  static const std::vector<std::string> values{
      "1.5", "-2.25", "1e3", "1E-3", ".5", "5.", "0", "-0", "007",
      "inf", "-inf", "+inf", "INF", "infinity", "Infinity", "nan", "-nan",
      "NaN", "nan(0x12)", "nan(", "1e400", "-1e400", "1e-400", "4.9e-324",
      "2.2250738585072011e-308", "0x1p+1024", "0x1p-1074", "0x1p-1080",
      "0x0.0000000000001p-1022", "0X1.8P+3", "0x.8p1", "0x1.p0", "0x1p",
      "0x1p+", "0x", "0xg", "-0x-1p+0", "0x1.fffffffffffff8p+0",
      "0x1.00000000000008p+0", "0x1.000000000000080001p+0",
      "0x1.0000000000000fffffffffp+0", "0x123456789abcdef0123p-70",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "99999999999999999999999", "0x10", "12abc",
      "1 2", "1\t", "1\r", "+", "-", "+-1", "-+1", "++1", " ", "\t",
      std::string("1\0" "5", 3), std::string("0x1p+0\0junk", 11)};
  return values;
}

/// The mutations of a value: each odd form, and the value itself with a
/// leading '+', spaces, a tab, a trailing space.
std::vector<std::string> value_mutations(const std::string& value) {
  std::vector<std::string> out = odd_values();
  for (const char* prefix : {"+", " ", "  ", "\t", "\v", "+ ", " +", "--"})
    out.push_back(prefix + value);
  out.push_back(value + " ");
  out.push_back(value + "0");
  return out;
}

/// Real results, as the store holds them: simulated cells whose doubles
/// are genuinely non-round, a central-queue run, and an enriched result
/// at the edges of every field's range.
std::vector<SimResult> real_results() {
  std::vector<SimResult> out;
  const auto gauss = GaussKernel::program(96);
  const auto tc = TransitiveClosureKernel::program(clique_graph(48, 20));
  for (const char* spec : {"AFS", "GSS"}) {
    MachineSim sim(iris());
    auto sched = make_scheduler(spec);
    out.push_back(sim.run(gauss, *sched, 4));
    auto again = make_scheduler(spec);
    out.push_back(sim.run(tc, *again, 3));
  }
  SimResult edge = out.front();
  edge.makespan = -0.0;
  edge.busy = std::numeric_limits<double>::denorm_min();
  edge.sync = std::numeric_limits<double>::max();
  edge.comm = std::numeric_limits<double>::min();
  edge.hits = std::numeric_limits<std::int64_t>::max();
  edge.misses = std::numeric_limits<std::int64_t>::min();
  edge.stall_time = 0x1.23456789abcdep-900;
  edge.trace_affinity_score = 0.7312;
  edge.trace_imbalance = 1.0 / 3.0;
  out.push_back(edge);
  return out;
}

std::string v1_entry(const std::string& key_text, const std::string& payload) {
  return "afs-store-v1\nkeybytes " + std::to_string(key_text.size()) + "\n" +
         key_text + payload;
}

std::string v2_entry(const std::string& key_text, const std::string& payload) {
  const std::string body =
      "keybytes " + std::to_string(key_text.size()) + "\n" + key_text + payload;
  char crc[24];
  std::snprintf(crc, sizeof crc, "crc32c %08x",
                reference::crc32c(body.data(), body.size()));
  return std::string("afs-store-v2\n") + crc + "\n" + body;
}

/// The mutants of `text`, a payload or an entry: line-level edits, value
/// edits on every `key value` line, q-line edits and random byte flips.
std::vector<std::string> mutants(const std::string& text, Xoshiro256& rng) {
  std::vector<std::string> out;
  const std::vector<std::string> lines = split_lines(text);
  for (std::size_t l = 0; l <= lines.size(); ++l) {
    // Truncation at every line: before it, and inside it just before its
    // newline.
    std::vector<std::string> head(lines.begin(),
                                  lines.begin() + static_cast<long>(l));
    out.push_back(join(head));
    if (l < lines.size() && lines[l].back() == '\n') {
      head.push_back(lines[l].substr(0, lines[l].size() - 1));
      out.push_back(join(head));
    }
    if (l == lines.size()) break;
    // Dropped and duplicated lines.
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + static_cast<long>(l));
    out.push_back(join(dropped));
    std::vector<std::string> doubled = lines;
    doubled.insert(doubled.begin() + static_cast<long>(l), lines[l]);
    out.push_back(join(doubled));

    // Field edits: every value form on `key value` lines; extra tokens
    // and odd integers on q lines.
    const std::string body =
        lines[l].back() == '\n' ? lines[l].substr(0, lines[l].size() - 1)
                                : lines[l];
    const std::size_t sp = body.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = body.substr(0, sp);
    const std::string value = body.substr(sp + 1);
    const auto with_line = [&](const std::string& replaced) {
      std::vector<std::string> edited = lines;
      edited[l] = replaced + (lines[l].back() == '\n' ? "\n" : "");
      out.push_back(join(edited));
    };
    if (key == "q") {
      for (const char* extra : {" 7", " x", "\t9 9", " -1", "  ", " 1.5"})
        with_line(body + extra);
      std::istringstream fields(value);
      std::vector<std::string> f;
      for (std::string w; fields >> w;) f.push_back(w);
      for (std::size_t k = 0; k < f.size(); ++k)
        for (const std::string& v : {std::string("+5"), std::string("-0"),
                                     std::string("5x"), std::string("x5"),
                                     std::string("99999999999999999999"),
                                     std::string("-9223372036854775808"),
                                     std::string("- 5"), std::string("+-5")}) {
          std::string edited = "q";
          for (std::size_t m = 0; m < f.size(); ++m)
            edited += " " + (m == k ? v : f[m]);
          with_line(edited);
        }
      with_line("q" + value);
      with_line("  q " + value);
      with_line("q\t" + value);
      with_line("Q " + value);
    } else {
      for (const std::string& v : value_mutations(value))
        with_line(key + " " + v);
      with_line(key + "  " + value);
      with_line(key + "\t" + value);
      with_line(key);
      with_line(key + " ");
    }
  }
  // Random byte flips: whole-byte replacements (NUL, whitespace, signs,
  // digits, letters) and single-bit flips.
  static constexpr std::array<char, 16> kBytes{'\0', ' ',  '\t', '\n', '\r',
                                               '+',  '-',  '.',  '0',  '9',
                                               'x',  'p',  'a',  'f',  'g',
                                               '\x80'};
  for (int k = 0; k < 300 && !text.empty(); ++k) {
    std::string flipped = text;
    const auto at = static_cast<std::size_t>(
        rng.next_in(0, static_cast<std::int64_t>(text.size()) - 1));
    if (k % 2 == 0)
      flipped[at] = kBytes[static_cast<std::size_t>(rng.next_in(0, 15))];
    else
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng.next_in(0, 7)));
    out.push_back(flipped);
  }
  return out;
}

TEST(EntryParse, PayloadMutationsGetTheReferenceVerdict) {
  Xoshiro256 rng(0x51ced);
  Tally tally;
  for (const SimResult& r : real_results()) {
    const std::string payload = serialize_sim_result(r);
    expect_same_payload_verdict(payload, tally);
    for (const std::string& m : mutants(payload, rng))
      expect_same_payload_verdict(m, tally);
  }
  // Both verdicts were exercised in earnest.
  EXPECT_GT(tally.accepted, 500);
  EXPECT_GT(tally.rejected, 500);
}

TEST(EntryParse, EntryMutationsGetTheReferenceVerdict) {
  const fs::path dir = fs::path(::testing::TempDir()) / "entry_parse";
  fs::remove_all(dir);
  ResultStore store(dir.string());
  Xoshiro256 rng(0xe27e1);
  Tally tally;
  int p = 1;
  for (const SimResult& r : real_results()) {
    const CellKey key = make_cell_key(iris(), GaussKernel::program(96).key,
                                      "AFS", p++, {});
    store.save(key, r);
    std::ifstream in(store.entry_path(key), std::ios::binary);
    std::ostringstream saved;
    saved << in.rdbuf();
    const std::string payload = serialize_sim_result(r);
    ASSERT_EQ(saved.str(), v2_entry(key.text, payload));

    const std::vector<std::string> payloads = mutants(payload, rng);
    for (const std::string& entry :
         {saved.str(), v1_entry(key.text, payload)}) {
      expect_same_entry_verdict(entry, tally);
      // Header and key edits, and flips anywhere (a v2 entry's checksum
      // then rejects payload flips).
      for (const std::string& m : mutants(entry, rng))
        expect_same_entry_verdict(m, tally);
    }
    // Payload mutants sealed with a valid checksum, so they reach the
    // payload parser through a v2 entry too.
    for (const std::string& m : payloads) {
      expect_same_entry_verdict(v2_entry(key.text, m), tally);
      expect_same_entry_verdict(v1_entry(key.text, m), tally);
    }
  }
  EXPECT_GT(tally.accepted, 500);
  EXPECT_GT(tally.rejected, 500);
  fs::remove_all(dir);
}

TEST(EntryParse, HexfloatsReadAsStrtodReadsThem) {
  // The fast path: random bit patterns, printed as the serializer prints
  // them and with long, rounded mantissas, read as strtod reads them.
  Xoshiro256 rng(0x4e7f);
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t bits = rng.next();
    const double v = std::bit_cast<double>(bits);
    char text[64];
    if (k % 2 == 0)
      std::snprintf(text, sizeof text, "%a", v);
    else
      std::snprintf(text, sizeof text, "%s0x%llx.%llxp%d",
                    bits >> 63 ? "-" : "",
                    static_cast<unsigned long long>(rng.next() >> 60),
                    static_cast<unsigned long long>(rng.next()),
                    static_cast<int>(rng.next_in(-1100, 1100)));
    const std::string payload = serialize_sim_result(SimResult{});
    std::string edited = payload;
    const std::size_t at = edited.find("makespan ") + 9;
    edited.replace(at, edited.find('\n', at) - at, text);
    Tally tally;
    expect_same_payload_verdict(edited, tally);
    ASSERT_EQ(tally.rejected, 0) << text;
  }
}

}  // namespace
}  // namespace afs
