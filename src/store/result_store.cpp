#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "runtime/sweep_runner.hpp"  // the payload format and its readers
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/hash.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

constexpr const char* kStoreSchema = "afs-store-v2";
constexpr const char* kStoreSchemaV1 = "afs-store-v1";

/// The checksummed body of an entry: everything after the crc32c line.
std::string entry_body(std::string_view key_text, std::string_view payload) {
  std::string body = "keybytes " + std::to_string(key_text.size()) + '\n';
  body += key_text;
  body += payload;
  return body;
}

std::string crc_line(const std::string& body) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "crc32c %08x", crc32c(body));
  return buf;
}

std::string entry_content(const CellKey& key, const SimResult& r) {
  const std::string body = entry_body(key.text, serialize_sim_result(r));
  std::ostringstream os;
  os << kStoreSchema << '\n' << crc_line(body) << '\n' << body;
  return os.str();
}

/// Reads an 8-character checksum field as strtoull(…, 16) reads a
/// NUL-terminated copy, as the entry format always has.
bool parse_crc(std::string_view hex, std::uint32_t& crc) {
  if (hex.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char c : hex) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                  : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                         : -1;
    if (d < 0) {
      const std::string copy(hex);
      char* end = nullptr;
      const unsigned long long want = std::strtoull(copy.c_str(), &end, 16);
      crc = static_cast<std::uint32_t>(want);
      return end == copy.c_str() + 8;
    }
    v = v << 4 | static_cast<std::uint32_t>(d);
  }
  crc = v;
  return true;
}

/// Parses an entry and authenticates it against `key`. Any malformation —
/// wrong schema, bad checksum, short file, key mismatch (collision or
/// corruption), unparseable payload — is a miss.
bool parse_entry(std::string_view bytes, const CellKey& key, SimResult& out) {
  StoreEntry e;
  if (!parse_store_entry(bytes, e) || e.key_text != key.text) return false;
  out = std::move(e.result);
  return true;
}

/// Reads the whole open file `fd` into `bytes`: one fstat, then reads
/// until its size or end of file. False on an I/O error.
bool read_whole(int fd, std::string& bytes) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return false;
  bytes.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);
  return true;
}

struct EntryInfo {
  fs::path path;
  std::int64_t bytes = 0;
  fs::file_time_type mtime;
};

constexpr const char* kQuarantineDir = "quarantine";

std::vector<EntryInfo> list_entries(const std::string& root) {
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    // Quarantined files are evidence, not entries: invisible to scan/gc.
    if (it->is_directory(ec) && it->path().filename() == kQuarantineDir) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() != ".cell") continue;  // skips stray .tmp.* files
    EntryInfo e;
    e.path = p;
    e.bytes = static_cast<std::int64_t>(it->file_size(ec));
    if (ec) continue;
    e.mtime = it->last_write_time(ec);
    if (ec) continue;
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

bool parse_store_entry(std::string_view bytes, StoreEntry& out) {
  std::size_t pos = bytes.find('\n');
  if (pos == std::string_view::npos) return false;
  const std::string_view schema = bytes.substr(0, pos);
  const bool v2 = schema == kStoreSchema;
  if (!v2 && schema != kStoreSchemaV1) return false;
  out.v1 = !v2;
  ++pos;

  if (v2) {
    // crc32c <8 hex> over everything after this line.
    const std::size_t eol = bytes.find('\n', pos);
    if (eol == std::string_view::npos) return false;
    const std::string_view line = bytes.substr(pos, eol - pos);
    constexpr std::string_view kCrc = "crc32c ";
    std::uint32_t want = 0;
    if (!line.starts_with(kCrc) || !parse_crc(line.substr(kCrc.size()), want))
      return false;
    pos = eol + 1;
    if (crc32c(bytes.substr(pos)) != want) return false;
  }

  const std::size_t eol = bytes.find('\n', pos);
  if (eol == std::string_view::npos) return false;
  const std::string_view header = bytes.substr(pos, eol - pos);
  constexpr std::string_view kKeyBytes = "keybytes ";
  std::int64_t n = 0;
  if (!header.starts_with(kKeyBytes) ||
      !parse_decimal(header.substr(kKeyBytes.size()), n) || n < 0)
    return false;
  pos = eol + 1;

  if (bytes.size() - pos < static_cast<std::uint64_t>(n)) return false;
  out.key_text = bytes.substr(pos, static_cast<std::size_t>(n));
  out.payload = bytes.substr(pos + static_cast<std::size_t>(n));
  return parse_sim_result(out.payload, out.result);
}

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {
  AFS_CHECK_MSG(!root_.empty(), "ResultStore root must not be empty");
}

std::string ResultStore::entry_path(const CellKey& key) const {
  const std::string hex = hex64(key.hash);
  return root_ + "/" + hex.substr(0, 2) + "/" + hex + ".cell";
}

bool ResultStore::load(const CellKey& key, SimResult& out) {
  if (key.cacheable) {
    const std::string path = entry_path(key);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      // One read into one buffer, checked and parsed in place.
      std::string bytes;
      const bool hit = read_whole(fd, bytes) && parse_entry(bytes, key, out);
      if (hit) {
        // LRU signal for gc(): a served entry is a recently-used entry.
        const timespec now[2] = {{0, UTIME_OMIT}, {0, UTIME_NOW}};
        ::futimens(fd, now);
      }
      ::close(fd);
      if (hit) {
        hits_.fetch_add(1);
        return true;
      }
      // A file that exists but does not authenticate is corruption (or a
      // hash collision's foreign key — equally unusable at this address):
      // move it aside so it stops failing every future lookup, keep the
      // bytes for post-mortems. Closed above so the rename is clean.
      quarantine_entry(path);
    }
  }
  misses_.fetch_add(1);
  return false;
}

void ResultStore::quarantine_entry(const std::string& path) {
  std::error_code ec;
  const fs::path dir = fs::path(root_) / kQuarantineDir;
  fs::create_directories(dir, ec);
  if (!ec) {
    // Same uniqueness scheme as the write path: (pid, tid, counter) makes
    // concurrent quarantines of the same entry land on distinct names,
    // and the ".bad" extension keeps them out of scan()/gc().
    const std::string dest =
        (dir / fs::path(path).stem()).string() +
        unique_tmp_path("").substr(4) + ".bad";  // strip the ".tmp" prefix
    fs::rename(path, dest, ec);
    if (!ec) {
      quarantined_.fetch_add(1);
      return;
    }
  }
  // Could not move it (or make the directory): removing the corrupt file
  // still stops the repeated parse failures. A concurrent quarantine
  // winning the rename race lands here with ENOENT — then the other
  // process already took the evidence and there is nothing to count.
  if (fs::remove(path, ec)) quarantined_.fetch_add(1);
}

void ResultStore::save(const CellKey& key, const SimResult& r) {
  if (!key.cacheable) return;
  const std::string path = entry_path(key);
  const fs::path target(path);
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);

  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    AFS_CHECK_MSG(outf.good(), "cannot open store temp file " << tmp);
    outf << entry_content(key, r);
    outf.flush();
    AFS_CHECK_MSG(outf.good(), "cannot write store temp file " << tmp);
  }
  commit_file_atomic(tmp, path);
  writes_.fetch_add(1);
}

bool StoreView::load(const CellKey& key, SimResult& out) {
  {
    std::scoped_lock lock(mu_);
    const auto it = missed_.find(key.hash);
    if (it != missed_.end()) {
      // Missed when probed: the run skips the lookup the probe already
      // made, once.
      if (!probing_) missed_.erase(it);
      return false;
    }
  }
  if (store_.load(key, out)) {
    hits_.fetch_add(1);
    return true;
  }
  misses_.fetch_add(1);
  if (probing_) {
    std::scoped_lock lock(mu_);
    missed_.insert(key.hash);
  }
  return false;
}

void StoreView::save(const CellKey& key, const SimResult& r) {
  store_.save(key, r);
  if (key.cacheable) writes_.fetch_add(1);
}

double ResultStore::hit_rate() const {
  const double h = static_cast<double>(hits_.load());
  const double m = static_cast<double>(misses_.load());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

StoreStats ResultStore::scan() const {
  StoreStats stats;
  for (const EntryInfo& e : list_entries(root_)) {
    ++stats.entries;
    stats.bytes += e.bytes;
  }
  std::error_code ec;
  for (fs::directory_iterator it(fs::path(root_) / kQuarantineDir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) ++stats.quarantined;
  }
  return stats;
}

GcOutcome ResultStore::gc(const GcOptions& opts) const {
  std::vector<EntryInfo> entries = list_entries(root_);

  GcOutcome out;
  out.scanned = static_cast<std::int64_t>(entries.size());
  for (const EntryInfo& e : entries) out.bytes_before += e.bytes;
  out.bytes_after = out.bytes_before;

  auto evict = [&](const EntryInfo& e) {
    std::error_code ec;
    if (fs::remove(e.path, ec)) {
      ++out.evicted;
      out.bytes_after -= e.bytes;
    }
  };

  // Age pass: anything untouched for longer than the bound goes.
  std::vector<EntryInfo> survivors;
  if (opts.max_age_days > 0.0) {
    const auto cutoff =
        fs::file_time_type::clock::now() -
        std::chrono::duration_cast<fs::file_time_type::duration>(
            std::chrono::duration<double>(opts.max_age_days * 86400.0));
    for (const EntryInfo& e : entries) {
      if (e.mtime < cutoff)
        evict(e);
      else
        survivors.push_back(e);
    }
  } else {
    survivors = std::move(entries);
  }

  // Size pass: least-recently-used first until under the byte bound.
  if (opts.max_bytes >= 0 && out.bytes_after > opts.max_bytes) {
    std::sort(survivors.begin(), survivors.end(),
              [](const EntryInfo& a, const EntryInfo& b) {
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.path < b.path;
              });
    for (const EntryInfo& e : survivors) {
      if (out.bytes_after <= opts.max_bytes) break;
      evict(e);
    }
  }
  return out;
}

ScrubOutcome ResultStore::verify() {
  ScrubOutcome out;
  const auto now = fs::file_time_type::clock::now();
  // Grace period for temp files: a writer mid-commit holds its temp for
  // milliseconds; anything a minute old was orphaned by a kill.
  const auto tmp_cutoff = now - std::chrono::minutes(1);
  // Clock-skew slack before an mtime counts as "in the future".
  const auto future_cutoff = now + std::chrono::minutes(5);

  std::error_code ec;
  std::vector<fs::path> entries, tmps;
  for (fs::recursive_directory_iterator it(root_, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory(ec) && it->path().filename() == kQuarantineDir) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".cell")
      entries.push_back(p);
    else if (p.filename().string().find(".tmp.") != std::string::npos)
      tmps.push_back(p);
  }

  for (const fs::path& p : tmps) {
    const auto mtime = fs::last_write_time(p, ec);
    if (ec || mtime >= tmp_cutoff) continue;
    if (fs::remove(p, ec)) ++out.tmp_removed;
  }

  for (const fs::path& p : entries) {
    ++out.scanned;
    std::string content;
    {
      std::ifstream in(p, std::ios::binary);
      if (!in) continue;  // vanished under us (concurrent gc): not corrupt
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }

    // Self-validation plus the address check the filename encodes: an
    // entry whose embedded key hashes elsewhere can never be served from
    // this path — it is corruption (or a misplaced copy), not data.
    StoreEntry e;
    const bool fields_ok = parse_store_entry(content, e);
    const bool address_ok =
        fields_ok && p.stem().string() == hex64(fnv1a64(e.key_text));
    if (!fields_ok || !address_ok) {
      quarantine_entry(p.string());
      ++out.corrupt;
      continue;
    }

    if (e.v1) {
      // Clean legacy entry: rewrite with a checksum so the whole store
      // converges to v2 without invalidating anything. Same atomic
      // protocol as save(); the rewrite refreshes mtime, which is fair —
      // the scrub just touched it.
      const std::string body = entry_body(e.key_text, e.payload);
      const std::string tmp = unique_tmp_path(p.string());
      {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf.good()) continue;
        outf << kStoreSchema << '\n' << crc_line(body) << '\n' << body;
        outf.flush();
        if (!outf.good()) continue;
      }
      commit_file_atomic(tmp, p.string());
      ++out.upgraded;
    } else {
      const auto mtime = fs::last_write_time(p, ec);
      if (!ec && mtime > future_cutoff) {
        // A future-dated entry would survive every age pass and sort
        // last in the LRU — clamp it so gc() ordering means something.
        fs::last_write_time(p, now, ec);
        if (!ec) ++out.mtime_repaired;
      }
    }
    ++out.ok;
  }
  return out;
}

}  // namespace afs
