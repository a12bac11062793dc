// Content-addressed, on-disk store of simulation results.
//
// The experiment grid — (kernel, machine, scheduler, P, perturbation,
// seed) — is enormous but each cell is a pure function of its CellKey, so
// a cell simulated once never needs to be simulated again: the store maps
// key hash -> serialized SimResult, shared by every driver run against the
// same root directory.
//
// Layout:   <root>/<hh>/<16-hex-hash>.cell   (hh = first hash byte, so a
// million entries spread over 256 directories instead of one).
//
// Entry format (text, schema afs-store-v2):
//     afs-store-v2
//     crc32c <8 hex digits>          (checksum of everything below it)
//     keybytes <N>
//     <N bytes: the full CellKey::text>
//     <serialize_sim_result() output, schema afs-cell-v1>
//
// v1 entries (same layout without the crc32c line) are still readable;
// verify() rewrites them with a checksum in place, so a scrub migrates an
// old store without a flag day.
//
// Trust model: the hash only locates the entry; the embedded key text is
// what authenticates it, and the CRC32C line detects payload corruption
// (a flipped bit in a stored number still parses — only the checksum
// catches it). load() re-reads the full key and re-checks the crc, so a
// hash collision, a truncated write the atomic protocol somehow missed,
// bit rot, or hand-edited garbage all degrade to a miss — the cell is
// recomputed and the entry overwritten. The store can make a run slower,
// never wrong.
//
// Concurrency: load and save are safe from many threads and many
// processes. Writes go through a per-writer unique temp file plus the
// atomic rename protocol (util/atomic_file), so concurrent writers of the
// same key publish whole entries in some order; since the content is a
// deterministic function of the key, whichever write lands last is
// byte-identical to the others.
//
// Invalidation is implicit: any change to an input changes the key text
// and therefore the address — bumping kEngineVersion orphans exactly the
// entries computed by the old engine. Orphans are reclaimed by gc()
// (age- or size-bounded LRU on entry mtime; load() touches mtime on hit).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "sim/sim_result.hpp"
#include "store/cell_key.hpp"

namespace afs {

/// Where a cell looks its result up and publishes it: the store itself,
/// or one daemon request's view of it (StoreView).
class CellStore {
 public:
  virtual ~CellStore() = default;
  /// True and fills `out` when a valid entry for `key` exists.
  virtual bool load(const CellKey& key, SimResult& out) = 0;
  /// Publishes `r` under `key`; a no-op for uncacheable keys.
  virtual void save(const CellKey& key, const SimResult& r) = 0;
  /// True while lookups only probe: a cell whose lookup misses stops
  /// there instead of simulating (load_or_simulate).
  virtual bool probing() const { return false; }
};

struct StoreStats {
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
  /// Files under <root>/quarantine/ — corrupt entries moved aside by
  /// load() for post-mortems instead of being re-parsed (and re-failed)
  /// on every lookup.
  std::int64_t quarantined = 0;
};

struct GcOptions {
  /// Evict entries whose mtime is older than this many days. 0 = no age
  /// bound.
  double max_age_days = 0.0;
  /// After the age pass, evict least-recently-used entries until the store
  /// holds at most this many bytes. Negative = no size bound.
  std::int64_t max_bytes = -1;
};

struct GcOutcome {
  std::int64_t scanned = 0;  ///< entries examined
  std::int64_t evicted = 0;  ///< entries removed
  std::int64_t bytes_before = 0;
  std::int64_t bytes_after = 0;
};

/// What a verify() scrub found and did. `corrupt` entries were moved to
/// <root>/quarantine/; everything else was left valid on disk.
struct ScrubOutcome {
  std::int64_t scanned = 0;         ///< entries examined
  std::int64_t ok = 0;              ///< entries that verified clean
  std::int64_t corrupt = 0;         ///< quarantined (bad crc/key/payload)
  std::int64_t upgraded = 0;        ///< v1 entries rewritten as v2
  std::int64_t tmp_removed = 0;     ///< orphaned temp files deleted
  std::int64_t mtime_repaired = 0;  ///< future-dated mtimes clamped to now

  bool clean() const { return corrupt == 0; }
};

/// An entry's fields, checked against themselves: schema, checksum (v2),
/// keybytes framing and payload. The views point into the entry's bytes.
/// Whether the entry answers a lookup — its key text — is the caller's
/// check.
struct StoreEntry {
  bool v1 = false;            ///< legacy entry without a checksum
  std::string_view key_text;  ///< the embedded CellKey::text
  std::string_view payload;   ///< the serialized SimResult
  SimResult result;           ///< payload, parsed
};

/// Parses an entry's bytes in one pass; false on any malformation.
bool parse_store_entry(std::string_view bytes, StoreEntry& out);

class ResultStore final : public CellStore {
 public:
  /// Opens (and lazily creates) the store rooted at `root`.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// True and fills `out` when a valid entry for `key` exists. Counts a
  /// hit or a miss; refreshes the entry's mtime on a hit (LRU signal).
  /// Uncacheable keys count as misses without touching the disk.
  ///
  /// An entry that exists but fails to authenticate or parse (torn bytes,
  /// hand-edited garbage, a hash collision's foreign key) is *quarantined*:
  /// moved to <root>/quarantine/ under a unique name (tmp-style suffix +
  /// rename, so concurrent quarantines of the same entry never collide)
  /// and counted. The lookup degrades to a miss either way — quarantine
  /// just preserves the evidence and stops the corrupt file from being
  /// re-parsed on every lookup.
  bool load(const CellKey& key, SimResult& out) override;

  /// Publishes `r` under `key` (atomic rename; overwrites any previous
  /// entry). No-op for uncacheable keys.
  void save(const CellKey& key, const SimResult& r) override;

  /// Absolute path the entry for `key` lives at.
  std::string entry_path(const CellKey& key) const;

  // Process-lifetime lookup counters (thread-safe).
  std::int64_t hits() const { return hits_.load(); }
  std::int64_t misses() const { return misses_.load(); }
  std::int64_t writes() const { return writes_.load(); }
  /// Corrupt entries moved to <root>/quarantine/ by this process.
  std::int64_t quarantined() const { return quarantined_.load(); }
  /// hits / (hits + misses); 0 when no lookups were made.
  double hit_rate() const;

  /// Walks the store: entry count and total bytes.
  StoreStats scan() const;

  /// Evicts by age, then by LRU size bound. See GcOptions.
  GcOutcome gc(const GcOptions& opts) const;

  /// Scrubs the whole store (`afs_sweep cache verify`): every entry is
  /// read and checked — crc (v2), filename-vs-embedded-key address, and
  /// payload parse — with corrupt entries quarantined exactly as load()
  /// would have done on first touch. Clean v1 entries are rewritten as
  /// checksummed v2 entries in place (atomic rename). LRU metadata is
  /// repaired on the way: orphaned `.tmp.` files older than a minute are
  /// removed, and entries whose mtime lies in the future (clock skew,
  /// restored backups) are clamped to now so gc()'s age/LRU ordering
  /// stays meaningful. Safe to run concurrently with readers; run it
  /// while writers are quiescent (an in-flight write's temp file younger
  /// than the grace period is left alone).
  ScrubOutcome verify();

 private:
  /// Moves the corrupt entry at `path` into <root>/quarantine/ (or, if the
  /// quarantine directory cannot be created, removes it) and counts it.
  void quarantine_entry(const std::string& path);

  std::string root_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> writes_{0};
  std::atomic<std::int64_t> quarantined_{0};
};

/// One daemon request's view of the shared store. It counts the lookups
/// and writes the request's own cells make — so the deltas of all
/// requests sum to the store's counters — and it lets the daemon answer
/// store hits at admission: while probing, running a cell's closure
/// either serves the cell from the store or stops at the miss, before
/// anything simulates. A probed miss is remembered, and the cell's next
/// lookup (when it runs for real) is skipped instead of repeated, so
/// each cell is looked up once.
class StoreView final : public CellStore {
 public:
  explicit StoreView(ResultStore& store) : store_(store) {}

  bool load(const CellKey& key, SimResult& out) override;
  void save(const CellKey& key, const SimResult& r) override;
  bool probing() const override { return probing_; }

  void set_probing(bool on) { probing_ = on; }

  std::int64_t hits() const { return hits_.load(); }
  std::int64_t misses() const { return misses_.load(); }
  std::int64_t writes() const { return writes_.load(); }

 private:
  ResultStore& store_;
  bool probing_ = false;  // set only before the request's cells run
  std::mutex mu_;         // guards missed_
  std::unordered_set<std::uint64_t> missed_;  // probed misses, by hash
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> writes_{0};
};

}  // namespace afs
