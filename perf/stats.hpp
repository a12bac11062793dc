// Small helpers shared by afs_perf: clocks, order statistics,
// SHA-256, whole-file reads and seeded draws.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace perf {

/// Monotonic wall clock in seconds (std::chrono::steady_clock).
double now_s();

/// Linear-interpolated quantile (q in [0,1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// First quartile, median, third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) gives them,
/// which is how the benchmark's run-to-run spread is judged. A single
/// value is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> v);

/// Lowercase hex SHA-256 of `data`.
std::string sha256_hex(std::string_view data);

/// Whole file contents; false when the file cannot be read.
bool read_file(const std::string& path, std::string& out);

/// Flushes the filesystem holding `dir` (syncfs), so writeback left over
/// from earlier set-up or cleanup does not land inside a measurement.
void settle_disk(const std::string& dir);

/// Uniform integer in [lo, hi] from the generator everything the benchmark
/// derives from --seed is drawn from.
std::int64_t uniform(afs::SplitMix64& rng, std::int64_t lo, std::int64_t hi);

}  // namespace perf
