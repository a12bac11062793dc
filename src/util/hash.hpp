// Stable 64-bit content hashing (FNV-1a) shared by everything that needs
// a deterministic, platform-independent digest: content-addressed
// result-store keys, graph content keys, retry-schedule seeds.
//
// FNV-1a is not cryptographic; collisions are handled by the consumers
// (the result store records the full key text in every entry and compares
// it on lookup, the sweep manifest stores the identity it was written
// with), so the hash only has to be stable across runs, compilers and
// machines — which a fixed-width integer recurrence is.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace afs {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte string; `h` chains multi-field hashes.
inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t h = kFnvOffsetBasis) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over a raw byte buffer (e.g. a graph adjacency matrix). A zero
/// byte only multiplies by the prime, so eight zero bytes multiply by its
/// eighth power: a sparse buffer hashes its zero words in one step each,
/// to the same value.
inline std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                                   std::uint64_t h = kFnvOffsetBasis) {
  constexpr std::uint64_t kPrime2 = kFnvPrime * kFnvPrime;
  constexpr std::uint64_t kPrime8 = kPrime2 * kPrime2 * kPrime2 * kPrime2;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::size_t k = 0;
  for (; k + 8 <= size; k += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + k, sizeof word);
    if (word == 0) {
      h *= kPrime8;
      continue;
    }
    for (std::size_t b = k; b < k + 8; ++b) {
      h ^= p[b];
      h *= kFnvPrime;
    }
  }
  for (; k < size; ++k) {
    h ^= p[k];
    h *= kFnvPrime;
  }
  return h;
}

/// Fixed-width lowercase hex rendering (16 digits).
inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Canonical double rendering for key/identity text: hexfloat, which is an
/// exact bijection on the value (no rounding, no locale), so two builds
/// that compute the same double always produce the same key bytes.
inline std::string key_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace afs
