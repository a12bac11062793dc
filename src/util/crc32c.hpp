// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
// the checksum iSCSI and ext4 use, chosen here for the result store's
// per-entry payload checksums because its error-detection properties for
// short-to-medium payloads are much stronger than CRC32's and it has a
// well-known test-vector suite (RFC 3720 appendix B.4) to pin the
// implementation against.
//
// Software, table-driven, eight bytes per step (slicing-by-8), in portable
// C++ with no ISA-specific instructions: zero dependencies and bit-exact
// stability across platforms. Speed matters on the read side: every store
// hit checks its entry (~1 KiB) with no fsync or other I/O wait to hide
// behind, and a warm pass makes a thousand such hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace afs {

/// CRC32C of `data` (standard form: init 0xFFFFFFFF, final xor-out).
/// crc32c("") == 0; crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(const void* data, std::size_t size);

inline std::uint32_t crc32c(std::string_view s) {
  return crc32c(s.data(), s.size());
}

}  // namespace afs
