// CRC32C (Castagnoli): the checksum the result store's entry format
// carries. Pinned against the published RFC 3720 test vectors so the
// on-disk format can never silently drift — a store written by one build
// must verify under every other — and against the bitwise definition at
// every length and alignment the sliced loop distinguishes.
#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace afs {
namespace {

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(crc32c(""), 0u); }

TEST(Crc32c, Rfc3720CheckValue) {
  // The classic CRC "check" input.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, Rfc3720IscsiVectors) {
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  std::vector<std::uint8_t> incrementing(32);
  for (std::size_t i = 0; i < incrementing.size(); ++i)
    incrementing[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(incrementing.data(), incrementing.size()), 0x46DD794Eu);
}

TEST(Crc32c, SingleBitFlipChangesTheSum) {
  std::string payload = "afs-store payload with some entropy 12345";
  const std::uint32_t clean = crc32c(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::string flipped = payload;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(crc32c(flipped), clean) << "bit flip at byte " << i;
  }
}

/// The definition, one bit at a time: the oracle for the sliced tables.
std::uint32_t bitwise_crc32c(const std::uint8_t* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32c, EveryLengthAndAlignmentMatchesTheBitwiseDefinition) {
  // Eight bytes per step plus a bytewise tail: every length from 0 to
  // 257 — each tail length, several whole steps — at every start offset
  // within a word.
  std::vector<std::uint8_t> buf(8 + 257);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 257; ++n)
      ASSERT_EQ(crc32c(buf.data() + offset, n),
                bitwise_crc32c(buf.data() + offset, n))
          << "offset " << offset << " length " << n;
}

TEST(Crc32c, StringViewAndBufferOverloadsAgree) {
  const std::string s = "overload agreement";
  EXPECT_EQ(crc32c(s), crc32c(s.data(), s.size()));
}

}  // namespace
}  // namespace afs
