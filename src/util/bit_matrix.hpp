// Row-major bit matrix: 64 entries per word, each row padded to whole
// words so rows can be combined a word at a time (the transitive-closure
// trace ORs whole rows; see kernels/transitive_closure.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace afs {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::int64_t rows, std::int64_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        bits_(static_cast<std::size_t>(rows * words_per_row_), 0) {
    AFS_CHECK(rows >= 0 && cols >= 0);
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  bool test(std::int64_t r, std::int64_t c) const {
    AFS_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return (bits_[index(r, c)] >> (c % 64)) & 1U;
  }
  void set(std::int64_t r, std::int64_t c) {
    AFS_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    bits_[index(r, c)] |= std::uint64_t{1} << (c % 64);
  }

  /// How many bits of row r are set in columns [b, e).
  std::int64_t count(std::int64_t r, std::int64_t b, std::int64_t e) const {
    AFS_DCHECK(r >= 0 && r < rows_ && 0 <= b && b <= e && e <= cols_);
    std::int64_t n = 0;
    for (std::int64_t c = b; c < e;) {
      // The bits of one word from column c up to e or the word's end.
      const std::int64_t end = std::min(e, (c / 64 + 1) * 64);
      const int width = static_cast<int>(end - c);
      std::uint64_t bits = bits_[index(r, c)] >> (c % 64);
      if (width < 64) bits &= (std::uint64_t{1} << width) - 1;
      n += std::popcount(bits);
      c = end;
    }
    return n;
  }

  /// Row r's words; bits past cols() are always zero.
  std::span<std::uint64_t> row(std::int64_t r) {
    AFS_DCHECK(r >= 0 && r < rows_);
    return {bits_.data() + r * words_per_row_,
            static_cast<std::size_t>(words_per_row_)};
  }

 private:
  std::size_t index(std::int64_t r, std::int64_t c) const {
    return static_cast<std::size_t>(r * words_per_row_ + c / 64);
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace afs
