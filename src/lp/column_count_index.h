// Index of the active columns of an LU elimination by entry count, for the
// Markowitz pivot search in basis.cpp. For every count below kMaxCount it
// keeps how many columns have that count and an index-ordered bitset of
// which, so the few sparsest columns are read off directly instead of by a
// scan over every column at every elimination step.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace etransform::lp::detail {

class ColumnCountIndex {
 public:
  /// Columns with this many entries or more are not indexed.
  static constexpr int kMaxCount = 16;

  /// Empties the index for columns 0..columns-1 (keeps its capacity).
  void reset(int columns) {
    words_ = (columns + kWordBits - 1) / kWordBits;
    hist_.fill(0);
    bits_.assign(static_cast<std::size_t>(kMaxCount) *
                     static_cast<std::size_t>(words_),
                 0);
  }

  /// Records that `column` has `count` entries. Pair every insert with an
  /// erase of the same (column, count) before the count changes.
  void insert(int column, int count) {
    if (count >= kMaxCount) return;
    ++hist_[static_cast<std::size_t>(count)];
    word(column, count) |= bit(column);
  }

  void erase(int column, int count) {
    if (count >= kMaxCount) return;
    --hist_[static_cast<std::size_t>(count)];
    word(column, count) &= ~bit(column);
  }

  /// Writes to `out` the min(k, active) columns with the smallest
  /// (count, column) pairs, in that order, and returns how many it wrote.
  /// `active` is the number of columns inserted, counting those with
  /// unindexed counts. Returns -1 when the answer would need an unindexed
  /// column: the caller must then scan.
  int smallest(int k, int active, int* out) const {
    // Threshold count t: fewer than k columns have a smaller count.
    int below = 0;
    int t = 0;
    while (t < kMaxCount && below + hist_[static_cast<std::size_t>(t)] < k) {
      below += hist_[static_cast<std::size_t>(t++)];
    }
    if (t == kMaxCount && below != active) return -1;
    // Buckets 0..t in ascending count, each read in column order.
    int n = 0;
    for (int c = 0; c <= t && c < kMaxCount && n < k; ++c) {
      int left = hist_[static_cast<std::size_t>(c)];
      const std::uint64_t* bits =
          bits_.data() + static_cast<std::size_t>(c) *
                             static_cast<std::size_t>(words_);
      for (int w = 0; w < words_ && left > 0 && n < k; ++w) {
        for (std::uint64_t v = bits[w]; v != 0 && n < k; v &= v - 1) {
          out[n++] = w * kWordBits + std::countr_zero(v);
          --left;
        }
      }
    }
    return n;
  }

 private:
  static constexpr int kWordBits = 64;

  static std::uint64_t bit(int column) {
    return std::uint64_t{1} << (column % kWordBits);
  }
  std::uint64_t& word(int column, int count) {
    return bits_[static_cast<std::size_t>(count) *
                     static_cast<std::size_t>(words_) +
                 static_cast<std::size_t>(column / kWordBits)];
  }

  int words_ = 0;
  std::array<int, kMaxCount> hist_{};
  std::vector<std::uint64_t> bits_;  // bitset c spans words [c*words_, (c+1)*words_)
};

}  // namespace etransform::lp::detail
