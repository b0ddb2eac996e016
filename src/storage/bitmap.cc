#include "storage/bitmap.h"


namespace swole {

void PositionalBitmap::PackBytes(int64_t start, const uint8_t* cmp,
                                 int64_t len) {
  SWOLE_DCHECK_GE(start, 0);
  SWOLE_DCHECK_LE(start + len, num_bits_);
  int64_t i = 0;
  // Word-aligned fast path: build each 64-bit word from 64 bytes.
  if ((start & 63) == 0) {
    for (; i + 64 <= len; i += 64) {
      uint64_t word = 0;
      for (int b = 0; b < 64; ++b) {
        word |= static_cast<uint64_t>(cmp[i + b] & 1) << b;
      }
      words_[(start + i) >> 6] = word;
    }
  }
  for (; i < len; ++i) SetTo(start + i, cmp[i] != 0);
}

int64_t PositionalBitmap::CountSetBits() const {
  int64_t count = 0;
  for (uint64_t word : words_) count += bit_util::PopCount(word);
  return count;
}

void PositionalBitmap::And(const PositionalBitmap& other) {
  SWOLE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void PositionalBitmap::Or(const PositionalBitmap& other) {
  SWOLE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

}  // namespace swole
