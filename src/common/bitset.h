// DynamicBitset: a run-time sized bitset with the bulk operations needed by
// the dominance machinery (dominatee masks, transitive-closure rows).
//
// std::vector<bool> lacks word-level access and std::bitset is fixed-size;
// the skyline and preference-graph code needs fast AND/OR/ANDNOT, popcount,
// intersection tests and set-bit iteration over ~10^4-bit sets, so we keep
// our own minimal implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"

namespace crowdsky {

/// \brief Run-time sized bitset with word-parallel bulk operations.
class DynamicBitset {
 public:
  using Word = uint64_t;
  static constexpr size_t kBitsPerWord = 64;

  DynamicBitset() = default;
  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(size_t size)
      : size_(size), words_((size + kBitsPerWord - 1) / kBitsPerWord, 0) {}

  /// Constructs a bitset of `size` bits directly from a word span (e.g. a
  /// row of a packed parallel fill buffer), avoiding the zero-fill +
  /// per-bit Set round trip. Missing words are treated as zero; bits past
  /// `size` in the last word are cleared.
  DynamicBitset(size_t size, const Word* word_data, size_t num_words)
      : size_(size), words_((size + kBitsPerWord - 1) / kBitsPerWord, 0) {
    const size_t copy = num_words < words_.size() ? num_words : words_.size();
    std::copy(word_data, word_data + copy, words_.begin());
    ClearPadding();
  }

  /// Span form of the word constructor, for fill paths that already hold
  /// their packed rows as spans.
  DynamicBitset(size_t size, std::span<const Word> words)
      : DynamicBitset(size, words.data(), words.size()) {}

  /// Number of bits.
  size_t size() const { return size_; }
  /// Number of backing 64-bit words.
  size_t word_count() const { return words_.size(); }

  /// Resizes to `size` bits; newly added bits are clear.
  void Resize(size_t size) {
    size_ = size;
    words_.resize((size + kBitsPerWord - 1) / kBitsPerWord, 0);
    ClearPadding();
  }

  void Set(size_t i) {
    CROWDSKY_DCHECK(i < size_);
    words_[i / kBitsPerWord] |= Word{1} << (i % kBitsPerWord);
  }
  void Reset(size_t i) {
    CROWDSKY_DCHECK(i < size_);
    words_[i / kBitsPerWord] &= ~(Word{1} << (i % kBitsPerWord));
  }
  void SetTo(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }
  bool Test(size_t i) const {
    CROWDSKY_DCHECK(i < size_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }

  /// Clears all bits.
  void ClearAll() {
    for (auto& w : words_) w = 0;
  }
  /// Sets all bits.
  void SetAll() {
    for (auto& w : words_) w = ~Word{0};
    ClearPadding();
  }

  /// Number of set bits.
  size_t Count() const { return CountWordRange(0, words_.size()); }

  /// Popcount over the word range [first_word, end_word) — the block
  /// form used by fill paths and closure code that track partial sizes
  /// without touching the whole row.
  size_t CountWordRange(size_t first_word, size_t end_word) const {
    CROWDSKY_DCHECK(first_word <= end_word && end_word <= words_.size());
    // Four independent accumulators: popcount has multi-cycle latency, so
    // a single serial chain stalls; splitting the dependency keeps the
    // ALUs fed (the same unroll pattern all Count* loops below use).
    size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    size_t i = first_word;
    for (; i + 4 <= end_word; i += 4) {
      n0 += static_cast<size_t>(__builtin_popcountll(words_[i]));
      n1 += static_cast<size_t>(__builtin_popcountll(words_[i + 1]));
      n2 += static_cast<size_t>(__builtin_popcountll(words_[i + 2]));
      n3 += static_cast<size_t>(__builtin_popcountll(words_[i + 3]));
    }
    for (; i < end_word; ++i) {
      n0 += static_cast<size_t>(__builtin_popcountll(words_[i]));
    }
    return n0 + n1 + n2 + n3;
  }
  /// True iff no bit is set.
  bool None() const {
    for (Word w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  bool Any() const { return !None(); }

  /// this |= other. Sizes must match.
  void OrWith(const DynamicBitset& other) {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }
  /// this &= other.
  void AndWith(const DynamicBitset& other) {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }
  /// this &= ~other.
  void AndNotWith(const DynamicBitset& other) {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// this = a & ~b in one pass (no copy-then-AndNotWith round trip).
  /// Adopts a's size.
  void AssignAndNot(const DynamicBitset& a, const DynamicBitset& b) {
    CROWDSKY_DCHECK(a.size_ == b.size_);
    size_ = a.size_;
    words_.resize(a.words_.size());
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] = a.words_[i] & ~b.words_[i];
    }
  }

  /// Writes the indices of the nonzero words into `out` (cleared first), in
  /// increasing order. Gathered once when one source row is ORed into many
  /// rows, so each OrWords touches only the words that can change.
  void NonzeroWords(std::vector<uint32_t>* out) const {
    out->clear();
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != 0) out->push_back(static_cast<uint32_t>(i));
    }
  }

  /// this |= src on the listed words only. Equals OrWith(src) whenever
  /// `word_idx` covers every nonzero word of src (see NonzeroWords).
  void OrWords(const DynamicBitset& src, std::span<const uint32_t> word_idx) {
    CROWDSKY_DCHECK(size_ == src.size_);
    for (const uint32_t i : word_idx) {
      CROWDSKY_DCHECK(i < words_.size());
      words_[i] |= src.words_[i];
    }
  }

  /// this |= other, returning the popcount of the result from the same
  /// word loop — fuses OrWith + Count for transitive-closure updates that
  /// need the new set size.
  size_t OrWithCount(const DynamicBitset& other) {
    CROWDSKY_DCHECK(size_ == other.size_);
    size_t n = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      const Word w = words_[i] | other.words_[i];
      words_[i] = w;
      n += static_cast<size_t>(__builtin_popcountll(w));
    }
    return n;
  }

  /// popcount(this & ~other) without materializing the difference.
  size_t AndNotCount(const DynamicBitset& other) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    size_t n0 = 0, n1 = 0;
    size_t i = 0;
    for (; i + 2 <= words_.size(); i += 2) {
      n0 += static_cast<size_t>(
          __builtin_popcountll(words_[i] & ~other.words_[i]));
      n1 += static_cast<size_t>(
          __builtin_popcountll(words_[i + 1] & ~other.words_[i + 1]));
    }
    for (; i < words_.size(); ++i) {
      n0 += static_cast<size_t>(
          __builtin_popcountll(words_[i] & ~other.words_[i]));
    }
    return n0 + n1;
  }

  /// True iff (this & other) has at least one set bit.
  bool Intersects(const DynamicBitset& other) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }

  /// popcount(this & other) without materializing the intersection.
  size_t IntersectionCount(const DynamicBitset& other) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    size_t n0 = 0, n1 = 0;
    size_t i = 0;
    for (; i + 2 <= words_.size(); i += 2) {
      n0 += static_cast<size_t>(
          __builtin_popcountll(words_[i] & other.words_[i]));
      n1 += static_cast<size_t>(
          __builtin_popcountll(words_[i + 1] & other.words_[i + 1]));
    }
    for (; i < words_.size(); ++i) {
      n0 += static_cast<size_t>(
          __builtin_popcountll(words_[i] & other.words_[i]));
    }
    return n0 + n1;
  }

  /// True iff every set bit of this is also set in other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~other.words_[i]) return false;
    }
    return true;
  }

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Index of the lowest set bit, or size() if none.
  size_t FindFirst() const { return FindNext(0); }

  /// Index of the lowest set bit >= from, or size() if none.
  size_t FindNext(size_t from) const {
    if (from >= size_) return size_;
    size_t wi = from / kBitsPerWord;
    Word w = words_[wi] & (~Word{0} << (from % kBitsPerWord));
    while (true) {
      if (w != 0) {
        return wi * kBitsPerWord +
               static_cast<size_t>(__builtin_ctzll(w));
      }
      if (++wi >= words_.size()) return size_;
      w = words_[wi];
    }
  }

  /// Index of the lowest bit set in both this and other, or size() if
  /// none — FindFirst of the intersection without materializing it.
  size_t FindFirstAnd(const DynamicBitset& other) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      const Word w = words_[wi] & other.words_[wi];
      if (w != 0) {
        return wi * kBitsPerWord + static_cast<size_t>(__builtin_ctzll(w));
      }
    }
    return size_;
  }

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      Word w = words_[wi];
      while (w != 0) {
        const auto bit = static_cast<size_t>(__builtin_ctzll(w));
        fn(wi * kBitsPerWord + bit);
        w &= w - 1;
      }
    }
  }

  /// Calls fn(index) for every set bit of this & ~other within the listed
  /// words, in list order, without materializing the difference. Visits
  /// every set bit of this & ~other whenever `word_idx` covers every
  /// nonzero word of this (see NonzeroWords); `other` is read only there.
  template <typename Fn>
  void ForEachSetBitAndNot(const DynamicBitset& other,
                           std::span<const uint32_t> word_idx,
                           Fn&& fn) const {
    CROWDSKY_DCHECK(size_ == other.size_);
    for (const uint32_t wi : word_idx) {
      CROWDSKY_DCHECK(wi < words_.size());
      Word w = words_[wi] & ~other.words_[wi];
      while (w != 0) {
        const auto bit = static_cast<size_t>(__builtin_ctzll(w));
        fn(wi * kBitsPerWord + bit);
        w &= w - 1;
      }
    }
  }

  /// Collects set-bit indices into a vector<int> (ids in this codebase are
  /// ints).
  std::vector<int> ToVector() const {
    std::vector<int> out;
    ToVector(&out);
    return out;
  }
  /// Buffer-reusing form of ToVector(): `out` is cleared first, and keeps
  /// its capacity across calls.
  void ToVector(std::vector<int>* out) const {
    out->clear();
    out->reserve(Count());
    ForEachSetBit([out](size_t i) { out->push_back(static_cast<int>(i)); });
  }

  /// Direct word access (read-only), for fused custom loops.
  const Word* words() const { return words_.data(); }
  /// Mutable word access for bulk fill paths (e.g. the parallel dominance
  /// transpose) that write whole words. Callers must keep padding bits
  /// past size() clear.
  Word* words() { return words_.data(); }

 private:
  // Bits beyond size_ in the last word must stay clear so Count()/None()
  // remain exact.
  void ClearPadding() {
    const size_t rem = size_ % kBitsPerWord;
    if (!words_.empty() && rem != 0) {
      words_.back() &= (Word{1} << rem) - 1;
    }
  }

  size_t size_ = 0;
  std::vector<Word> words_;
};

/// In-place transpose of a 64x64 bit matrix held as 64 words, where
/// `w[r]` is row r and bit c of it is column c. After the call,
/// bit c of w[r] equals the old bit r of w[c]. This is the recursive
/// block-swap scheme (swap the off-diagonal 32x32 halves, then 16x16
/// inside each half, ...): 6 rounds of masked shift-XOR instead of 4096
/// single-bit moves, which is what makes word-blocked bit-matrix
/// transposes (e.g. the dominance transpose) cheap.
inline void Transpose64x64(DynamicBitset::Word w[64]) {
  using Word = DynamicBitset::Word;
  Word m = 0x00000000FFFFFFFFULL;
  for (size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const Word t = ((w[k] >> j) ^ w[k + j]) & m;
      w[k] ^= t << j;
      w[k + j] ^= t;
    }
  }
}

}  // namespace crowdsky
