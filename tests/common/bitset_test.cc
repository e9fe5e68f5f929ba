#include "common/bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"

namespace crowdsky {
namespace {

TEST(DynamicBitsetTest, EmptyBitset) {
  DynamicBitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.FindFirst(), 0u);
}

TEST(DynamicBitsetTest, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitsetTest, SetTo) {
  DynamicBitset b(10);
  b.SetTo(3, true);
  EXPECT_TRUE(b.Test(3));
  b.SetTo(3, false);
  EXPECT_FALSE(b.Test(3));
}

TEST(DynamicBitsetTest, SetAllRespectsPadding) {
  DynamicBitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  b.ClearAll();
  EXPECT_TRUE(b.None());
}

TEST(DynamicBitsetTest, ExactWordBoundary) {
  DynamicBitset b(64);
  b.SetAll();
  EXPECT_EQ(b.Count(), 64u);
  EXPECT_TRUE(b.Test(63));
}

TEST(DynamicBitsetTest, ResizeKeepsBitsAndClearsPadding) {
  DynamicBitset b(10);
  b.Set(3);
  b.Set(9);
  b.Resize(100);
  EXPECT_TRUE(b.Test(3));
  EXPECT_TRUE(b.Test(9));
  EXPECT_EQ(b.Count(), 2u);
  b.SetAll();
  b.Resize(65);
  EXPECT_EQ(b.Count(), 65u);
}

TEST(DynamicBitsetTest, OrWith) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  b.Set(100);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(100));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(DynamicBitsetTest, AndWith) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  a.AndWith(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(2));
}

TEST(DynamicBitsetTest, AndNotWith) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  a.AndNotWith(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(1));
}

TEST(DynamicBitsetTest, Intersects) {
  DynamicBitset a(200), b(200);
  a.Set(150);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(150);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(DynamicBitsetTest, IntersectionCount) {
  DynamicBitset a(256), b(256);
  for (size_t i = 0; i < 256; i += 2) a.Set(i);
  for (size_t i = 0; i < 256; i += 3) b.Set(i);
  size_t expected = 0;
  for (size_t i = 0; i < 256; i += 6) ++expected;
  EXPECT_EQ(a.IntersectionCount(b), expected);
}

TEST(DynamicBitsetTest, IsSubsetOf) {
  DynamicBitset a(100), b(100);
  a.Set(5);
  b.Set(5);
  b.Set(6);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  DynamicBitset empty(100);
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(DynamicBitsetTest, FindFirstAndNext) {
  DynamicBitset b(300);
  EXPECT_EQ(b.FindFirst(), 300u);
  b.Set(13);
  b.Set(64);
  b.Set(299);
  EXPECT_EQ(b.FindFirst(), 13u);
  EXPECT_EQ(b.FindNext(13), 13u);
  EXPECT_EQ(b.FindNext(14), 64u);
  EXPECT_EQ(b.FindNext(65), 299u);
  EXPECT_EQ(b.FindNext(300), 300u);
}

TEST(DynamicBitsetTest, ForEachSetBitInOrder) {
  DynamicBitset b(500);
  const std::set<size_t> expected = {0, 63, 64, 65, 127, 128, 400, 499};
  for (const size_t i : expected) b.Set(i);
  std::vector<size_t> seen;
  b.ForEachSetBit([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const size_t i : seen) EXPECT_TRUE(expected.count(i));
}

TEST(DynamicBitsetTest, ToVector) {
  DynamicBitset b(80);
  b.Set(2);
  b.Set(79);
  const std::vector<int> v = b.ToVector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[1], 79);
}

TEST(DynamicBitsetTest, Equality) {
  DynamicBitset a(64), b(64), c(65);
  a.Set(3);
  b.Set(3);
  EXPECT_TRUE(a == b);
  b.Set(4);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(DynamicBitsetTest, RandomizedAgainstStdSet) {
  Rng rng(99);
  const size_t kBits = 777;
  DynamicBitset b(kBits);
  std::set<size_t> reference;
  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<size_t>(rng.NextBounded(kBits));
    if (rng.Bernoulli(0.6)) {
      b.Set(i);
      reference.insert(i);
    } else {
      b.Reset(i);
      reference.erase(i);
    }
  }
  EXPECT_EQ(b.Count(), reference.size());
  for (size_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(b.Test(i), reference.count(i) > 0) << i;
  }
}

TEST(DynamicBitsetTest, RandomizedBulkOpsAgainstReference) {
  Rng rng(123);
  const size_t kBits = 321;
  for (int trial = 0; trial < 20; ++trial) {
    DynamicBitset a(kBits), b(kBits);
    std::set<size_t> ra, rb;
    for (int i = 0; i < 100; ++i) {
      const auto x = static_cast<size_t>(rng.NextBounded(kBits));
      const auto y = static_cast<size_t>(rng.NextBounded(kBits));
      a.Set(x);
      ra.insert(x);
      b.Set(y);
      rb.insert(y);
    }
    size_t inter = 0;
    for (const size_t x : ra) inter += rb.count(x);
    EXPECT_EQ(a.IntersectionCount(b), inter);
    EXPECT_EQ(a.Intersects(b), inter > 0);
    DynamicBitset u = a;
    u.OrWith(b);
    std::set<size_t> ru = ra;
    ru.insert(rb.begin(), rb.end());
    EXPECT_EQ(u.Count(), ru.size());
  }
}

TEST(DynamicBitsetTest, OrWithCountMatchesOrWithPlusCount) {
  Rng rng(77);
  const size_t kBits = 517;
  for (int trial = 0; trial < 10; ++trial) {
    DynamicBitset a(kBits), b(kBits);
    for (int i = 0; i < 120; ++i) {
      a.Set(static_cast<size_t>(rng.NextBounded(kBits)));
      b.Set(static_cast<size_t>(rng.NextBounded(kBits)));
    }
    DynamicBitset expected = a;
    expected.OrWith(b);
    DynamicBitset fused = a;
    const size_t count = fused.OrWithCount(b);
    EXPECT_EQ(count, expected.Count());
    for (size_t i = 0; i < kBits; ++i) {
      ASSERT_EQ(fused.Test(i), expected.Test(i)) << "bit " << i;
    }
  }
}

TEST(DynamicBitsetTest, AndNotCountMatchesSetDifference) {
  Rng rng(78);
  const size_t kBits = 200;
  for (int trial = 0; trial < 10; ++trial) {
    DynamicBitset a(kBits), b(kBits);
    std::set<size_t> ra, rb;
    for (int i = 0; i < 80; ++i) {
      const auto x = static_cast<size_t>(rng.NextBounded(kBits));
      const auto y = static_cast<size_t>(rng.NextBounded(kBits));
      a.Set(x);
      ra.insert(x);
      b.Set(y);
      rb.insert(y);
    }
    size_t diff = 0;
    for (const size_t x : ra) diff += 1 - rb.count(x);
    EXPECT_EQ(a.AndNotCount(b), diff);
    EXPECT_EQ(b.AndNotCount(b), 0u);
    EXPECT_EQ(a.AndNotCount(DynamicBitset(kBits)), a.Count());
  }
}

TEST(DynamicBitsetTest, WordSpanConstructor) {
  DynamicBitset src(130);
  src.Set(0);
  src.Set(64);
  src.Set(129);
  const DynamicBitset copy(130, src.words(), src.word_count());
  EXPECT_EQ(copy.Count(), 3u);
  EXPECT_TRUE(copy.Test(0));
  EXPECT_TRUE(copy.Test(64));
  EXPECT_TRUE(copy.Test(129));
  // A shorter target truncates and clears padding past `size`.
  const DynamicBitset narrow(65, src.words(), src.word_count());
  EXPECT_EQ(narrow.Count(), 2u);
  EXPECT_TRUE(narrow.Test(0));
  EXPECT_TRUE(narrow.Test(64));
  // Fewer source words than the target zero-fills the tail.
  const DynamicBitset padded(130, src.words(), 1);
  EXPECT_EQ(padded.Count(), 1u);
  EXPECT_TRUE(padded.Test(0));
  EXPECT_FALSE(padded.Test(64));
}

TEST(DynamicBitsetTest, MutableWordsWritesAreVisible) {
  DynamicBitset b(128);
  b.words()[1] = DynamicBitset::Word{1} << 5;
  EXPECT_TRUE(b.Test(64 + 5));
  EXPECT_EQ(b.Count(), 1u);
}

TEST(DynamicBitsetTest, SpanOverloadMatchesPointerConstructor) {
  DynamicBitset src(200);
  src.Set(3);
  src.Set(100);
  src.Set(199);
  const DynamicBitset via_span(
      200, std::span<const DynamicBitset::Word>(src.words(),
                                                src.word_count()));
  const DynamicBitset via_ptr(200, src.words(), src.word_count());
  EXPECT_EQ(via_span, via_ptr);
  EXPECT_EQ(via_span, src);
}

TEST(DynamicBitsetTest, AssignAndNotComputesDifferenceInOnePass) {
  DynamicBitset a(150);
  DynamicBitset b(150);
  for (size_t i = 0; i < 150; i += 3) a.Set(i);
  for (size_t i = 0; i < 150; i += 5) b.Set(i);
  DynamicBitset out(7);  // wrong size on purpose: must adopt a's size
  out.AssignAndNot(a, b);
  EXPECT_EQ(out.size(), 150u);
  for (size_t i = 0; i < 150; ++i) {
    EXPECT_EQ(out.Test(i), a.Test(i) && !b.Test(i)) << i;
  }
  DynamicBitset expected = a;
  expected.AndNotWith(b);
  EXPECT_EQ(out, expected);
}

TEST(DynamicBitsetTest, CountWordRangeMatchesManualSlices) {
  DynamicBitset b(64 * 9 + 17);
  for (size_t i = 0; i < b.size(); i += 7) b.Set(i);
  EXPECT_EQ(b.CountWordRange(0, b.word_count()), b.Count());
  EXPECT_EQ(b.CountWordRange(2, 2), 0u);
  size_t total = 0;
  for (size_t w = 0; w < b.word_count(); ++w) {
    total += b.CountWordRange(w, w + 1);
  }
  EXPECT_EQ(total, b.Count());
  // An interior slice counted manually.
  size_t expected = 0;
  for (size_t i = 64 * 3; i < 64 * 7; ++i) {
    if (b.Test(i)) ++expected;
  }
  EXPECT_EQ(b.CountWordRange(3, 7), expected);
}

TEST(DynamicBitsetTest, Transpose64x64MatchesNaiveBitTranspose) {
  DynamicBitset::Word w[64];
  DynamicBitset::Word orig[64];
  DynamicBitset::Word x = 0x9E3779B97F4A7C15ULL;  // xorshift-filled rows
  for (auto& row : w) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    row = x;
  }
  std::copy(std::begin(w), std::end(w), std::begin(orig));
  Transpose64x64(w);
  for (size_t r = 0; r < 64; ++r) {
    for (size_t c = 0; c < 64; ++c) {
      ASSERT_EQ((w[r] >> c) & 1u, (orig[c] >> r) & 1u)
          << "r=" << r << " c=" << c;
    }
  }
  // Involution: transposing again restores the original block.
  Transpose64x64(w);
  EXPECT_TRUE(std::equal(std::begin(w), std::end(w), std::begin(orig)));
}

// The word-sparse primitives behind the closure update must agree with
// the full-width OrWith / AndNotWith at every tail shape: n % 64 in
// {0, 1, 63}.
class WordSparseTest : public ::testing::TestWithParam<size_t> {};

DynamicBitset RandomBits(size_t n, double density, Rng& rng) {
  DynamicBitset b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) b.Set(i);
  }
  return b;
}

// Bits past size() in the last word are clear.
bool PaddingClear(const DynamicBitset& b) {
  const size_t rem = b.size() % DynamicBitset::kBitsPerWord;
  if (b.word_count() == 0 || rem == 0) return true;
  return (b.words()[b.word_count() - 1] >> rem) == 0;
}

std::vector<uint32_t> NonzeroWordsOf(const DynamicBitset& b) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < b.word_count(); ++i) {
    if (b.words()[i] != 0) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

// dst.OrWords(src, NonzeroWords(src)) must equal dst.OrWith(src).
void ExpectOrWordsMatchesOrWith(const DynamicBitset& dst,
                                const DynamicBitset& src) {
  std::vector<uint32_t> idx = {99};  // stale content must be cleared
  src.NonzeroWords(&idx);
  EXPECT_EQ(idx, NonzeroWordsOf(src));
  DynamicBitset sparse = dst;
  sparse.OrWords(src, idx);
  DynamicBitset full = dst;
  full.OrWith(src);
  EXPECT_EQ(sparse, full);
  EXPECT_TRUE(PaddingClear(sparse));
}

// a.ForEachSetBitAndNot(b, words) must visit exactly the bits of a & ~b,
// in order, both over a's nonzero words and over every word.
void ExpectAndNotBitsMatchAndNotWith(const DynamicBitset& a,
                                     const DynamicBitset& b) {
  DynamicBitset diff = a;
  diff.AndNotWith(b);
  std::vector<uint32_t> all_words(a.word_count());
  for (size_t i = 0; i < all_words.size(); ++i) {
    all_words[i] = static_cast<uint32_t>(i);
  }
  for (const std::vector<uint32_t>& words : {NonzeroWordsOf(a), all_words}) {
    std::vector<int> visited;
    a.ForEachSetBitAndNot(b, words, [&visited](size_t i) {
      visited.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(visited, diff.ToVector());
    for (const int i : visited) EXPECT_LT(static_cast<size_t>(i), a.size());
  }
}

TEST_P(WordSparseTest, RandomRowsMatchFullWidthOps) {
  const size_t n = GetParam();
  Rng rng(1000 + n);
  for (const double density : {0.01, 0.1, 0.5}) {
    const DynamicBitset dst = RandomBits(n, 0.2, rng);
    const DynamicBitset src = RandomBits(n, density, rng);
    ExpectOrWordsMatchesOrWith(dst, src);
    ExpectAndNotBitsMatchAndNotWith(src, dst);
    ExpectAndNotBitsMatchAndNotWith(dst, src);
  }
}

TEST_P(WordSparseTest, AllZeroSource) {
  const size_t n = GetParam();
  Rng rng(2000 + n);
  const DynamicBitset zero(n);
  const DynamicBitset dst = RandomBits(n, 0.3, rng);
  std::vector<uint32_t> idx;
  zero.NonzeroWords(&idx);
  EXPECT_TRUE(idx.empty());
  ExpectOrWordsMatchesOrWith(dst, zero);
  ExpectAndNotBitsMatchAndNotWith(zero, dst);
  ExpectAndNotBitsMatchAndNotWith(dst, zero);
}

TEST_P(WordSparseTest, OnlyLastWordNonzero) {
  const size_t n = GetParam();
  Rng rng(3000 + n);
  DynamicBitset src(n);
  src.Set(n - 1);
  if (n % DynamicBitset::kBitsPerWord != 1) {
    src.Set(n - 2);
  }
  std::vector<uint32_t> idx;
  src.NonzeroWords(&idx);
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx[0], src.word_count() - 1);
  const DynamicBitset dst = RandomBits(n, 0.3, rng);
  ExpectOrWordsMatchesOrWith(dst, src);
  ExpectOrWordsMatchesOrWith(DynamicBitset(n), src);
  ExpectAndNotBitsMatchAndNotWith(src, dst);
  ExpectAndNotBitsMatchAndNotWith(src, DynamicBitset(n));
}

TEST_P(WordSparseTest, FullSourceKeepsPaddingClear) {
  const size_t n = GetParam();
  DynamicBitset src(n);
  src.SetAll();
  DynamicBitset dst(n);
  ExpectOrWordsMatchesOrWith(dst, src);
  dst.OrWords(src, NonzeroWordsOf(src));
  EXPECT_EQ(dst.Count(), n);
  EXPECT_TRUE(PaddingClear(dst));
  ExpectAndNotBitsMatchAndNotWith(src, DynamicBitset(n));
}

INSTANTIATE_TEST_SUITE_P(TailShapes, WordSparseTest,
                         ::testing::Values(64, 65, 127, 192, 193, 255),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           std::string name = "n";
                           name += std::to_string(p.param);
                           return name;
                         });

TEST(DynamicBitsetTest, ToVectorIntoBufferReplacesContent) {
  DynamicBitset b(130);
  b.Set(3);
  b.Set(129);
  std::vector<int> out = {7, 8, 9};
  b.ToVector(&out);
  EXPECT_EQ(out, (std::vector<int>{3, 129}));
  EXPECT_EQ(out, b.ToVector());
}

TEST(DynamicBitsetTest, FindFirstAndMatchesMaterializedIntersection) {
  Rng rng(23);
  for (const size_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
    for (int trial = 0; trial < 20; ++trial) {
      DynamicBitset a(n);
      DynamicBitset b(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.1)) a.Set(i);
        if (rng.Bernoulli(0.1)) b.Set(i);
      }
      DynamicBitset both = a;
      both.AndWith(b);
      EXPECT_EQ(a.FindFirstAnd(b), both.FindFirst()) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace crowdsky
