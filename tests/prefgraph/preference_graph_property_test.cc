// Property test: the incremental-closure PreferenceGraph must agree with a
// brute-force reference (Floyd-Warshall over explicit relations) on random
// operation sequences, including equivalence merges and contradictions.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/bitset.h"
#include "common/random.h"
#include "prefgraph/preference_graph.h"

namespace crowdsky {
namespace {

/// Naive reference implementation: keeps the accepted facts and recomputes
/// the transitive closure from scratch with Floyd-Warshall on every query,
/// applying the same kFirstWins accept/reject rule as the real graph.
class ReferenceOrder {
 public:
  explicit ReferenceOrder(int n) : n_(n), cls_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) cls_[static_cast<size_t>(i)] = i;
  }

  bool Prefers(int u, int v) const {
    if (Equivalent(u, v)) return false;
    const std::vector<bool> reach = Closure();
    return reach[Index(Cls(u), Cls(v))];
  }
  bool Equivalent(int u, int v) const { return Cls(u) == Cls(v); }

  /// Bulk variant for the cross-check loop: one closure, all pairs.
  std::vector<bool> PrefersMatrix() const {
    const std::vector<bool> reach = Closure();
    std::vector<bool> out(static_cast<size_t>(n_) * static_cast<size_t>(n_),
                          false);
    for (int u = 0; u < n_; ++u) {
      for (int v = 0; v < n_; ++v) {
        if (u != v && !Equivalent(u, v)) {
          out[Index(u, v)] = reach[Index(Cls(u), Cls(v))];
        }
      }
    }
    return out;
  }

  void AddPreference(int u, int v) {
    if (Equivalent(u, v) || Prefers(v, u)) return;  // contradiction dropped
    strict_edges_.emplace_back(u, v);
  }

  void AddEquivalence(int u, int v) {
    if (Equivalent(u, v)) return;
    if (Prefers(u, v) || Prefers(v, u)) return;  // contradiction dropped
    const int keep = Cls(u);
    const int gone = Cls(v);
    for (int& c : cls_) {
      if (c == gone) c = keep;
    }
  }

 private:
  int Cls(int x) const { return cls_[static_cast<size_t>(x)]; }
  size_t Index(int a, int b) const {
    return static_cast<size_t>(a) * static_cast<size_t>(n_) +
           static_cast<size_t>(b);
  }
  std::vector<bool> Closure() const {
    std::vector<bool> reach(static_cast<size_t>(n_) *
                                static_cast<size_t>(n_),
                            false);
    for (const auto& [u, v] : strict_edges_) {
      reach[Index(Cls(u), Cls(v))] = true;
    }
    for (int k = 0; k < n_; ++k) {
      for (int i = 0; i < n_; ++i) {
        if (!reach[Index(i, k)]) continue;
        for (int j = 0; j < n_; ++j) {
          if (reach[Index(k, j)]) reach[Index(i, j)] = true;
        }
      }
    }
    return reach;
  }

  int n_;
  std::vector<std::pair<int, int>> strict_edges_;
  std::vector<int> cls_;
};

/// Applies `ops` random preference/equivalence operations over the node
/// ids in `ids` to a graph of n nodes and, every `check_every` operations,
/// cross-checks every pair against the reference: Prefers and Equivalent
/// directly (the desc_ rows), and AnyStrictlyPrefers with a singleton mask
/// (the anc_ rows). The reference runs on positions in `ids`; a pair with
/// a node outside `ids` must stay unrelated.
void CheckRandomOpsAgainstReference(int n, const std::vector<int>& ids,
                                    uint64_t seed, int ops, int check_every) {
  const int m = static_cast<int>(ids.size());
  std::vector<int> pos(static_cast<size_t>(n), -1);
  for (int i = 0; i < m; ++i) {
    pos[static_cast<size_t>(ids[static_cast<size_t>(i)])] = i;
  }
  Rng rng(seed);
  PreferenceGraph graph(n, ContradictionPolicy::kFirstWins);
  ReferenceOrder ref(m);
  DynamicBitset single(static_cast<size_t>(n));
  for (int op = 0; op < ops; ++op) {
    const int i = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    const int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)));
    if (i == j) continue;
    const int u = ids[static_cast<size_t>(i)];
    const int v = ids[static_cast<size_t>(j)];
    if (rng.Bernoulli(0.85)) {
      // Mirror the graph's accept/reject decision in the reference by
      // applying the same kFirstWins rule.
      ref.AddPreference(i, j);
      ASSERT_TRUE(graph.AddPreference(u, v).ok());
    } else {
      ref.AddEquivalence(i, j);
      ASSERT_TRUE(graph.AddEquivalence(u, v).ok());
    }
    // Full cross-check every few operations (it is O(m^3)).
    if (op % check_every == 0 || op == ops - 1) {
      const std::vector<bool> expected = ref.PrefersMatrix();
      for (int a = 0; a < n; ++a) {
        const int pa = pos[static_cast<size_t>(a)];
        single.Set(static_cast<size_t>(a));
        for (int b = 0; b < n; ++b) {
          if (a == b) continue;
          const int pb = pos[static_cast<size_t>(b)];
          const bool tracked = pa >= 0 && pb >= 0;
          const bool prefers =
              tracked &&
              expected[static_cast<size_t>(pa) * static_cast<size_t>(m) +
                       static_cast<size_t>(pb)];
          ASSERT_EQ(graph.Prefers(a, b), prefers)
              << "op " << op << " pair " << a << "," << b;
          ASSERT_EQ(graph.AnyStrictlyPrefers(single, b), prefers)
              << "op " << op << " pair " << a << "," << b;
          ASSERT_EQ(graph.Equivalent(a, b), tracked && ref.Equivalent(pa, pb))
              << "op " << op << " pair " << a << "," << b;
        }
        single.Reset(static_cast<size_t>(a));
      }
    }
  }
}

/// The node ids 0..n-1.
std::vector<int> AllIds(int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

class PrefGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefGraphPropertyTest, MatchesReferenceOnRandomOps) {
  CheckRandomOpsAgainstReference(/*n=*/24, AllIds(24), GetParam(),
                                 /*ops=*/250, /*check_every=*/10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefGraphPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// Closure rows that span several 64-bit words: n = 65 puts one node past
// the first word boundary, n = 130 spans three words.
class PrefGraphMultiWordTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PrefGraphMultiWordTest, MatchesReferenceOnRandomOps) {
  const auto [n, seed] = GetParam();
  CheckRandomOpsAgainstReference(n, AllIds(n), seed, /*ops=*/8 * n,
                                 /*check_every=*/n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PrefGraphMultiWordTest,
    ::testing::Combine(::testing::Values(65, 130),
                       ::testing::Range<uint64_t>(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& p) {
      std::string name = "n";
      name += std::to_string(std::get<0>(p.param));
      name += "_seed";
      name += std::to_string(std::get<1>(p.param));
      return name;
    });

// Sparse closure rows: at n = 640 (ten words) the ops draw ids from two
// 64-id blocks, words 1 and 7, so every row has zero words before, between
// and after its nonzero ones. The update must OR only the nonzero words,
// and merges must carry that through.
class PrefGraphSparseRowTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefGraphSparseRowTest, MatchesReferenceOnRandomOps) {
  std::vector<int> ids;
  for (int i = 64; i < 128; ++i) ids.push_back(i);
  for (int i = 448; i < 512; ++i) ids.push_back(i);
  CheckRandomOpsAgainstReference(/*n=*/640, ids, GetParam(), /*ops=*/1024,
                                 /*check_every=*/128);
}

INSTANTIATE_TEST_SUITE_P(TwoBlocks, PrefGraphSparseRowTest,
                         ::testing::Range<uint64_t>(1, 5));

TEST(PrefGraphPropertyTest, StrictOrderIsAlwaysAcyclic) {
  Rng rng(777);
  const int n = 40;
  PreferenceGraph g(n);
  for (int op = 0; op < 2000; ++op) {
    const int u = static_cast<int>(rng.NextBounded(n));
    const int v = static_cast<int>(rng.NextBounded(n));
    if (u == v) continue;
    ASSERT_TRUE(g.AddPreference(u, v).ok());
  }
  for (int a = 0; a < n; ++a) {
    EXPECT_FALSE(g.Prefers(a, a));
    for (int b = 0; b < n; ++b) {
      EXPECT_FALSE(g.Prefers(a, b) && g.Prefers(b, a));
    }
  }
}

TEST(PrefGraphPropertyTest, TotalOrderChainClosureComplete) {
  const int n = 128;
  PreferenceGraph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(g.AddPreference(i, i + 1).ok());
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      EXPECT_TRUE(g.Prefers(a, b));
      EXPECT_FALSE(g.Prefers(b, a));
    }
  }
}

TEST(PrefGraphPropertyTest, ReverseInsertionOrderChain) {
  // Insert edges from the tail of the chain backwards — exercises the
  // ancestor-side propagation of the closure update.
  const int n = 100;
  PreferenceGraph g(n);
  for (int i = n - 2; i >= 0; --i) {
    ASSERT_TRUE(g.AddPreference(i, i + 1).ok());
  }
  EXPECT_TRUE(g.Prefers(0, n - 1));
  EXPECT_TRUE(g.Prefers(25, 75));
}

}  // namespace
}  // namespace crowdsky
