#include "algo/crowd_knowledge.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace crowdsky {
namespace {

TEST(CrowdKnowledgeTest, SingleAttributeRelations) {
  CrowdKnowledge k(4, 1);
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kUnknown);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kPrefers);
  EXPECT_EQ(k.Relation(1, 0), AcRelation::kPreferredBy);
  EXPECT_TRUE(k.WeaklyPrefers(0, 1));
  EXPECT_FALSE(k.WeaklyPrefers(1, 0));
}

TEST(CrowdKnowledgeTest, EqualAnswer) {
  CrowdKnowledge k(4, 1);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kEqual).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kEqual);
  EXPECT_TRUE(k.WeaklyPrefers(0, 1));
  EXPECT_TRUE(k.WeaklyPrefers(1, 0));
}

TEST(CrowdKnowledgeTest, SecondPreferredOrientation) {
  CrowdKnowledge k(4, 1);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kSecondPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kPreferredBy);
}

TEST(CrowdKnowledgeTest, TransitivityAcrossRecords) {
  CrowdKnowledge k(5, 1);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  ASSERT_TRUE(k.Record(0, 1, 2, Answer::kFirstPreferred).ok());
  EXPECT_EQ(k.Relation(0, 2), AcRelation::kPrefers);
}

TEST(CrowdKnowledgeTest, MultiAttributeCombination) {
  CrowdKnowledge k(4, 2);
  // attr 0: 0 < 1; attr 1 unknown -> combined unknown.
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kUnknown);
  // attr 1: 0 < 1 as well -> combined strict preference.
  ASSERT_TRUE(k.Record(1, 0, 1, Answer::kFirstPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kPrefers);
}

TEST(CrowdKnowledgeTest, MultiAttributeIncomparable) {
  CrowdKnowledge k(4, 2);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  ASSERT_TRUE(k.Record(1, 0, 1, Answer::kSecondPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kIncomparable);
  EXPECT_FALSE(k.WeaklyPrefers(0, 1));
  EXPECT_FALSE(k.WeaklyPrefers(1, 0));
}

TEST(CrowdKnowledgeTest, IncomparableIsDefiniteEvenWithUnknownAttr) {
  CrowdKnowledge k(4, 3);
  // One strict each way decides incomparability regardless of attr 2.
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  ASSERT_TRUE(k.Record(1, 0, 1, Answer::kSecondPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kIncomparable);
}

TEST(CrowdKnowledgeTest, EqualPlusStrictIsStrict) {
  CrowdKnowledge k(4, 2);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kEqual).ok());
  ASSERT_TRUE(k.Record(1, 0, 1, Answer::kFirstPreferred).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kPrefers);
}

TEST(CrowdKnowledgeTest, AllEqualIsEqual) {
  CrowdKnowledge k(4, 2);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kEqual).ok());
  ASSERT_TRUE(k.Record(1, 0, 1, Answer::kEqual).ok());
  EXPECT_EQ(k.Relation(0, 1), AcRelation::kEqual);
}

TEST(CrowdKnowledgeTest, PrunedFromAcSkylineSingleAttr) {
  CrowdKnowledge k(5, 1);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  DynamicBitset mask(5);
  std::vector<int> members = {0, 1, 3};
  for (const int m : members) mask.Set(static_cast<size_t>(m));
  EXPECT_TRUE(k.PrunedFromAcSkyline(mask, members, 1));   // 0 < 1
  EXPECT_FALSE(k.PrunedFromAcSkyline(mask, members, 0));
  EXPECT_FALSE(k.PrunedFromAcSkyline(mask, members, 3));  // unrelated
}

TEST(CrowdKnowledgeTest, EqualGroupKeepsSmallestId) {
  CrowdKnowledge k(5, 1);
  ASSERT_TRUE(k.Record(0, 1, 3, Answer::kEqual).ok());
  DynamicBitset mask(5);
  std::vector<int> members = {1, 3};
  mask.Set(1);
  mask.Set(3);
  EXPECT_FALSE(k.PrunedFromAcSkyline(mask, members, 1));
  EXPECT_TRUE(k.PrunedFromAcSkyline(mask, members, 3));
}

TEST(CrowdKnowledgeTest, EqualGroupKeepsSmallestIdMultiAttr) {
  CrowdKnowledge k(5, 2);
  ASSERT_TRUE(k.Record(0, 1, 3, Answer::kEqual).ok());
  ASSERT_TRUE(k.Record(1, 1, 3, Answer::kEqual).ok());
  DynamicBitset mask(5);
  std::vector<int> members = {1, 3};
  mask.Set(1);
  mask.Set(3);
  EXPECT_FALSE(k.PrunedFromAcSkyline(mask, members, 1));
  EXPECT_TRUE(k.PrunedFromAcSkyline(mask, members, 3));
}

TEST(CrowdKnowledgeTest, ContradictionCountAggregates) {
  CrowdKnowledge k(4, 2, ContradictionPolicy::kFirstWins);
  ASSERT_TRUE(k.Record(0, 0, 1, Answer::kFirstPreferred).ok());
  ASSERT_TRUE(k.Record(0, 1, 0, Answer::kFirstPreferred).ok());  // conflict
  ASSERT_TRUE(k.Record(1, 2, 3, Answer::kFirstPreferred).ok());
  ASSERT_TRUE(k.Record(1, 2, 3, Answer::kEqual).ok());  // conflict
  EXPECT_EQ(k.contradiction_count(), 2);
}

// Differential check of PrunedFromAcSkyline at |AC| = 1 against its
// pairwise definition: u is pruned iff some other member is strictly
// preferred over u, or equal to u with a smaller id. Random graphs are
// built with or without equivalence answers, so both the no-merge
// shortcut and the equal-group path are exercised.
void CheckPrunedMatchesPairwise(double equal_share, uint64_t seed) {
  const int n = 48;
  Rng rng(seed);
  CrowdKnowledge k(n, 1);
  const PreferenceGraph& g = k.graph(0);
  for (int op = 0; op < 4 * n; ++op) {
    const int u = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (u == v) continue;
    const Answer answer = rng.Bernoulli(equal_share) ? Answer::kEqual
                          : rng.Bernoulli(0.5)       ? Answer::kFirstPreferred
                                                     : Answer::kSecondPreferred;
    ASSERT_TRUE(k.Record(0, u, v, answer).ok());
    if (op % 16 != 0) continue;
    DynamicBitset mask(n);
    for (int t = 0; t < n; ++t) {
      if (rng.Bernoulli(0.4)) mask.Set(static_cast<size_t>(t));
    }
    const std::vector<int> members = mask.ToVector();
    for (const int m : members) {
      bool expected = false;
      for (const int s : members) {
        if (s == m) continue;
        if (g.Prefers(s, m) || (g.Equivalent(s, m) && s < m)) {
          expected = true;
        }
      }
      ASSERT_EQ(k.PrunedFromAcSkyline(mask, members, m), expected)
          << "seed " << seed << " op " << op << " member " << m;
    }
  }
  if (equal_share == 0.0) {
    EXPECT_EQ(g.merge_count(), 0);
  } else {
    EXPECT_GT(g.merge_count(), 0);
  }
}

TEST(CrowdKnowledgeTest, PrunedFromAcSkylineMatchesPairwiseWithoutMerges) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CheckPrunedMatchesPairwise(/*equal_share=*/0.0, seed);
  }
}

TEST(CrowdKnowledgeTest, PrunedFromAcSkylineMatchesPairwiseWithMerges) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CheckPrunedMatchesPairwise(/*equal_share=*/0.2, seed);
  }
}

// ReduceToAcSkyline against the per-member P2 loop it replaces: test each
// member of the *shrinking* set in ascending id order and drop it when some
// other remaining member s has s <_AC u, or s =_AC u with s < u. The graphs
// are random answer streams under kFirstWins, so rejected contradictions
// are part of every DAG.
DynamicBitset PerMemberReduction(const CrowdKnowledge& k, DynamicBitset ds) {
  for (const int u : ds.ToVector()) {
    for (const int s : ds.ToVector()) {
      if (s == u) continue;
      const AcRelation r = k.Relation(s, u);
      if (r == AcRelation::kPrefers || (r == AcRelation::kEqual && s < u)) {
        ds.Reset(static_cast<size_t>(u));
        break;
      }
    }
  }
  return ds;
}

// The sets every check runs: empty, each singleton of a few ids, full, and
// random densities.
std::vector<DynamicBitset> ReductionInputs(int n, Rng* rng) {
  const auto un = static_cast<size_t>(n);
  std::vector<DynamicBitset> sets;
  sets.emplace_back(un);
  for (const int id : {0, n / 2, n - 1}) {
    DynamicBitset single(un);
    single.Set(static_cast<size_t>(id));
    sets.push_back(single);
  }
  DynamicBitset full(un);
  full.SetAll();
  sets.push_back(full);
  for (const double density : {0.05, 0.3, 0.8}) {
    DynamicBitset mask(un);
    for (size_t t = 0; t < un; ++t) {
      if (rng->Bernoulli(density)) mask.Set(t);
    }
    sets.push_back(mask);
  }
  return sets;
}

// Feeds `ops` random answers on every attribute and checks the reduction
// after every 8th one.
void CheckReductionMatchesPerMember(int n, int attrs, double equal_share,
                                    int ops, uint64_t seed) {
  Rng rng(seed);
  CrowdKnowledge k(n, attrs);
  std::vector<int> scratch;
  for (int op = 0; op < ops; ++op) {
    for (int attr = 0; attr < attrs; ++attr) {
      const int u = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
      const int v = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
      if (u == v) continue;
      const Answer answer = rng.Bernoulli(equal_share) ? Answer::kEqual
                            : rng.Bernoulli(0.5) ? Answer::kFirstPreferred
                                                 : Answer::kSecondPreferred;
      ASSERT_TRUE(k.Record(attr, u, v, answer).ok());
    }
    if (op % 8 != 0 && op != ops - 1) continue;
    for (const DynamicBitset& input : ReductionInputs(n, &rng)) {
      DynamicBitset got = input;
      k.ReduceToAcSkyline(&got, &scratch);
      ASSERT_EQ(got, PerMemberReduction(k, input))
          << "n " << n << " attrs " << attrs << " seed " << seed << " op "
          << op << " |ds| " << input.Count();
    }
  }
}

TEST(CrowdKnowledgeTest, ReduceToAcSkylineMatchesPerMemberOnRandomDags) {
  // Word boundaries: n % 64 in {0, 1, 63}, plus tiny graphs.
  for (const int n : {1, 2, 7, 63, 64, 65, 129}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      CheckReductionMatchesPerMember(n, /*attrs=*/1, /*equal_share=*/0.0,
                                     /*ops=*/3 * n, seed);
    }
  }
}

TEST(CrowdKnowledgeTest, ReduceToAcSkylineFastPathKeepsExactlyTheMaximal) {
  // The definition the climb relies on: with one attribute and no merges
  // the result is the members with no ancestor in the input set. Long
  // answer streams also cover rejected contradictions.
  const int n = 96;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    CrowdKnowledge k(n, 1);
    for (int op = 0; op < 6 * n; ++op) {
      const int u = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
      const int v = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
      if (u != v) {
        ASSERT_TRUE(k.Record(0, u, v, rng.Bernoulli(0.5)
                                          ? Answer::kFirstPreferred
                                          : Answer::kSecondPreferred)
                        .ok());
      }
    }
    ASSERT_GT(k.contradiction_count(), 0) << seed;
    ASSERT_EQ(k.graph(0).merge_count(), 0);
    std::vector<int> scratch;
    for (const DynamicBitset& input : ReductionInputs(n, &rng)) {
      DynamicBitset expected(static_cast<size_t>(n));
      input.ForEachSetBit([&](size_t u) {
        if (!k.graph(0).AnyStrictlyPrefers(input, static_cast<int>(u))) {
          expected.Set(u);
        }
      });
      DynamicBitset got = input;
      k.ReduceToAcSkyline(&got, &scratch);
      EXPECT_EQ(got, expected) << "seed " << seed;
    }
  }
}

TEST(CrowdKnowledgeTest, ReduceToAcSkylineGeneralPathWithMerges) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    CheckReductionMatchesPerMember(65, /*attrs=*/1, /*equal_share=*/0.2,
                                   /*ops=*/150, seed);
  }
  CrowdKnowledge k(4, 1);
  ASSERT_TRUE(k.Record(0, 2, 1, Answer::kEqual).ok());
  ASSERT_TRUE(k.Record(0, 1, 3, Answer::kFirstPreferred).ok());
  DynamicBitset ds(4);
  ds.Set(1);
  ds.Set(2);
  ds.Set(3);
  std::vector<int> scratch;
  k.ReduceToAcSkyline(&ds, &scratch);
  EXPECT_EQ(ds.ToVector(), std::vector<int>{1});  // smaller id of {1, 2}
}

TEST(CrowdKnowledgeTest, ReduceToAcSkylineGeneralPathTwoAttributes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    CheckReductionMatchesPerMember(65, /*attrs=*/2, /*equal_share=*/0.1,
                                   /*ops=*/200, seed);
  }
}

}  // namespace
}  // namespace crowdsky
