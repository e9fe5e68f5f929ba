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

}  // namespace
}  // namespace crowdsky
