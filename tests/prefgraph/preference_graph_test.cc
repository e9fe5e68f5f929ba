#include "prefgraph/preference_graph.h"

#include <gtest/gtest.h>

#include <vector>

namespace crowdsky {
namespace {

TEST(PreferenceGraphTest, EmptyGraphKnowsNothing) {
  PreferenceGraph g(5);
  EXPECT_EQ(g.size(), 5);
  for (int u = 0; u < 5; ++u) {
    for (int v = 0; v < 5; ++v) {
      if (u == v) continue;
      EXPECT_FALSE(g.Prefers(u, v));
      EXPECT_FALSE(g.Equivalent(u, v));
      EXPECT_FALSE(g.Comparable(u, v));
    }
  }
}

TEST(PreferenceGraphTest, DirectEdge) {
  PreferenceGraph g(3);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  EXPECT_TRUE(g.Prefers(0, 1));
  EXPECT_FALSE(g.Prefers(1, 0));
  EXPECT_TRUE(g.WeaklyPrefers(0, 1));
  EXPECT_TRUE(g.Comparable(0, 1));
  EXPECT_FALSE(g.Comparable(0, 2));
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(PreferenceGraphTest, TransitivityThroughChain) {
  PreferenceGraph g(5);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  ASSERT_TRUE(g.AddPreference(2, 3).ok());
  EXPECT_TRUE(g.Prefers(0, 3));
  EXPECT_TRUE(g.Prefers(0, 2));
  EXPECT_TRUE(g.Prefers(1, 3));
  EXPECT_FALSE(g.Prefers(3, 0));
  EXPECT_FALSE(g.Comparable(0, 4));
}

TEST(PreferenceGraphTest, ImpliedEdgeIsNotCountedTwice) {
  PreferenceGraph g(3);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  ASSERT_TRUE(g.AddPreference(0, 2).ok());  // already implied
  EXPECT_EQ(g.edge_count(), 2);
}

TEST(PreferenceGraphTest, CycleRejectedFirstWins) {
  PreferenceGraph g(3, ContradictionPolicy::kFirstWins);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  ASSERT_TRUE(g.AddPreference(2, 0).ok());  // would close a cycle; dropped
  EXPECT_EQ(g.contradiction_count(), 1);
  EXPECT_TRUE(g.Prefers(0, 2));
  EXPECT_FALSE(g.Prefers(2, 0));
}

TEST(PreferenceGraphTest, CycleFailsUnderFailPolicy) {
  PreferenceGraph g(3, ContradictionPolicy::kFail);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  EXPECT_TRUE(g.AddPreference(2, 0).IsContradiction());
}

TEST(PreferenceGraphTest, EquivalenceBasics) {
  PreferenceGraph g(4);
  ASSERT_TRUE(g.AddEquivalence(0, 1).ok());
  EXPECT_TRUE(g.Equivalent(0, 1));
  EXPECT_TRUE(g.WeaklyPrefers(0, 1));
  EXPECT_TRUE(g.WeaklyPrefers(1, 0));
  EXPECT_FALSE(g.Prefers(0, 1));
  EXPECT_EQ(g.merge_count(), 1);
  EXPECT_EQ(g.representative(0), g.representative(1));
}

TEST(PreferenceGraphTest, EquivalenceIsTransitive) {
  PreferenceGraph g(4);
  ASSERT_TRUE(g.AddEquivalence(0, 1).ok());
  ASSERT_TRUE(g.AddEquivalence(1, 2).ok());
  EXPECT_TRUE(g.Equivalent(0, 2));
  ASSERT_TRUE(g.AddEquivalence(0, 2).ok());  // no-op
  EXPECT_EQ(g.merge_count(), 2);
}

TEST(PreferenceGraphTest, EquivalenceInheritsPreferences) {
  PreferenceGraph g(5);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(2, 3).ok());
  ASSERT_TRUE(g.AddEquivalence(1, 2).ok());
  // 0 < 1 ~ 2 < 3 implies 0 < 3.
  EXPECT_TRUE(g.Prefers(0, 3));
  EXPECT_TRUE(g.Prefers(0, 2));  // 0 < 1 ~ 2
  EXPECT_TRUE(g.Prefers(1, 3));  // 1 ~ 2 < 3
}

TEST(PreferenceGraphTest, EquivalenceConflictsWithStrictOrder) {
  PreferenceGraph g(3, ContradictionPolicy::kFail);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  EXPECT_TRUE(g.AddEquivalence(0, 1).IsContradiction());
  EXPECT_TRUE(g.AddEquivalence(1, 0).IsContradiction());

  PreferenceGraph h(3, ContradictionPolicy::kFirstWins);
  ASSERT_TRUE(h.AddPreference(0, 1).ok());
  ASSERT_TRUE(h.AddEquivalence(0, 1).ok());
  EXPECT_EQ(h.contradiction_count(), 1);
  EXPECT_TRUE(h.Prefers(0, 1));
  EXPECT_FALSE(h.Equivalent(0, 1));
}

TEST(PreferenceGraphTest, StrictEdgeWithinClassIsContradiction) {
  PreferenceGraph g(3, ContradictionPolicy::kFail);
  ASSERT_TRUE(g.AddEquivalence(0, 1).ok());
  EXPECT_TRUE(g.AddPreference(0, 1).IsContradiction());
  EXPECT_TRUE(g.AddPreference(1, 0).IsContradiction());
}

TEST(PreferenceGraphTest, TransitiveConnectionThroughMerge) {
  // x -> a, b -> y, then a ~ b must give x -> y.
  PreferenceGraph g(4);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());  // x=0 -> a=1
  ASSERT_TRUE(g.AddPreference(2, 3).ok());  // b=2 -> y=3
  ASSERT_TRUE(g.AddEquivalence(1, 2).ok());
  EXPECT_TRUE(g.Prefers(0, 3));
  EXPECT_FALSE(g.Prefers(3, 0));
}

TEST(PreferenceGraphTest, AnyStrictlyPrefers) {
  PreferenceGraph g(6);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  DynamicBitset mask(6);
  mask.Set(0);
  mask.Set(4);
  EXPECT_TRUE(g.AnyStrictlyPrefers(mask, 2));   // 0 -> 2 transitively
  EXPECT_TRUE(g.AnyStrictlyPrefers(mask, 1));   // 0 -> 1
  EXPECT_FALSE(g.AnyStrictlyPrefers(mask, 0));  // nothing precedes 0
  EXPECT_FALSE(g.AnyStrictlyPrefers(mask, 5));
}

TEST(PreferenceGraphTest, AnyStrictlyPrefersAfterMerges) {
  PreferenceGraph g(6);
  ASSERT_TRUE(g.AddEquivalence(0, 3).ok());
  ASSERT_TRUE(g.AddPreference(3, 2).ok());
  DynamicBitset mask(6);
  mask.Set(0);  // 0 ~ 3 and 3 -> 2, so "0" strictly precedes 2
  EXPECT_TRUE(g.AnyStrictlyPrefers(mask, 2));
  EXPECT_FALSE(g.AnyStrictlyPrefers(mask, 4));
}

TEST(PreferenceGraphTest, AnyWeaklyPrefersCountsEquivalents) {
  PreferenceGraph g(6);
  ASSERT_TRUE(g.AddEquivalence(1, 2).ok());
  DynamicBitset mask(6);
  mask.Set(1);
  EXPECT_TRUE(g.AnyWeaklyPrefers(mask, 2));   // 1 ~ 2
  EXPECT_FALSE(g.AnyWeaklyPrefers(mask, 1));  // only 1 itself... not in mask
  mask.Set(2);
  EXPECT_TRUE(g.AnyWeaklyPrefers(mask, 2));  // 1 is another member
}

TEST(PreferenceGraphTest, ZeroAndOneNodeGraphs) {
  PreferenceGraph g0(0);
  EXPECT_EQ(g0.size(), 0);
  PreferenceGraph g1(1);
  EXPECT_TRUE(g1.Equivalent(0, 0));  // reflexive
  EXPECT_TRUE(g1.Comparable(0, 0));
  EXPECT_FALSE(g1.Prefers(0, 0));
}

TEST(PreferenceGraphTest, FirstAncestorInAndClearDescendantsFrom) {
  // 0 -> 1 -> 2, 3 -> 2, 70 -> 0, across a word boundary.
  PreferenceGraph g(130);
  ASSERT_TRUE(g.AddPreference(0, 1).ok());
  ASSERT_TRUE(g.AddPreference(1, 2).ok());
  ASSERT_TRUE(g.AddPreference(3, 2).ok());
  ASSERT_TRUE(g.AddPreference(70, 0).ok());
  DynamicBitset ids(130);
  for (const size_t i : {1u, 2u, 3u, 70u, 129u}) ids.Set(i);
  EXPECT_EQ(g.FirstAncestorIn(ids, 2), 1u);   // ancestors 0, 1, 3, 70
  EXPECT_EQ(g.FirstAncestorIn(ids, 1), 70u);  // 0 is not in ids
  EXPECT_EQ(g.FirstAncestorIn(ids, 70), 130u);
  EXPECT_EQ(g.FirstAncestorIn(ids, 129), 130u);
  g.ClearDescendantsFrom(70, &ids);  // drops 1 and 2, keeps 70 itself
  EXPECT_EQ(ids.ToVector(), (std::vector<int>{3, 70, 129}));
}

}  // namespace
}  // namespace crowdsky
