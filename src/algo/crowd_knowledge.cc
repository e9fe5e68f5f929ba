#include "algo/crowd_knowledge.h"

namespace crowdsky {

CrowdKnowledge::CrowdKnowledge(int num_tuples, int num_crowd_attrs,
                               ContradictionPolicy policy)
    : n_(num_tuples) {
  CROWDSKY_CHECK(num_crowd_attrs >= 1);
  graphs_.reserve(static_cast<size_t>(num_crowd_attrs));
  for (int j = 0; j < num_crowd_attrs; ++j) {
    graphs_.emplace_back(num_tuples, policy);
  }
}

Status CrowdKnowledge::Record(int attr, int u, int v, Answer answer) {
  PreferenceGraph& g = graphs_[static_cast<size_t>(attr)];
  switch (answer) {
    case Answer::kFirstPreferred:
      return g.AddPreference(u, v);
    case Answer::kSecondPreferred:
      return g.AddPreference(v, u);
    case Answer::kEqual:
      return g.AddEquivalence(u, v);
  }
  return Status::InvalidArgument("unrecognized answer");
}

AcRelation CrowdKnowledge::Relation(int u, int v) const {
  bool any_unknown = false;
  bool u_strict = false;
  bool v_strict = false;
  for (const PreferenceGraph& g : graphs_) {
    if (g.Equivalent(u, v)) {
      continue;
    }
    if (g.Prefers(u, v)) {
      u_strict = true;
    } else if (g.Prefers(v, u)) {
      v_strict = true;
    } else {
      any_unknown = true;
    }
    if (u_strict && v_strict) return AcRelation::kIncomparable;
  }
  if (any_unknown) return AcRelation::kUnknown;
  if (u_strict) return AcRelation::kPrefers;
  if (v_strict) return AcRelation::kPreferredBy;
  return AcRelation::kEqual;
}

bool CrowdKnowledge::PrunedFromAcSkyline(const DynamicBitset& mask,
                                         const std::vector<int>& members,
                                         int u) const {
  if (num_attrs() == 1) {
    const PreferenceGraph& g = graphs_[0];
    if (g.AnyStrictlyPrefers(mask, u)) return true;
    // Without merges no two distinct tuples are equivalent.
    if (g.merge_count() == 0) return false;
    // All-equal groups keep their smallest member.
    for (const int s : members) {
      if (s != u && s < u && g.Equivalent(s, u)) return true;
    }
    return false;
  }
  for (const int s : members) {
    if (s == u) continue;
    const AcRelation r = Relation(s, u);
    if (r == AcRelation::kPrefers) return true;
    if (r == AcRelation::kEqual && s < u) return true;
  }
  return false;
}

void CrowdKnowledge::ReduceToAcSkyline(DynamicBitset* ds,
                                       std::vector<int>* scratch) const {
  if (num_attrs() == 1 && graphs_[0].merge_count() == 0) {
    // Clearing the descendants of any member of ds is sound: each cleared
    // member has an ancestor in ds. A maximal member (no ancestor in ds)
    // is never cleared, so every one is still in ds when the loop reaches
    // it, and every other member has a maximal ancestor — the graph is
    // acyclic and its closure transitive — whose clear removes it. The
    // result is the maximal members whatever the order. The climb makes
    // each clear start from a maximal member, so the first clears remove
    // the most and few members are visited at all.
    const PreferenceGraph& g = graphs_[0];
    const size_t none = ds->size();
    for (size_t u = ds->FindFirst(); u != none; u = ds->FindNext(u + 1)) {
      auto m = static_cast<int>(u);
      for (size_t a = g.FirstAncestorIn(*ds, m); a != none;
           a = g.FirstAncestorIn(*ds, m)) {
        m = static_cast<int>(a);
      }
      g.ClearDescendantsFrom(m, ds);
    }
    return;
  }
  ds->ToVector(scratch);
  if (scratch->size() < 2) return;
  for (const int u : *scratch) {
    if (PrunedFromAcSkyline(*ds, *scratch, u)) {
      ds->Reset(static_cast<size_t>(u));
    }
  }
}

int64_t CrowdKnowledge::contradiction_count() const {
  int64_t total = 0;
  for (const PreferenceGraph& g : graphs_) total += g.contradiction_count();
  return total;
}

}  // namespace crowdsky
