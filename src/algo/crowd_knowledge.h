// CrowdKnowledge: what the machine has learned from crowd answers so far —
// one PreferenceGraph per crowd attribute, combined into AC-level
// relations (Definitions 1-2 restricted to AC).
//
// With |AC| = 1 every pair is totally ordered once asked; with |AC| > 1
// two tuples can be *known incomparable* within AC (each preferred on some
// crowd attribute), which Definition 2(ii) treats as incomparability in A.
#pragma once

#include <vector>

#include "common/bitset.h"
#include "crowd/question.h"
#include "prefgraph/preference_graph.h"

namespace crowdsky {

/// Combined relation of a tuple pair over all crowd attributes.
enum class AcRelation {
  kPrefers,       ///< u weakly preferred everywhere, strictly somewhere
  kPreferredBy,   ///< v weakly preferred everywhere, strictly somewhere
  kEqual,         ///< equal on every crowd attribute
  kIncomparable,  ///< each strictly preferred somewhere (definite)
  kUnknown,       ///< not enough answers yet
};

/// \brief Aggregated crowd-derived preference state.
class CrowdKnowledge {
 public:
  CrowdKnowledge(int num_tuples, int num_crowd_attrs,
                 ContradictionPolicy policy = ContradictionPolicy::kFirstWins);

  int num_tuples() const { return n_; }
  int num_attrs() const { return static_cast<int>(graphs_.size()); }
  PreferenceGraph& graph(int attr) { return graphs_[static_cast<size_t>(attr)]; }
  const PreferenceGraph& graph(int attr) const {
    return graphs_[static_cast<size_t>(attr)];
  }

  /// Records the (aggregated) answer to pair question (u, v) on `attr`.
  /// kFirstPreferred means u preferred over v.
  Status Record(int attr, int u, int v, Answer answer);

  /// Combined relation of u vs v over all crowd attributes.
  AcRelation Relation(int u, int v) const;

  /// u "<=_AC" v: weakly preferred on every crowd attribute. This is what
  /// turns an AK-dominator u of v into an A-dominator (Definition 1).
  bool WeaklyPrefers(int u, int v) const {
    const AcRelation r = Relation(u, v);
    return r == AcRelation::kPrefers || r == AcRelation::kEqual;
  }

  /// True while it is still possible that u <=_AC v, i.e. no crowd
  /// attribute is known to strictly prefer v. Once false, u can never
  /// dominate v regardless of the remaining (unasked) attributes — the
  /// early exit of the round-robin strategy.
  bool CanWeaklyPrefer(int u, int v) const {
    for (const PreferenceGraph& g : graphs_) {
      if (g.Prefers(v, u)) return false;
    }
    return true;
  }

  /// True iff u should be pruned from SKY_AC(members): some other member
  /// is weakly preferred over u — with the deterministic tie-break that
  /// keeps exactly one representative of an all-equal group (the smallest
  /// id). `mask` is the bitset form of `members`.
  bool PrunedFromAcSkyline(const DynamicBitset& mask,
                           const std::vector<int>& members, int u) const;

  /// P2 (Corollary 2): reduces `ds` to SKY_AC(ds), dropping exactly the
  /// members PrunedFromAcSkyline would drop when tested one at a time
  /// against the shrinking set. With one crowd attribute and no merges
  /// that is every member with an ancestor in ds: the climb from each
  /// remaining member to a maximal one (no ancestor left in ds) and one
  /// AND-NOT of its descendant row remove them a row at a time. Otherwise
  /// the per-member test runs; `scratch` holds its member list.
  void ReduceToAcSkyline(DynamicBitset* ds, std::vector<int>* scratch) const;

  /// Total contradictions rejected across all attribute graphs.
  int64_t contradiction_count() const;

 private:
  int n_;
  std::vector<PreferenceGraph> graphs_;
};

}  // namespace crowdsky
