// PreferenceGraph: the preference tree T of Section 3.3, generalized to
// noisy input.
//
// Nodes are tuple ids; an edge u -> v records the (majority-voted) crowd
// judgement "u is preferred over v" on one crowd attribute, and "equally
// preferred" answers merge nodes into equivalence classes. Transitivity is
// the whole point of T — CrowdSky's pruning rules P2/P3 skip any question
// whose answer is already implied — so reachability must be cheap: we
// maintain the full transitive closure incrementally (Italiano-style) with
// one ancestor and one descendant bitset per node, giving O(1) Prefers()
// and word-parallel "does anything in this set precede v" queries.
//
// With imperfect workers, an answer may contradict the closure (a cycle) or
// an equivalence (equal vs. already strictly ordered). The contradiction
// policy decides what happens; the default keeps the existing knowledge and
// counts the contradiction, which matches the paper's discussion of
// preventing the propagation of false dominance relationships.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"

namespace crowdsky {

/// What to do when a new answer contradicts the current closure.
enum class ContradictionPolicy {
  kFirstWins,  ///< ignore the new answer, count the contradiction
  kFail,       ///< return Status::Contradiction (used under perfect oracles)
};

/// \brief Dynamic partial order with equivalence classes and O(1)
/// reachability.
class PreferenceGraph {
 public:
  explicit PreferenceGraph(
      int num_nodes, ContradictionPolicy policy = ContradictionPolicy::kFirstWins);

  int size() const { return n_; }

  /// Records "u is strictly preferred over v". Returns OK if the edge was
  /// added or already implied; Contradiction per policy if v is already
  /// (weakly) preferred over u.
  Status AddPreference(int u, int v);

  /// Records "u and v are equally preferred" (class merge).
  Status AddEquivalence(int u, int v);

  /// True iff u is strictly preferred over v (directly or transitively).
  bool Prefers(int u, int v) const;
  /// True iff u and v were judged equally preferred (transitively).
  bool Equivalent(int u, int v) const;
  /// Prefers(u,v) || Equivalent(u,v). This is the `u .AC v` weak
  /// preference that makes a dominator u in DS(t) decide t's fate.
  bool WeaklyPrefers(int u, int v) const {
    return Equivalent(u, v) || Prefers(u, v);
  }
  /// True iff any relation between u and v is known.
  bool Comparable(int u, int v) const {
    return Equivalent(u, v) || Prefers(u, v) || Prefers(v, u);
  }

  /// True iff some node in `ids` (a bitset over node ids, excluding v
  /// itself) is strictly preferred over v.
  bool AnyStrictlyPrefers(const DynamicBitset& ids, int v) const;
  /// True iff some node in `ids` other than v is weakly preferred over v.
  bool AnyWeaklyPrefers(const DynamicBitset& ids, int v) const;

  /// Lowest id in `ids` that is strictly preferred over u, or ids.size()
  /// if none. Only valid without merges (ids are then representatives).
  size_t FirstAncestorIn(const DynamicBitset& ids, int u) const {
    CROWDSKY_DCHECK(merges_ == 0 && ids.size() == static_cast<size_t>(n_));
    return anc_[static_cast<size_t>(u)].FindFirstAnd(ids);
  }
  /// Clears every node u is strictly preferred over from `ids`, one
  /// word-wise AND-NOT. Only valid without merges.
  void ClearDescendantsFrom(int u, DynamicBitset* ids) const {
    CROWDSKY_DCHECK(merges_ == 0 && ids->size() == static_cast<size_t>(n_));
    ids->AndNotWith(desc_[static_cast<size_t>(u)]);
  }

  /// Union-find representative of v's equivalence class.
  int representative(int v) const { return Find(v); }

  /// Number of answers rejected as contradictory (kFirstWins only).
  int64_t contradiction_count() const { return contradictions_; }
  /// Number of strict edges accepted (excluding already-implied ones).
  int64_t edge_count() const { return edges_; }
  /// Number of equivalence merges performed.
  int64_t merge_count() const { return merges_; }

 private:
  int Find(int v) const;
  void InsertEdgeClosure(int ru, int rv);

  int n_;
  ContradictionPolicy policy_;
  // Union-find parent; mutable for path halving in const lookups.
  mutable std::vector<int> parent_;
  // Closure rows, indexed by representative; bits are representative ids.
  // Row invariant (transitivity): a row desc_[a] containing v also
  // contains all of desc_[v], and a row anc_[d] containing u also contains
  // all of anc_[u]. InsertEdgeClosure relies on it to skip rows that
  // already hold the new edge's endpoint.
  // Transpose invariant: desc_[a] holds b iff anc_[b] holds a. So for an
  // edge u -> v, the ancestor rows desc_[a] (a in anc_[u]) lacking v are
  // exactly a in anc_[u] & ~anc_[v], and the descendant rows anc_[d]
  // (d in desc_[v]) lacking u are exactly d in desc_[v] & ~desc_[u].
  // InsertEdgeClosure reads its target rows from these differences instead
  // of testing one bit per visited row.
  std::vector<DynamicBitset> desc_;
  std::vector<DynamicBitset> anc_;
  // Class membership in original-id space, indexed by representative.
  std::vector<DynamicBitset> members_;
  int64_t contradictions_ = 0;
  int64_t edges_ = 0;
  int64_t merges_ = 0;
  // Scratch for mask canonicalization when merges have occurred.
  mutable DynamicBitset scratch_;
  // Scratch for closure updates: the rows to OR into on each side, and the
  // nonzero word indices of the source rows.
  std::vector<int> desc_targets_;
  std::vector<int> anc_targets_;
  std::vector<uint32_t> desc_words_;
  std::vector<uint32_t> anc_words_;
};

}  // namespace crowdsky
