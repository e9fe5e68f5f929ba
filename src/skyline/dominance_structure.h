// DominanceStructure: everything CrowdSky derives from the known
// attributes AK before a single crowd question is asked.
//
// Always built:
//  * dominating sets DS(t) (Definition 5), stored as bitsets, plus sizes,
//  * dominatee bitsets D(u) = { x | u dominates x in AK } — the transpose
//    of DS, used for freq(u,v) (Sections 3.4 and 5),
//  * the evaluation order (ascending |DS(t)|, Lemma 3) and SKY_AK(R).
// Built only on request (Reduction::kBuild):
//  * the direct-dominator graph c(t) (transitive reduction of AK
//    dominance) and the skyline layers SL_1..SL_k (Definition 6). Only
//    ParallelSL's scheduler (Algorithm 2) reads them, so every other
//    caller skips the reduction and its sorted-space row matrix. Their
//    accessors CHECK-fail on a structure built without them.
//
// Construction is O(n^2) pairwise dominance tests with word-parallel set
// operations afterwards, block-partitioned across the global ThreadPool
// (see common/thread_pool.h): each thread fills disjoint row-ranges of the
// dominatee bitsets over the score-sorted order — via the batched SoA
// dominance kernels (skyline/dominance_kernels.h) by default, or the
// historical per-pair Compare under CROWDSKY_KERNEL=legacy — a
// word-partitioned transpose fills the dominator rows, and a merge pass
// derives sizes and the order (and, on request, direct dominators and
// layers). Every phase writes disjoint state and every backend performs
// the identical IEEE comparisons, so the structure is bit-identical for
// every CROWDSKY_THREADS value and every kernel backend.
#pragma once

#include <vector>

#include "common/bitset.h"
#include "common/macros.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace crowdsky {

/// Whether a DominanceStructure also builds c(t) and the skyline layers.
enum class Reduction {
  kSkip,   ///< DS/D rows, sizes, order and SKY_AK only
  kBuild,  ///< plus the transitive reduction c(t) and the layers
};

/// \brief Precomputed AK dominance relations for a dataset.
class DominanceStructure {
 public:
  /// Builds from the known-attribute view of a dataset, using the
  /// process-selected kernel backend (CROWDSKY_KERNEL / CPU detection).
  explicit DominanceStructure(const PreferenceMatrix& known,
                              Reduction reduction = Reduction::kSkip);

  /// Same, but with the fill backend pinned explicitly — the hook the
  /// differential tests and benchmarks use to compare backends in one
  /// process regardless of the environment.
  DominanceStructure(const PreferenceMatrix& known, KernelBackend backend,
                     Reduction reduction = Reduction::kSkip);

  int size() const { return n_; }

  /// Bitset form of DS(t): tuples that dominate t in AK.
  const DynamicBitset& dominator_bits(int t) const {
    return dominators_[static_cast<size_t>(t)];
  }
  /// DS(t) materialized as an ascending id list.
  std::vector<int> DominatorsOf(int t) const {
    return dominators_[static_cast<size_t>(t)].ToVector();
  }
  /// |DS(t)|.
  int dominating_set_size(int t) const {
    return ds_size_[static_cast<size_t>(t)];
  }

  /// D(u): bitset of tuples u dominates in AK.
  const DynamicBitset& dominatees(int u) const {
    return dominatees_[static_cast<size_t>(u)];
  }

  /// True iff s dominates t in AK (O(1) bit test).
  bool Dominates(int s, int t) const {
    return dominatees_[static_cast<size_t>(s)].Test(static_cast<size_t>(t));
  }

  /// freq(u,v) = |{ x | u and v both dominate x in AK }| — the question-
  /// importance measure of Sections 3.4 and 5.
  size_t Frequency(int u, int v) const {
    return dominatees_[static_cast<size_t>(u)].IntersectionCount(
        dominatees_[static_cast<size_t>(v)]);
  }

  /// Tuple ids sorted by ascending |DS(t)| (ties by id) — the evaluation
  /// order of Algorithm 1 line 7; a valid topological order of AK
  /// dominance by Lemma 3.
  const std::vector<int>& evaluation_order() const {
    return evaluation_order_;
  }

  /// SKY_AK(R): ids with empty dominating sets, ascending.
  const std::vector<int>& known_skyline() const { return known_skyline_; }

  /// True iff built with Reduction::kBuild: c(t) and the layers below
  /// exist. Each of their accessors CHECK-fails otherwise.
  bool has_reduction() const { return has_reduction_; }

  /// 1-based skyline-layer index of t (Definition 6); layer 1 is SKY_AK(R).
  int layer_of(int t) const {
    CheckReduction();
    return layer_of_[static_cast<size_t>(t)];
  }
  int num_layers() const {
    CheckReduction();
    return num_layers_;
  }
  /// Members of layer `l` (1-based), ascending ids.
  const std::vector<int>& layer(int l) const {
    CheckReduction();
    return layers_[static_cast<size_t>(l - 1)];
  }

  /// c(t): direct dominators of t — the transitive reduction of AK
  /// dominance (s in c(t) iff s dominates t with no u strictly between),
  /// ascending ids.
  const std::vector<int>& direct_dominators(int t) const {
    CheckReduction();
    return direct_dominators_[static_cast<size_t>(t)];
  }

 private:
  void CheckReduction() const {
    CROWDSKY_CHECK_MSG(has_reduction_,
                       "c(t) and the skyline layers are only built with "
                       "Reduction::kBuild");
  }
  /// Fills direct_dominators_, layer_of_, num_layers_ and layers_ from the
  /// dominatee rows in score-sorted space (`sdom`, row i at
  /// i * word_count, holding the sorted positions > i that i dominates).
  void BuildReduction(const std::vector<int>& order,
                      const std::vector<DynamicBitset::Word>& sdom,
                      size_t word_count);

  int n_;
  bool has_reduction_;
  std::vector<DynamicBitset> dominatees_;
  std::vector<DynamicBitset> dominators_;
  std::vector<int> ds_size_;
  std::vector<int> evaluation_order_;
  std::vector<int> known_skyline_;
  std::vector<int> layer_of_;
  int num_layers_ = 0;
  std::vector<std::vector<int>> layers_;
  std::vector<std::vector<int>> direct_dominators_;
};

}  // namespace crowdsky
