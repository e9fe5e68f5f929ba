#include "skyline/algorithms.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "skyline/dominance_kernels.h"

namespace crowdsky {
namespace {

// Below this cardinality the kernel path's partition/merge scaffolding
// costs more than it saves, so it runs one serial pass (the path taken at
// CROWDSKY_THREADS=1).
constexpr int kParallelSkylineThreshold = 256;

// Tile width of the min-corner skip in the kernel SFS path. One bitset
// word's worth of candidates: the same granularity the dominance kernels
// emit, so a skipped tile is exactly one saved kernel word per window
// member.
constexpr size_t kSfsTile = 64;

// Sorted-prefix length of the seed filter shared by all parallel blocks.
constexpr size_t kSeedFilterMax = 1024;

// The legacy backend's serial BNL in id order; returns the skyline ids in
// ascending order.
std::vector<int> LegacyBnl(const PreferenceMatrix& m) {
  std::vector<int> window;
  for (int t = 0; t < m.size(); ++t) {
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const int w = window[i];
      const PartialOrder order = m.Compare(w, t);
      if (order == PartialOrder::kDominates) {
        dominated = true;
        // t will not enter the window, so the rest of the window is kept
        // as-is.
        keep = window.size();
        break;
      }
      if (order == PartialOrder::kDominatedBy) {
        continue;  // w is dominated by t; drop it
      }
      window[keep++] = w;
    }
    window.resize(keep);
    if (!dominated) window.push_back(t);
  }
  std::sort(window.begin(), window.end());
  return window;
}

// The legacy backend's serial SFS. Sorted by a monotone score, no tuple
// can be dominated by a later one, so the window only grows. Returns the
// skyline ids in ascending order.
std::vector<int> LegacySfs(const PreferenceMatrix& m) {
  std::vector<int> skyline;
  for (const int t : ScoreSortedOrder(m)) {
    bool dominated = false;
    for (const int s : skyline) {
      if (m.Dominates(s, t)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(t);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

// Kernel SFS over the score-order slice [begin, end). The window only
// grows (sorted input: no tuple is dominated by a later one), so survivors
// accumulate into a column-major SoABlock the dominance kernels scan a
// word at a time. Tiles of kSfsTile tuples are skipped wholesale when a
// window (or prefilter) member strictly dominates the tile's componentwise
// min corner: s <= corner <= member with a strict dim on the corner implies
// s strictly dominates every member. `prefilter` optionally carries
// already-confirmed skyline tuples (the parallel seed filter); it is only
// read, never appended to.
std::vector<int> KernelSfsSlice(const PreferenceMatrix& m,
                                const std::vector<int>& order, size_t begin,
                                size_t end, KernelBackend backend,
                                const SoABlock* prefilter) {
  SoABlock window(m.dims());
  const bool use_prefilter = prefilter != nullptr && prefilter->count() > 0;
  std::vector<double> corner(static_cast<size_t>(m.dims()));
  for (size_t t0 = begin; t0 < end; t0 += kSfsTile) {
    const size_t t1 = std::min(end, t0 + kSfsTile);
    if (t1 - t0 > 1 && (use_prefilter || window.count() > 0)) {
      TileMinCorner(m, order, t0, t1, corner.data());
      const bool skip =
          (use_prefilter &&
           AnyDominatesPoint(prefilter->view(), corner.data(), backend)) ||
          (window.count() > 0 &&
           AnyDominatesPoint(window.view(), corner.data(), backend));
      if (skip) continue;
    }
    for (size_t i = t0; i < t1; ++i) {
      const int t = order[i];
      const double* row = m.row(t);
      const bool dominated =
          (use_prefilter &&
           AnyDominatesPoint(prefilter->view(), row, backend)) ||
          (window.count() > 0 &&
           AnyDominatesPoint(window.view(), row, backend));
      if (!dominated) window.Append(row, t);
    }
  }
  return window.ids();
}

// Shared kernel skyline: score presort, seed filter, score-partitioned
// blocks, whole-pool merge. Exact for any block count — the skyline set is
// unique, so this agrees bit-for-bit with the legacy serial passes.
std::vector<int> KernelSkyline(const PreferenceMatrix& m,
                               KernelBackend backend) {
  const auto n = static_cast<size_t>(m.size());
  if (n == 0) return {};
  const std::vector<int> order = ScoreSortedOrder(m);
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() <= 1 || m.size() < kParallelSkylineThreshold) {
    std::vector<int> skyline =
        KernelSfsSlice(m, order, 0, n, backend, nullptr);
    std::sort(skyline.begin(), skyline.end());
    return skyline;
  }
  // Seed filter: the skyline of a sorted prefix is a subset of the global
  // skyline (any dominator has a strictly smaller score, hence also lives
  // in the prefix). One cheap serial pass gives every parallel block a
  // confirmed-skyline prefilter to discard against — including whole-tile
  // min-corner skips — with no inter-block coordination.
  const size_t seed_end = std::min(n, kSeedFilterMax);
  const std::vector<int> seed_ids =
      KernelSfsSlice(m, order, 0, seed_end, backend, nullptr);
  SoABlock seed(m.dims());
  for (const int t : seed_ids) seed.Append(m.row(t), t);

  const size_t rest = n - seed_end;
  if (rest == 0) {
    std::vector<int> skyline = seed_ids;
    std::sort(skyline.begin(), skyline.end());
    return skyline;
  }
  const size_t num_blocks =
      std::min(static_cast<size_t>(pool.num_threads()),
               std::max<size_t>(1, rest / 64));
  const size_t block = (rest + num_blocks - 1) / num_blocks;
  std::vector<std::vector<int>> local(num_blocks);
  pool.ParallelFor(0, num_blocks, 1, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      const size_t b = seed_end + p * block;
      const size_t e = std::min(n, seed_end + (p + 1) * block);
      if (b < e) local[p] = KernelSfsSlice(m, order, b, e, backend, &seed);
    }
  });
  // Merge: concatenated in block order the survivors are globally
  // score-sorted, and a dominator always has a strictly smaller score, so
  // testing each candidate against the ENTIRE pool is exact: later-pool
  // members cannot dominate it (their score is not smaller), the self test
  // is vacuous (equal rows never strictly dominate), and any global
  // dominator is represented in the pool or the seed by transitivity —
  // but a seed dominator already eliminated the candidate locally, so the
  // pool alone settles the survivors.
  SoABlock cands(m.dims());
  for (const auto& blk : local) {
    for (const int t : blk) cands.Append(m.row(t), t);
  }
  std::vector<int> skyline = seed_ids;
  const std::vector<int>& cand_ids = cands.ids();
  std::vector<char> keep(cands.count(), 1);
  pool.ParallelFor(0, cands.count(), 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (AnyDominatesPoint(cands.view(), m.row(cand_ids[i]), backend)) {
        keep[i] = 0;
      }
    }
  });
  for (size_t i = 0; i < cands.count(); ++i) {
    if (keep[i]) skyline.push_back(cand_ids[i]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace

std::vector<int> ComputeSkylineBNL(const PreferenceMatrix& m) {
  return ComputeSkylineBNL(m, SelectedKernelBackend());
}

std::vector<int> ComputeSkylineBNL(const PreferenceMatrix& m,
                                   KernelBackend backend) {
  if (backend != KernelBackend::kLegacy) {
    // The sorted kernel path subsumes BNL's window churn: the score
    // partition plays the role of BNL's blocks, presorting removes window
    // evictions entirely, and the min-corner test prunes whole partitions
    // before any kernel call. The skyline set is unique, so the result is
    // identical to the classic id-order scan.
    return KernelSkyline(m, backend);
  }
  return LegacyBnl(m);
}

std::vector<int> ComputeSkylineSFS(const PreferenceMatrix& m) {
  return ComputeSkylineSFS(m, SelectedKernelBackend());
}

std::vector<int> ComputeSkylineSFS(const PreferenceMatrix& m,
                                   KernelBackend backend) {
  if (backend != KernelBackend::kLegacy) {
    return KernelSkyline(m, backend);
  }
  return LegacySfs(m);
}

std::vector<int> ComputeGroundTruthSkyline(const Dataset& dataset) {
  return ComputeSkylineSFS(PreferenceMatrix::FromAll(dataset));
}

}  // namespace crowdsky
