#include "skyline/dominance_structure.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace crowdsky {

// Construction is block-partitioned over the global thread pool. Every
// phase writes disjoint rows (or runs serially), so the resulting
// structure is bit-identical for every thread count — the parallelism
// only changes wall time, never any paper-figure output.
DominanceStructure::DominanceStructure(const PreferenceMatrix& known,
                                       Reduction reduction)
    : DominanceStructure(known, SelectedKernelBackend(), reduction) {}

DominanceStructure::DominanceStructure(const PreferenceMatrix& known,
                                       KernelBackend backend,
                                       Reduction reduction)
    : n_(known.size()), has_reduction_(reduction == Reduction::kBuild) {
  using Word = DynamicBitset::Word;
  constexpr size_t kBits = DynamicBitset::kBitsPerWord;
  const auto un = static_cast<size_t>(n_);
  dominatees_.assign(un, DynamicBitset(un));
  dominators_.assign(un, DynamicBitset(un));
  ds_size_.assign(un, 0);
  ThreadPool& pool = ThreadPool::Global();

  // Score-sorted sweep: if a dominates b then Score(a) < Score(b), so only
  // the earlier tuple of each sorted pair needs testing.
  const std::vector<int> order = ScoreSortedOrder(known);
  const size_t word_count = un == 0 ? 0 : dominatees_[0].word_count();

  // The reduction runs as streaming word sweeps over the phase-1 rows in
  // sorted coordinates (row i = dominated sorted positions > i), kept in
  // one n x n bit matrix; row i lives at sdom[i * word_count]. A
  // structure without the reduction never allocates it.
  std::vector<Word> sdom;
  if (has_reduction_) sdom.assign(un * word_count, 0);

  // Phase 1 — dominatee rows, one row-range per chunk. Thread i only
  // writes dominatees_ rows of its own sorted positions; the triangular
  // row costs are rebalanced by work-stealing.
  if (backend == KernelBackend::kLegacy) {
    pool.ParallelFor(0, un, 8, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const int a = order[i];
        DynamicBitset& row = dominatees_[static_cast<size_t>(a)];
        for (size_t j = i + 1; j < un; ++j) {
          const int b = order[j];
          if (known.Dominates(a, b)) row.Set(static_cast<size_t>(b));
        }
      }
    });
  } else {
    // Kernel fill: a column-major mirror of the matrix in sorted order
    // lets each probe sweep its whole tail 64 candidates per output word
    // (skyline/dominance_kernels.h). The tail bits land in the probe's
    // sorted-space row (its sdom row, or one per-chunk buffer when no
    // reduction follows); set bits are then scattered into id space. The
    // bits are identical to the legacy per-pair sweep: the kernels
    // evaluate the same IEEE <=/< comparisons, and no tuple at sorted
    // position <= i can be dominated by the probe (its score is not
    // larger), so the full-tail scan covers exactly the legacy pairs.
    const SoAMatrix soa(known, order);
    pool.ParallelFor(0, un, 8, [&](size_t lo, size_t hi) {
      std::vector<Word> chunk_row(has_reduction_ ? 0 : word_count);
      for (size_t i = lo; i < hi; ++i) {
        if (i + 1 >= un) continue;
        const int a = order[i];
        Word* rowbuf = has_reduction_ ? sdom.data() + i * word_count
                                      : chunk_row.data();
        PointDominatesTail(soa.view(), known.row(a), i + 1, backend, rowbuf);
        DynamicBitset& row = dominatees_[static_cast<size_t>(a)];
        for (size_t wi = (i + 1) / kBits; wi < word_count; ++wi) {
          Word bits = rowbuf[wi];
          while (bits != 0) {
            const size_t j =
                wi * kBits + static_cast<size_t>(__builtin_ctzll(bits));
            row.Set(static_cast<size_t>(order[j]));
            bits &= bits - 1;
          }
        }
      }
    });
  }

  // Phase 2 — dominators_ is the transpose of dominatees_, done 64x64
  // bits at a time: gather one word column of 64 rows, Transpose64x64,
  // scatter the result as whole words (instead of one store per set
  // bit). Partitioning the *column* space makes every dominator row the
  // property of exactly one chunk, so the scatter needs no atomics.
  pool.ParallelFor(0, word_count, 1, [&](size_t wlo, size_t whi) {
    Word blk[kBits];
    for (size_t wb = wlo; wb < whi; ++wb) {
      const size_t b0 = wb * kBits;
      const size_t bcols = std::min(kBits, un - b0);
      for (size_t ab = 0; ab < word_count; ++ab) {
        const size_t a0 = ab * kBits;
        const size_t arows = std::min(kBits, un - a0);
        Word any = 0;
        for (size_t k = 0; k < arows; ++k) {
          blk[k] = dominatees_[a0 + k].words()[wb];
          any |= blk[k];
        }
        if (any == 0) continue;
        for (size_t k = arows; k < kBits; ++k) blk[k] = 0;
        Transpose64x64(blk);
        for (size_t k = 0; k < bcols; ++k) {
          if (blk[k] != 0) dominators_[b0 + k].words()[ab] = blk[k];
        }
      }
    }
  });

  // Merge pass — sizes, evaluation order, skyline.
  pool.ParallelFor(0, un, 64, [&](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      ds_size_[t] = static_cast<int>(dominators_[t].Count());
    }
  });

  evaluation_order_.assign(order.begin(), order.end());
  std::stable_sort(evaluation_order_.begin(), evaluation_order_.end(),
                   [this](int a, int b) {
                     const int sa = ds_size_[static_cast<size_t>(a)];
                     const int sb = ds_size_[static_cast<size_t>(b)];
                     if (sa != sb) return sa < sb;
                     return a < b;
                   });

  for (int t = 0; t < n_; ++t) {
    if (ds_size_[static_cast<size_t>(t)] == 0) known_skyline_.push_back(t);
  }

  if (!has_reduction_) return;
  if (backend == KernelBackend::kLegacy) {
    // The per-pair fill wrote id-space rows only; move them into sorted
    // space so both backends share one reduction.
    std::vector<size_t> pos(un);
    for (size_t p = 0; p < un; ++p) pos[static_cast<size_t>(order[p])] = p;
    pool.ParallelFor(0, un, 64, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        Word* row = sdom.data() + i * word_count;
        dominatees_[static_cast<size_t>(order[i])].ForEachSetBit(
            [&](size_t b) {
              const size_t j = pos[b];
              row[j / kBits] |= Word{1} << (j % kBits);
            });
      }
    });
  }
  BuildReduction(order, sdom, word_count);
}

void DominanceStructure::BuildReduction(
    const std::vector<int>& order,
    const std::vector<DynamicBitset::Word>& sdom, size_t word_count) {
  using Word = DynamicBitset::Word;
  constexpr size_t kBits = DynamicBitset::kBitsPerWord;
  const auto un = static_cast<size_t>(n_);
  layer_of_.assign(un, 0);
  direct_dominators_.assign(un, {});

  // Direct dominators, parent side: an edge i -> j (sorted positions) is
  // transitive iff some earlier *direct* child k of i dominates j — if a
  // non-direct child witnesses it, recursing through ITS dominator inside
  // ds(i) bottoms out at a direct child that also dominates j. So one
  // ascending sweep of row i with a running `covered` union of the direct
  // children's rows classifies every edge with one bit test, and the
  // per-edge cost is a streaming word OR over the tail.
  struct EdgeSink {
    Mutex mu;
    // (dominatee id, dominator id) pairs, in chunk-arrival order.
    std::vector<std::pair<int, int>> edges CROWDSKY_GUARDED_BY(mu);
  } sink;
  ThreadPool::Global().ParallelFor(0, un, 16, [&](size_t lo, size_t hi) {
    std::vector<Word> covered(word_count, 0);
    std::vector<std::pair<int, int>> local;
    for (size_t i = lo; i < hi; ++i) {
      const Word* row = sdom.data() + i * word_count;
      size_t dirty_from = word_count;
      for (size_t wi = (i + 1) / kBits; wi < word_count; ++wi) {
        Word bits = row[wi];
        while (bits != 0) {
          const size_t j =
              wi * kBits + static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          if ((covered[j / kBits] >> (j % kBits)) & 1u) continue;
          local.emplace_back(order[j], order[i]);
          // sdom row j is zero before word (j+1)/64, so the OR (and the
          // later reset) only needs the tail.
          const size_t w0 = (j + 1) / kBits;
          const Word* crow = sdom.data() + j * word_count;
          for (size_t w = w0; w < word_count; ++w) covered[w] |= crow[w];
          if (w0 < dirty_from) dirty_from = w0;
        }
      }
      if (dirty_from < word_count) {
        std::fill(covered.begin() + static_cast<ptrdiff_t>(dirty_from),
                  covered.end(), Word{0});
      }
    }
    if (!local.empty()) {
      const MutexLock lock(sink.mu);
      sink.edges.insert(sink.edges.end(), local.begin(), local.end());
    }
  });
  std::vector<std::pair<int, int>> edges;
  {
    const MutexLock lock(sink.mu);
    edges = std::move(sink.edges);
  }
  for (const std::pair<int, int>& e : edges) {
    direct_dominators_[static_cast<size_t>(e.first)].push_back(e.second);
  }
  // Chunk arrival order is thread-dependent; ascending-id lists restore
  // determinism.
  ThreadPool::Global().ParallelFor(0, un, 256, [&](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      std::sort(direct_dominators_[t].begin(), direct_dominators_[t].end());
    }
  });

  // Layers from direct edges only: every dominator of t has a direct
  // dominator of t at the same or a higher layer (follow its chain of
  // witnesses inside ds(t)), so max over c(t) equals max over ds(t).
  // Sorted order is topological — dominators sort strictly earlier.
  for (size_t p = 0; p < un; ++p) {
    const auto t = static_cast<size_t>(order[p]);
    int max_layer = 0;
    for (const int s : direct_dominators_[t]) {
      max_layer = std::max(max_layer, layer_of_[static_cast<size_t>(s)]);
    }
    layer_of_[t] = max_layer + 1;
    num_layers_ = std::max(num_layers_, max_layer + 1);
  }
  layers_.resize(static_cast<size_t>(num_layers_));
  for (size_t t = 0; t < un; ++t) {
    layers_[static_cast<size_t>(layer_of_[t] - 1)].push_back(
        static_cast<int>(t));
  }
}

}  // namespace crowdsky
