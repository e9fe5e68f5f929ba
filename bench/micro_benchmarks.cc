// google-benchmark micro-benchmarks of the substrates: dominance tests,
// machine skylines, dominance-structure construction, preference-graph
// closure maintenance, the P2 reduction, the CSV codec, and full algorithm
// runs at a fixed size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/crowdsky.h"

namespace crowdsky {
namespace {

// state.range holding a thread count: 0 means "use DefaultThreads()" (i.e.
// CROWDSKY_THREADS or hardware_concurrency), any other value is literal.
int ResolveThreads(int64_t range) {
  return range == 0 ? ThreadPool::DefaultThreads()
                    : static_cast<int>(range);
}

Dataset MakeData(int n, DataDistribution dist, int dk = 4, int mc = 1) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = dk;
  opt.num_crowd = mc;
  opt.distribution = dist;
  opt.seed = 12345;
  return GenerateDataset(opt).ValueOrDie();
}

void BM_DominanceCompare(benchmark::State& state) {
  const Dataset ds =
      MakeData(1000, DataDistribution::kIndependent,
               static_cast<int>(state.range(0)), 0);
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  int i = 0, j = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Compare(i, j));
    i = (i + 1) % 1000;
    j = (j + 7) % 1000;
  }
}
BENCHMARK(BM_DominanceCompare)->Arg(2)->Arg(4)->Arg(8);

void BM_SkylineBNL(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kAntiCorrelated, 4, 0);
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkylineBNL(m));
  }
}
BENCHMARK(BM_SkylineBNL)->Arg(1000)->Arg(4000);

void BM_SkylineSFS(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kAntiCorrelated, 4, 0);
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkylineSFS(m));
  }
}
BENCHMARK(BM_SkylineSFS)->Arg(1000)->Arg(4000);

// Args: {cardinality, threads, full} — threads=0 means DefaultThreads();
// full=1 also builds c(t) and the layers (Reduction::kBuild, what
// ParallelSL asks for), full=0 is the lean build every other driver uses.
// The 1-thread rows are the serial baseline for the regression harness;
// the 0 rows show the parallel build at whatever the machine offers.
void BM_DominanceStructureBuild(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kIndependent);
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  const ScopedThreads threads(ResolveThreads(state.range(1)));
  const Reduction reduction =
      state.range(2) != 0 ? Reduction::kBuild : Reduction::kSkip;
  for (auto _ : state) {
    DominanceStructure s(m, reduction);
    benchmark::DoNotOptimize(s.size());
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::Global().num_threads());
}
BENCHMARK(BM_DominanceStructureBuild)
    ->ArgsProduct({{1000, 4000, 10000}, {1, 0}, {0, 1}});

// P2 on one dominating set, shaped like a large_query refresh: n = 4000
// nodes under a hidden order (a random permutation of the ids), whose
// graph holds answers between near neighbours in that order plus a few
// long-range ones, so most pairs are known, as they are among the
// dominators a query has probed; and 64 sets of 60 random members, about
// the mean |DS(t)|. Arg: 0 = ReduceToAcSkyline, 1 = the per-member
// PrunedFromAcSkyline loop it replaced. Items are sets; `survivors` is
// the mean |SKY_AC(DS)| (about 2.7 here, 1.2 in a large_query refresh).
void BM_ReduceToAcSkyline(benchmark::State& state) {
  const int n = 4000;
  Rng rng(17);
  std::vector<int> by_rank(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) by_rank[static_cast<size_t>(i)] = i;
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[static_cast<size_t>(rng.NextBounded(i))]);
  }
  CrowdKnowledge knowledge(n, 1);
  for (int r = 0; r + 1 < n; ++r) {
    // Up to four answers from rank r: to a later rank within 16, 16,
    // 256 and n.
    for (const int reach : {16, 16, 256, n}) {
      const auto s = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(std::min(reach, n - r - 1))));
      knowledge
          .Record(0, by_rank[static_cast<size_t>(r)],
                  by_rank[static_cast<size_t>(r + 1 + s)],
                  Answer::kFirstPreferred)
          .CheckOK();
    }
  }
  std::vector<DynamicBitset> sets(64, DynamicBitset(static_cast<size_t>(n)));
  for (DynamicBitset& set : sets) {
    while (set.Count() < 60) {
      set.Set(static_cast<size_t>(rng.NextBounded(static_cast<uint64_t>(n))));
    }
  }
  const bool per_member = state.range(0) != 0;
  std::vector<int> members;
  size_t survivors = 0;
  for (auto _ : state) {
    for (const DynamicBitset& set : sets) {
      DynamicBitset ds = set;
      if (per_member) {
        ds.ToVector(&members);
        for (const int u : members) {
          if (knowledge.PrunedFromAcSkyline(ds, members, u)) {
            ds.Reset(static_cast<size_t>(u));
          }
        }
      } else {
        knowledge.ReduceToAcSkyline(&ds, &members);
      }
      survivors += ds.Count();
    }
  }
  const int64_t reduced =
      state.iterations() * static_cast<int64_t>(sets.size());
  state.SetItemsProcessed(reduced);
  state.counters["survivors"] =
      static_cast<double>(survivors) / static_cast<double>(reduced);
}
BENCHMARK(BM_ReduceToAcSkyline)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ParallelSkylineBNL(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kAntiCorrelated, 4, 0);
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  const ScopedThreads threads(ResolveThreads(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSkylineBNL(m));
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::Global().num_threads());
}
BENCHMARK(BM_ParallelSkylineBNL)->Args({4000, 1})->Args({4000, 0});

void BM_BitsetOrWithCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DynamicBitset a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.Set(i);
  for (size_t i = 0; i < n; i += 5) b.Set(i);
  for (auto _ : state) {
    DynamicBitset acc = a;
    benchmark::DoNotOptimize(acc.OrWithCount(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetOrWithCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitsetAndNotCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DynamicBitset a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.Set(i);
  for (size_t i = 0; i < n; i += 5) b.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndNotCount(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetAndNotCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitsetIntersectionCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DynamicBitset a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.Set(i);
  for (size_t i = 0; i < n; i += 5) b.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectionCount(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetIntersectionCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PreferenceGraphChainInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PreferenceGraph g(n);
    for (int i = 0; i + 1 < n; ++i) {
      g.AddPreference(i, i + 1).CheckOK();
    }
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_PreferenceGraphChainInsert)->Arg(256)->Arg(1024);

// 4n random pairs consistent with a hidden total order, the pattern a
// CrowdSky query feeds its graph: each insert lands between nodes that
// already have ancestors and descendants, so both closure sides carry
// non-empty rows. (The in-order chain above only ever ORs in an empty
// source row.) Graph construction is not timed.
void BM_PreferenceGraphRandomOrderInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<int> rank(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rank[static_cast<size_t>(i)] = i;
  for (size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[static_cast<size_t>(rng.NextBounded(i))]);
  }
  std::vector<std::pair<int, int>> pairs;
  const auto num_pairs = static_cast<size_t>(4 * n);
  pairs.reserve(num_pairs);
  while (pairs.size() < num_pairs) {
    const auto a = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    const auto b = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (a == b) continue;
    // Orient the pair by the hidden order: the lower rank is preferred.
    if (rank[static_cast<size_t>(a)] < rank[static_cast<size_t>(b)]) {
      pairs.emplace_back(a, b);
    } else {
      pairs.emplace_back(b, a);
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    PreferenceGraph g(n);
    state.ResumeTiming();
    for (const auto& [u, v] : pairs) g.AddPreference(u, v).CheckOK();
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_PreferenceGraphRandomOrderInsert)->Arg(1024)->Arg(4096);

void BM_PreferenceGraphReachability(benchmark::State& state) {
  const int n = 2048;
  PreferenceGraph g(n);
  Rng rng(3);
  for (int e = 0; e < 4 * n; ++e) {
    const int u = static_cast<int>(rng.NextBounded(n));
    const int v = static_cast<int>(rng.NextBounded(n));
    if (u != v) g.AddPreference(u, v).CheckOK();
  }
  int u = 0, v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Prefers(u, v));
    u = (u + 13) % n;
    v = (v + 29) % n;
  }
}
BENCHMARK(BM_PreferenceGraphReachability);

void BM_FrequencyQuery(benchmark::State& state) {
  const Dataset ds = MakeData(4000, DataDistribution::kIndependent);
  const DominanceStructure s(PreferenceMatrix::FromKnown(ds));
  int u = 0, v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Frequency(u, v));
    u = (u + 17) % 4000;
    v = (v + 31) % 4000;
  }
}
BENCHMARK(BM_FrequencyQuery);

// The CSV codec on a dataset shaped like the end-to-end benchmark's
// (|AK| = 4, |AC| = 1), through a file as the benchmark's setup does.
std::string CsvBenchPath() {
  return (std::filesystem::temp_directory_path() / "crowdsky_bm_csv.csv")
      .string();
}

void BM_CsvWrite(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kIndependent);
  const std::string path = CsvBenchPath();
  for (auto _ : state) WriteCsvFile(ds, path).CheckOK();
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvWrite)->Arg(3000)->Unit(benchmark::kMicrosecond);

void BM_CsvRead(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kIndependent);
  const std::string path = CsvBenchPath();
  WriteCsvFile(ds, path).CheckOK();
  for (auto _ : state) {
    Result<Dataset> read = ReadCsvFile(path);
    benchmark::DoNotOptimize(read.ok());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvRead)->Arg(3000)->Unit(benchmark::kMicrosecond);

void BM_CrowdSkyEndToEnd(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kIndependent);
  const DominanceStructure structure(PreferenceMatrix::FromKnown(ds));
  for (auto _ : state) {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    benchmark::DoNotOptimize(
        RunCrowdSky(ds, structure, &session, {}).questions);
  }
}
BENCHMARK(BM_CrowdSkyEndToEnd)->Arg(500)->Arg(2000);

void BM_ParallelSLEndToEnd(benchmark::State& state) {
  const Dataset ds = MakeData(static_cast<int>(state.range(0)),
                              DataDistribution::kIndependent);
  const DominanceStructure structure(PreferenceMatrix::FromKnown(ds),
                                     Reduction::kBuild);
  for (auto _ : state) {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    benchmark::DoNotOptimize(
        RunParallelSL(ds, structure, &session, {}).questions);
  }
}
BENCHMARK(BM_ParallelSLEndToEnd)->Arg(500)->Arg(2000);

void BM_SimulatedCrowdAnswer(benchmark::State& state) {
  const Dataset ds = MakeData(1000, DataDistribution::kIndependent);
  WorkerModel worker;
  SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(5), 7);
  int u = 0, v = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowd.AnswerPair({0, u, v}, {}));
    u = (u + 3) % 1000;
    v = (v + 11) % 1000;
    if (u == v) v = (v + 1) % 1000;
  }
}
BENCHMARK(BM_SimulatedCrowdAnswer);

}  // namespace
}  // namespace crowdsky
