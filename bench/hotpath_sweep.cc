// Hot-path speed sweep: the machine-side dominance work that every crowd
// driver pays before (and between) crowd questions, measured across the
// kernel backends of skyline/dominance_kernels.h.
//
//  * structure — full DominanceStructure construction, c(t) and layers
//    included (the O(n^2) fill dominates preprocessing) at n up to 10^5,
//    legacy per-pair Compare vs the batched scalar and AVX2 kernels,
//  * skyline — sort-filter skyline (ComputeSkylineSFS) at n up to 10^6,
//    including the anti-correlated worst case and a dimensionality sweep.
//
// Every cell cross-checks its result against the legacy backend before it
// is recorded, so a speedup number can never come from a wrong answer.
// Emits BENCH_hotpath.json. `--smoke` shrinks to CI-sized cells.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "skyline/algorithms.h"
#include "skyline/dominance_kernels.h"
#include "skyline/dominance_structure.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crowdsky;  // NOLINT(google-build-using-namespace): bench mains read like paper pseudocode
  using namespace crowdsky::bench;  // NOLINT(google-build-using-namespace): bench mains read like paper pseudocode
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  JsonReportScope report("hotpath");
  const int runs = Runs();

  std::vector<KernelBackend> backends = {KernelBackend::kLegacy,
                                         KernelBackend::kScalar};
  if (CpuSupportsAvx2()) {
    backends.push_back(KernelBackend::kAvx2);
  } else {
    std::printf("note: CPU lacks AVX2; avx2 cells skipped\n");
  }

  const auto make_known = [](int n, int d, DataDistribution dist,
                             uint64_t seed) {
    GeneratorOptions gen;
    gen.cardinality = n;
    gen.num_known = d;
    gen.num_crowd = 0;
    gen.distribution = dist;
    gen.seed = seed;
    return PreferenceMatrix::FromKnown(GenerateDataset(gen).ValueOrDie());
  };

  // -------------------------------------------------------------------
  // Section 1: DominanceStructure construction.
  // -------------------------------------------------------------------
  Section("DominanceStructure build (d=4, independent)");
  Table stable({"n", "threads", "backend", "wall ms", "Mpairs/s",
                "speedup vs legacy"});
  stable.PrintHeader();
  struct StructCell {
    int n;
    int threads;
  };
  std::vector<StructCell> struct_cells;
  if (smoke) {
    struct_cells = {{2000, 1}};
  } else {
    struct_cells = {{10000, 1}, {10000, 4}, {100000, 1}};
  }
  for (const StructCell& cell : struct_cells) {
    const PreferenceMatrix m =
        make_known(cell.n, 4, DataDistribution::kIndependent, 42);
    const double pairs =
        0.5 * static_cast<double>(cell.n) * static_cast<double>(cell.n - 1);
    double legacy_ms = 0;
    size_t reference_skyline = 0;
    for (const KernelBackend backend : backends) {
      ScopedThreads scope(cell.threads);
      double wall_ms = 0;
      size_t skyline_size = 0;
      for (int run = 0; run < runs; ++run) {
        const auto start = std::chrono::steady_clock::now();
        const DominanceStructure structure(m, backend, Reduction::kBuild);
        const double ms = MillisSince(start);
        wall_ms += ms;
        skyline_size = structure.known_skyline().size();
        BenchReport::Get().AddCell(
            "structure",
            "n=" + std::to_string(cell.n) +
                " threads=" + std::to_string(cell.threads),
            KernelBackendName(backend), run,
            {{"wall_ms", ms},
             {"mpairs_per_s", pairs / ms / 1e3},
             {"skyline_size", static_cast<double>(skyline_size)}});
      }
      wall_ms /= runs;
      if (backend == KernelBackend::kLegacy) {
        legacy_ms = wall_ms;
        reference_skyline = skyline_size;
      } else {
        // A speedup from a wrong answer is no speedup: the known skyline
        // (and by the differential tests, every bit) must match legacy.
        CROWDSKY_CHECK(skyline_size == reference_skyline);
      }
      stable.PrintCell(static_cast<int64_t>(cell.n));
      stable.PrintCell(static_cast<int64_t>(cell.threads));
      stable.PrintCell(KernelBackendName(backend));
      stable.PrintCell(wall_ms);
      stable.PrintCell(pairs / wall_ms / 1e3);
      stable.PrintCell(legacy_ms / wall_ms);
      stable.EndRow();
    }
  }

  // -------------------------------------------------------------------
  // Section 2: sort-filter skyline.
  // -------------------------------------------------------------------
  Section("Skyline SFS sweep");
  Table sktable({"dist", "n", "d", "threads", "backend", "wall ms",
                 "skyline", "speedup vs legacy"});
  sktable.PrintHeader();
  struct SkyCell {
    DataDistribution dist;
    int n;
    int d;
    int threads;
  };
  std::vector<SkyCell> sky_cells;
  if (smoke) {
    sky_cells = {{DataDistribution::kIndependent, 5000, 4, 1},
                 {DataDistribution::kAntiCorrelated, 5000, 4, 1}};
  } else {
    sky_cells = {
        {DataDistribution::kIndependent, 10000, 4, 1},
        {DataDistribution::kIndependent, 100000, 4, 1},
        {DataDistribution::kIndependent, 100000, 4, 4},
        {DataDistribution::kIndependent, 1000000, 4, 1},
        {DataDistribution::kIndependent, 1000000, 4, 4},
        {DataDistribution::kIndependent, 100000, 2, 1},
        {DataDistribution::kIndependent, 100000, 8, 1},
        {DataDistribution::kAntiCorrelated, 10000, 4, 1},
        {DataDistribution::kAntiCorrelated, 100000, 4, 1},
        {DataDistribution::kAntiCorrelated, 100000, 4, 4},
    };
  }
  for (const SkyCell& cell : sky_cells) {
    const PreferenceMatrix m = make_known(cell.n, cell.d, cell.dist, 42);
    double legacy_ms = 0;
    std::vector<int> reference;
    for (const KernelBackend backend : backends) {
      ScopedThreads scope(cell.threads);
      double wall_ms = 0;
      std::vector<int> skyline;
      for (int run = 0; run < runs; ++run) {
        const auto start = std::chrono::steady_clock::now();
        skyline = ComputeSkylineSFS(m, backend);
        const double ms = MillisSince(start);
        wall_ms += ms;
        BenchReport::Get().AddCell(
            "skyline",
            std::string(DataDistributionName(cell.dist)) +
                " n=" + std::to_string(cell.n) +
                " d=" + std::to_string(cell.d) +
                " threads=" + std::to_string(cell.threads),
            KernelBackendName(backend), run,
            {{"wall_ms", ms},
             {"skyline_size", static_cast<double>(skyline.size())}});
      }
      wall_ms /= runs;
      if (backend == KernelBackend::kLegacy) {
        legacy_ms = wall_ms;
        reference = skyline;
      } else {
        CROWDSKY_CHECK(skyline == reference);
      }
      sktable.PrintCell(DataDistributionName(cell.dist));
      sktable.PrintCell(static_cast<int64_t>(cell.n));
      sktable.PrintCell(static_cast<int64_t>(cell.d));
      sktable.PrintCell(static_cast<int64_t>(cell.threads));
      sktable.PrintCell(KernelBackendName(backend));
      sktable.PrintCell(wall_ms);
      sktable.PrintCell(static_cast<int64_t>(skyline.size()));
      sktable.PrintCell(legacy_ms / wall_ms);
      sktable.EndRow();
    }
  }
  return 0;
}
