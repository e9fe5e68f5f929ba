// Shared harness for Figures 8 and 9: number of rounds for Baseline,
// Serial, ParallelDSet and ParallelSL.
//
// Like questions_sweep.h, the (run x method) cells of each setting are
// independent and run concurrently on the shared thread pool; the printed
// averages accumulate in the historical serial order so output is
// identical for every CROWDSKY_THREADS value.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/crowdsky.h"
#include "questions_sweep.h"

namespace crowdsky::bench {

inline const std::vector<std::string>& RoundsMethods() {
  static const std::vector<std::string> kMethods = {
      "Baseline", "Serial", "ParallelDSet", "ParallelSL"};
  return kMethods;
}

inline CellMetrics MeasureRoundsCell(const Dataset& ds,
                                     const DominanceStructure& structure,
                                     size_t method) {
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  AlgoResult r;
  switch (method) {
    case 0: r = RunBaselineSort(ds, &session); break;
    case 1: r = RunCrowdSky(ds, structure, &session, {}); break;
    case 2: r = RunParallelDSet(ds, structure, &session, {}); break;
    default: r = RunParallelSL(ds, structure, &session, {}); break;
  }
  return {r.questions, r.rounds, AmtCostModel{}.Cost(r.questions_per_round)};
}

inline void RoundsSweep(const std::string& title, DataDistribution dist,
                        const std::vector<GeneratorOptions>& settings,
                        const std::vector<std::string>& labels) {
  Section(title);
  const std::vector<std::string>& methods = RoundsMethods();
  std::vector<std::string> headers = {"setting"};
  for (const auto& m : methods) headers.push_back(m);
  Table table(headers);
  table.PrintHeader();
  const auto runs = static_cast<size_t>(Runs());
  const size_t num_methods = methods.size();
  for (size_t i = 0; i < settings.size(); ++i) {
    std::vector<std::unique_ptr<Dataset>> datasets(runs);
    std::vector<std::unique_ptr<DominanceStructure>> structures(runs);
    ParallelFor(0, runs, 1, [&](size_t lo, size_t hi) {
      for (size_t run = lo; run < hi; ++run) {
        GeneratorOptions opt = settings[i];
        opt.distribution = dist;
        opt.seed = 2000 + static_cast<uint64_t>(run) * 41;
        datasets[run] =
            std::make_unique<Dataset>(GenerateDataset(opt).ValueOrDie());
        // Shared by every method, ParallelSL included: build c(t).
        structures[run] = std::make_unique<DominanceStructure>(
            PreferenceMatrix::FromKnown(*datasets[run]), Reduction::kBuild);
      }
    });
    std::vector<CellMetrics> cells(runs * num_methods);
    ParallelFor(0, cells.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t idx = lo; idx < hi; ++idx) {
        const size_t run = idx / num_methods;
        const size_t m = idx % num_methods;
        cells[idx] = MeasureRoundsCell(*datasets[run], *structures[run], m);
      }
    });
    std::vector<double> sums(num_methods, 0.0);
    for (size_t run = 0; run < runs; ++run) {
      for (size_t m = 0; m < num_methods; ++m) {
        sums[m] += static_cast<double>(cells[run * num_methods + m].rounds);
      }
    }
    table.PrintCell(labels[i]);
    for (const double sum : sums) {
      table.PrintCell(
          static_cast<int64_t>(sum / static_cast<double>(runs) + 0.5));
    }
    table.EndRow();
    for (size_t run = 0; run < runs; ++run) {
      for (size_t m = 0; m < num_methods; ++m) {
        const CellMetrics& c = cells[run * num_methods + m];
        BenchReport::Get().AddCell(
            title, labels[i], methods[m], static_cast<int>(run),
            {{"questions", static_cast<double>(c.questions)},
             {"rounds", static_cast<double>(c.rounds)},
             {"cost", c.cost}});
      }
    }
  }
}

}  // namespace crowdsky::bench
