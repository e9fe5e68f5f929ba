// Reproduces the paper's worked example (Tables 1-3, Examples 3-8) on the
// Figure 1 toy dataset and prints every intermediate artifact.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/crowdsky.h"

namespace {

using namespace crowdsky;  // NOLINT(google-build-using-namespace): bench mains read like paper pseudocode

std::string LabelSet(const Dataset& ds, const std::vector<int>& ids) {
  std::string out = "{";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += ds.tuple(ids[i]).label;
  }
  return out + "}";
}

void PrintDominatingSets(const Dataset& toy,
                         const DominanceStructure& structure) {
  bench::Section("Table 1(a): dominating sets");
  int total = 0;
  for (const int t : structure.evaluation_order()) {
    if (structure.dominating_set_size(t) == 0) continue;
    std::printf("  DS(%s) = %s\n", toy.tuple(t).label.c_str(),
                LabelSet(toy, structure.DominatorsOf(t)).c_str());
    total += structure.dominating_set_size(t);
  }
  std::printf("  total questions for DSet-only (Example 3): %d\n", total);
}

void PrintLayers(const Dataset& toy, const DominanceStructure& structure) {
  bench::Section("Figure 5: skyline layers");
  for (int l = 1; l <= structure.num_layers(); ++l) {
    std::printf("  SL%d = %s\n", l,
                LabelSet(toy, structure.layer(l)).c_str());
  }
  bench::Section("Direct dominators c(t) (Table 3, column 2)");
  for (const int t : structure.evaluation_order()) {
    if (structure.dominating_set_size(t) == 0) continue;
    std::printf("  c(%s) = %s\n", toy.tuple(t).label.c_str(),
                LabelSet(toy, structure.direct_dominators(t)).c_str());
  }
}

void RunAlgorithms(const Dataset& toy) {
  struct Row {
    const char* name;
    PruningConfig pruning;
  };
  const Row rows[] = {
      {"DSet exhaustive (Ex. 3)", PruningConfig::DSetExhaustive()},
      {"DSet", PruningConfig::DSetOnly()},
      {"P1 (Ex. 4)", PruningConfig::P1()},
      {"P1+P2", PruningConfig::P1P2()},
      {"P1+P2+P3 (Ex. 6)", PruningConfig::All()},
  };
  bench::Section("Serial CrowdSky at each pruning level");
  bench::Table table({"method", "questions", "rounds", "skyline"});
  table.PrintHeader();
  for (const Row& row : rows) {
    PerfectOracle oracle(toy);
    CrowdSession session(&oracle);
    CrowdSkyOptions options;
    options.pruning = row.pruning;
    const AlgoResult r = RunCrowdSky(toy, &session, options);
    table.PrintCell(std::string(row.name));
    table.PrintCell(r.questions);
    table.PrintCell(r.rounds);
    table.PrintCell(LabelSet(toy, r.skyline));
    table.EndRow();
    bench::BenchReport::Get().AddCell(
        "serial pruning levels", "toy", row.name, 0,
        {{"questions", static_cast<double>(r.questions)},
         {"rounds", static_cast<double>(r.rounds)}});
  }

  bench::Section("Parallelization (Examples 7-8 / Table 3)");
  bench::Table ptable({"method", "questions", "rounds"});
  ptable.PrintHeader();
  {
    PerfectOracle oracle(toy);
    CrowdSession session(&oracle);
    const AlgoResult r = RunParallelDSet(toy, &session, {});
    ptable.PrintCell(std::string("ParallelDSet"));
    ptable.PrintCell(r.questions);
    ptable.PrintCell(r.rounds);
    ptable.EndRow();
    bench::BenchReport::Get().AddCell(
        "parallelization", "toy", "ParallelDSet", 0,
        {{"questions", static_cast<double>(r.questions)},
         {"rounds", static_cast<double>(r.rounds)}});
  }
  {
    PerfectOracle oracle(toy);
    CrowdSession session(&oracle);
    const AlgoResult r = RunParallelSL(toy, &session, {});
    ptable.PrintCell(std::string("ParallelSL"));
    ptable.PrintCell(r.questions);
    ptable.PrintCell(r.rounds);
    ptable.EndRow();
    bench::BenchReport::Get().AddCell(
        "parallelization", "toy", "ParallelSL", 0,
        {{"questions", static_cast<double>(r.questions)},
         {"rounds", static_cast<double>(r.rounds)}});
    std::printf("  ParallelSL questions per round:");
    for (const int64_t q : r.questions_per_round) {
      std::printf(" %lld", static_cast<long long>(q));
    }
    std::printf("   (Table 3: 4 3 2 1 1 1)\n");
  }
}

}  // namespace

int main() {
  bench::JsonReportScope report("toy_walkthrough");
  const Dataset toy = MakeToyDataset();
  std::printf("CrowdSky toy walkthrough (Figure 1 dataset, 12 tuples)\n");
  const DominanceStructure structure(PreferenceMatrix::FromKnown(toy),
                                     Reduction::kBuild);
  PrintDominatingSets(toy, structure);
  PrintLayers(toy, structure);
  RunAlgorithms(toy);

  bench::Section("Section 3.4 anti-correlated example (Figure 3)");
  const Dataset ant = MakeAntiCorrelatedToyDataset();
  {
    PerfectOracle oracle(ant);
    CrowdSession session(&oracle);
    CrowdSkyOptions no_probe;
    no_probe.pruning = PruningConfig::P1P2();
    const AlgoResult r = RunCrowdSky(ant, &session, no_probe);
    std::printf("  without probing (P1+P2): %lld questions\n",
                static_cast<long long>(r.questions));
  }
  {
    PerfectOracle oracle(ant);
    CrowdSession session(&oracle);
    const AlgoResult r = RunCrowdSky(ant, &session, {});
    std::printf("  with probing (P1+P2+P3): %lld questions (paper: 9)\n",
                static_cast<long long>(r.questions));
  }
  return 0;
}
