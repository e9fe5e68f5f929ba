#include "skyline/dominance_structure.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "data/generator.h"
#include "data/toy.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

DominanceStructure ToyStructure() {
  return DominanceStructure(PreferenceMatrix::FromKnown(MakeToyDataset()),
                            Reduction::kBuild);
}

std::set<char> Labels(const std::vector<int>& ids) {
  std::set<char> out;
  for (const int id : ids) out.insert(static_cast<char>('a' + id));
  return out;
}

TEST(DominanceStructureToyTest, Table1DominatingSets) {
  const DominanceStructure s = ToyStructure();
  const std::map<char, std::set<char>> expected = {
      {'a', {'b'}},
      {'c', {'a', 'b', 'e'}},
      {'d', {'b', 'e'}},
      {'f', {'a', 'b', 'd', 'e'}},
      {'g', {'e'}},
      {'h', {'b', 'd', 'e', 'g', 'i'}},
      {'j', {'a', 'b', 'd', 'e', 'f', 'g', 'h', 'i'}},
      {'k', {'i', 'l'}},
  };
  for (const auto& [label, ds] : expected) {
    EXPECT_EQ(Labels(s.DominatorsOf(ToyId(label))), ds) << label;
  }
  // Skyline tuples have empty dominating sets.
  for (const char label : {'b', 'e', 'i', 'l'}) {
    EXPECT_EQ(s.dominating_set_size(ToyId(label)), 0) << label;
  }
}

TEST(DominanceStructureToyTest, Example3TotalQuestionCount) {
  // Sum of |DS(t)| = 26 questions for the DSet-only method.
  const DominanceStructure s = ToyStructure();
  int total = 0;
  for (int t = 0; t < s.size(); ++t) total += s.dominating_set_size(t);
  EXPECT_EQ(total, 26);
}

TEST(DominanceStructureToyTest, KnownSkyline) {
  const DominanceStructure s = ToyStructure();
  EXPECT_EQ(Labels(s.known_skyline()), (std::set<char>{'b', 'e', 'i', 'l'}));
}

TEST(DominanceStructureToyTest, EvaluationOrderSortedBySize) {
  const DominanceStructure s = ToyStructure();
  const std::vector<int>& order = s.evaluation_order();
  ASSERT_EQ(order.size(), 12u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(s.dominating_set_size(order[i - 1]),
              s.dominating_set_size(order[i]));
  }
  // Table 2(a) ordering: skyline tuples first, then a,g | d,k | c | f | h | j.
  EXPECT_EQ(order[4], ToyId('a'));
  EXPECT_EQ(order[5], ToyId('g'));
  EXPECT_EQ(order[6], ToyId('d'));
  EXPECT_EQ(order[7], ToyId('k'));
  EXPECT_EQ(order[8], ToyId('c'));
  EXPECT_EQ(order[9], ToyId('f'));
  EXPECT_EQ(order[10], ToyId('h'));
  EXPECT_EQ(order[11], ToyId('j'));
}

TEST(DominanceStructureToyTest, Figure5SkylineLayers) {
  const DominanceStructure s = ToyStructure();
  EXPECT_EQ(s.num_layers(), 4);
  EXPECT_EQ(Labels(s.layer(1)), (std::set<char>{'b', 'e', 'i', 'l'}));
  EXPECT_EQ(Labels(s.layer(2)), (std::set<char>{'a', 'd', 'g', 'k'}));
  EXPECT_EQ(Labels(s.layer(3)), (std::set<char>{'c', 'f', 'h'}));
  EXPECT_EQ(Labels(s.layer(4)), (std::set<char>{'j'}));
}

TEST(DominanceStructureToyTest, Table3DirectDominators) {
  const DominanceStructure s = ToyStructure();
  const std::map<char, std::set<char>> expected = {
      {'a', {'b'}},      {'g', {'e'}},           {'d', {'b', 'e'}},
      {'k', {'i', 'l'}}, {'c', {'a', 'e'}},      {'f', {'a', 'd'}},
      {'h', {'d', 'g', 'i'}},                    {'j', {'f', 'h'}},
  };
  for (const auto& [label, c] : expected) {
    EXPECT_EQ(Labels(s.direct_dominators(ToyId(label))), c) << label;
  }
}

TEST(DominanceStructureToyTest, FrequencyExamples) {
  const DominanceStructure s = ToyStructure();
  // freq(u, v) = common dominatees in AK. b dominates {a,c,d,f,h,j};
  // e dominates {c,d,f,g,h,j}; intersection {c,d,f,h,j} = 5.
  EXPECT_EQ(s.Frequency(ToyId('b'), ToyId('e')), 5u);
  EXPECT_EQ(s.Frequency(ToyId('i'), ToyId('l')), 1u);  // both dominate k
  EXPECT_EQ(s.Frequency(ToyId('b'), ToyId('l')), 0u);
  // Symmetry.
  EXPECT_EQ(s.Frequency(ToyId('e'), ToyId('b')), 5u);
}

TEST(DominanceStructureTest, RandomizedInvariants) {
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    GeneratorOptions opt;
    opt.cardinality = 250;
    opt.num_known = 3;
    opt.num_crowd = 1;
    opt.distribution = dist;
    opt.seed = 11;
    const Dataset ds = GenerateDataset(opt).ValueOrDie();
    const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
    const DominanceStructure s(m, Reduction::kBuild);

    for (int t = 0; t < s.size(); ++t) {
      // Dominator/dominatee bitsets are transposes of each other.
      s.dominator_bits(t).ForEachSetBit([&](size_t u) {
        EXPECT_TRUE(s.dominatees(static_cast<int>(u))
                        .Test(static_cast<size_t>(t)));
        EXPECT_TRUE(m.Dominates(static_cast<int>(u), t));
      });
      EXPECT_EQ(s.dominator_bits(t).Count(),
                static_cast<size_t>(s.dominating_set_size(t)));
      EXPECT_FALSE(s.Dominates(t, t));

      // Lemma 3: s in DS(t) implies |DS(s)| < |DS(t)|.
      for (const int u : s.DominatorsOf(t)) {
        EXPECT_LT(s.dominating_set_size(u), s.dominating_set_size(t));
      }

      // Layer of t is one more than the max layer among dominators.
      int max_layer = 0;
      for (const int u : s.DominatorsOf(t)) {
        max_layer = std::max(max_layer, s.layer_of(u));
      }
      EXPECT_EQ(s.layer_of(t), max_layer + 1);

      // Direct dominators: dominate t with no dominator strictly between.
      for (const int u : s.direct_dominators(t)) {
        EXPECT_TRUE(m.Dominates(u, t));
        for (const int w : s.DominatorsOf(t)) {
          EXPECT_FALSE(u != w && m.Dominates(u, w))
              << "direct dominator " << u << " has intermediate " << w;
        }
      }
      EXPECT_EQ(s.direct_dominators(t).empty(),
                s.dominating_set_size(t) == 0);
    }

    // Layers partition R and layer 1 is the known skyline.
    size_t layer_total = 0;
    for (int l = 1; l <= s.num_layers(); ++l) layer_total += s.layer(l).size();
    EXPECT_EQ(layer_total, static_cast<size_t>(s.size()));
    EXPECT_EQ(s.layer(1), s.known_skyline());
    EXPECT_EQ(s.known_skyline(), ComputeSkylineSFS(m));

    // No intra-layer dominance.
    for (int l = 1; l <= s.num_layers(); ++l) {
      const auto& layer = s.layer(l);
      for (const int a : layer) {
        for (const int b : layer) {
          EXPECT_FALSE(m.Dominates(a, b));
        }
      }
    }
  }
}

TEST(DominanceStructureTest, FrequencyMatchesBruteForce) {
  GeneratorOptions opt;
  opt.cardinality = 80;
  opt.num_known = 2;
  opt.num_crowd = 0;
  const Dataset ds = GenerateDataset(opt).ValueOrDie();
  const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
  const DominanceStructure s(m);
  for (int u = 0; u < s.size(); u += 7) {
    for (int v = u + 1; v < s.size(); v += 5) {
      size_t expected = 0;
      for (int x = 0; x < s.size(); ++x) {
        if (m.Dominates(u, x) && m.Dominates(v, x)) ++expected;
      }
      EXPECT_EQ(s.Frequency(u, v), expected);
    }
  }
}

TEST(DominanceStructureTest, DuplicateRowsDoNotDominate) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 1, 0.1}, {1, 1, 0.9}, {2, 2, 0.5}});
  ds.status().CheckOK();
  const DominanceStructure s(PreferenceMatrix::FromKnown(*ds));
  EXPECT_FALSE(s.Dominates(0, 1));
  EXPECT_FALSE(s.Dominates(1, 0));
  EXPECT_TRUE(s.Dominates(0, 2));
  EXPECT_TRUE(s.Dominates(1, 2));
  EXPECT_EQ(s.dominating_set_size(2), 2);
}

TEST(DominanceStructureTest, SingleTuple) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1), {{1, 2, 3}});
  ds.status().CheckOK();
  const DominanceStructure s(PreferenceMatrix::FromKnown(*ds),
                             Reduction::kBuild);
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s.num_layers(), 1);
  EXPECT_EQ(s.known_skyline(), std::vector<int>{0});
}

// Every field a lean build holds equals the full build's, on every
// backend, across the word-boundary sizes n % 64 in {0, 1, 63}; the full
// builds agree on c(t) and the layers across backends, and the brute-force
// auditor accepts them.
TEST(DominanceStructureTest, LeanAndFullBuildsAgreeOnEveryBackend) {
  std::vector<KernelBackend> backends = {KernelBackend::kLegacy,
                                         KernelBackend::kScalar};
  if (CpuSupportsAvx2()) backends.push_back(KernelBackend::kAvx2);
  uint64_t seed = 40;
  for (const int n : {64, 65, 127, 128, 129, 191}) {
    for (const auto dist : {DataDistribution::kIndependent,
                            DataDistribution::kAntiCorrelated}) {
      GeneratorOptions opt;
      opt.cardinality = n;
      opt.num_known = 3;
      opt.num_crowd = 1;
      opt.distribution = dist;
      opt.seed = ++seed;
      const Dataset ds = GenerateDataset(opt).ValueOrDie();
      const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
      const DominanceStructure reference(m, KernelBackend::kLegacy,
                                         Reduction::kBuild);
      audit::AuditReport report;
      audit::InvariantAuditor().AuditDominanceStructure(reference, m, &report);
      ASSERT_TRUE(report.ok()) << report.ToString();
      for (const KernelBackend backend : backends) {
        const std::string label = "n=" + std::to_string(n) + " " +
                                  KernelBackendName(backend) + " " +
                                  DataDistributionName(dist);
        const DominanceStructure lean(m, backend);
        const DominanceStructure full(m, backend, Reduction::kBuild);
        EXPECT_FALSE(lean.has_reduction()) << label;
        EXPECT_TRUE(full.has_reduction()) << label;
        ASSERT_EQ(lean.size(), full.size()) << label;
        for (int t = 0; t < n; ++t) {
          EXPECT_EQ(lean.dominator_bits(t), full.dominator_bits(t)) << label;
          EXPECT_EQ(lean.dominatees(t), full.dominatees(t)) << label;
          EXPECT_EQ(lean.dominating_set_size(t), full.dominating_set_size(t))
              << label;
          EXPECT_EQ(full.direct_dominators(t), reference.direct_dominators(t))
              << label << " t=" << t;
          EXPECT_EQ(full.layer_of(t), reference.layer_of(t)) << label;
        }
        EXPECT_EQ(lean.evaluation_order(), full.evaluation_order()) << label;
        EXPECT_EQ(lean.known_skyline(), full.known_skyline()) << label;
        ASSERT_EQ(full.num_layers(), reference.num_layers()) << label;
        for (int l = 1; l <= full.num_layers(); ++l) {
          EXPECT_EQ(full.layer(l), reference.layer(l)) << label;
        }
      }
    }
  }
}

TEST(DominanceStructureDeathTest, ReductionAccessorsAbortOnLeanBuild) {
  const DominanceStructure lean(PreferenceMatrix::FromKnown(MakeToyDataset()));
  EXPECT_DEATH(lean.direct_dominators(ToyId('j')), "Reduction::kBuild");
  EXPECT_DEATH(lean.layer_of(ToyId('j')), "Reduction::kBuild");
  EXPECT_DEATH(lean.num_layers(), "Reduction::kBuild");
  EXPECT_DEATH(lean.layer(1), "Reduction::kBuild");
}

}  // namespace
}  // namespace crowdsky
