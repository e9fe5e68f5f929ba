// The tentpole guarantee of the parallel substrate: every thread count
// produces bit-identical results. DominanceStructure construction, the
// partition/merge skylines, and the bench sweep cells must all match the
// threads=1 serial path exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/crowdsky.h"
#include "questions_sweep.h"
#include "rounds_sweep.h"

namespace crowdsky {
namespace {

Dataset MakeData(int n, DataDistribution dist, uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 4;
  opt.num_crowd = 1;
  opt.distribution = dist;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

void ExpectIdenticalStructures(const DominanceStructure& a,
                               const DominanceStructure& b) {
  ASSERT_EQ(a.size(), b.size());
  const int n = a.size();
  for (int t = 0; t < n; ++t) {
    ASSERT_EQ(a.dominating_set_size(t), b.dominating_set_size(t)) << t;
    ASSERT_EQ(a.DominatorsOf(t), b.DominatorsOf(t)) << t;
    ASSERT_EQ(a.dominatees(t).ToVector(), b.dominatees(t).ToVector()) << t;
    ASSERT_EQ(a.layer_of(t), b.layer_of(t)) << t;
    ASSERT_EQ(a.direct_dominators(t), b.direct_dominators(t)) << t;
  }
  EXPECT_EQ(a.evaluation_order(), b.evaluation_order());
  EXPECT_EQ(a.known_skyline(), b.known_skyline());
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (int l = 1; l <= a.num_layers(); ++l) {
    EXPECT_EQ(a.layer(l), b.layer(l)) << "layer " << l;
  }
}

TEST(ParallelDeterminismTest, DominanceStructureIdenticalAcrossThreadCounts) {
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    const Dataset ds = MakeData(600, dist, 42);
    const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
    std::unique_ptr<DominanceStructure> serial;
    {
      ScopedThreads one(1);
      serial = std::make_unique<DominanceStructure>(m, Reduction::kBuild);
    }
    for (const int threads : {2, 4, 7}) {
      ScopedThreads scoped(threads);
      const DominanceStructure parallel_built(m, Reduction::kBuild);
      ExpectIdenticalStructures(*serial, parallel_built);
    }
  }
}

TEST(ParallelDeterminismTest, MachineSkylinesIdenticalAboveThreshold) {
  // 600 > the 256-tuple parallel threshold, so threads>1 takes the
  // partition/merge path; the skyline set is unique, so outputs (both
  // sorted) must match exactly.
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    const Dataset ds = MakeData(600, dist, 7);
    const PreferenceMatrix m = PreferenceMatrix::FromKnown(ds);
    std::vector<int> bnl_serial, sfs_serial;
    {
      ScopedThreads one(1);
      bnl_serial = ComputeSkylineBNL(m);
      sfs_serial = ComputeSkylineSFS(m);
    }
    EXPECT_EQ(bnl_serial, sfs_serial);
    for (const int threads : {2, 4}) {
      ScopedThreads scoped(threads);
      EXPECT_EQ(ComputeSkylineBNL(m), bnl_serial) << threads;
      EXPECT_EQ(ComputeSkylineSFS(m), sfs_serial) << threads;
    }
  }
}

TEST(ParallelDeterminismTest, QuestionSweepCellsIdentical) {
  // One fig6-style cell: same dataset seed, same methods, measured under
  // threads=1 and threads=4 must give identical question/round/cost
  // numbers (the crowd simulation RNG is owned per cell).
  const auto measure = [](const bench::MethodSpec& method) {
    const Dataset ds = MakeData(300, DataDistribution::kIndependent, 1000);
    const DominanceStructure structure(PreferenceMatrix::FromKnown(ds));
    return bench::MeasureQuestionCell(ds, structure, method);
  };
  for (const bench::MethodSpec& method : bench::QuestionMethods()) {
    bench::CellMetrics serial_cell, parallel_cell;
    {
      ScopedThreads one(1);
      serial_cell = measure(method);
    }
    {
      ScopedThreads four(4);
      parallel_cell = measure(method);
    }
    EXPECT_EQ(serial_cell.questions, parallel_cell.questions) << method.name;
    EXPECT_EQ(serial_cell.rounds, parallel_cell.rounds) << method.name;
    EXPECT_EQ(serial_cell.cost, parallel_cell.cost) << method.name;
  }
}

TEST(ParallelDeterminismTest, RoundsSweepCellsIdentical) {
  const auto measure = [](size_t method) {
    const Dataset ds =
        MakeData(300, DataDistribution::kAntiCorrelated, 2000);
    const DominanceStructure structure(PreferenceMatrix::FromKnown(ds),
                                       Reduction::kBuild);
    return bench::MeasureRoundsCell(ds, structure, method);
  };
  for (size_t method = 0; method < bench::RoundsMethods().size(); ++method) {
    bench::CellMetrics serial_cell, parallel_cell;
    {
      ScopedThreads one(1);
      serial_cell = measure(method);
    }
    {
      ScopedThreads four(4);
      parallel_cell = measure(method);
    }
    const std::string& name = bench::RoundsMethods()[method];
    EXPECT_EQ(serial_cell.questions, parallel_cell.questions) << name;
    EXPECT_EQ(serial_cell.rounds, parallel_cell.rounds) << name;
    EXPECT_EQ(serial_cell.cost, parallel_cell.cost) << name;
  }
}

TEST(ParallelDeterminismTest, CrowdSkyEndToEndIdentical) {
  const Dataset ds = MakeData(400, DataDistribution::kIndependent, 99);
  const DominanceStructure structure(PreferenceMatrix::FromKnown(ds));
  const auto run = [&] {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    return RunCrowdSky(ds, structure, &session, {});
  };
  int64_t serial_questions = 0, serial_rounds = 0;
  std::vector<int> serial_skyline;
  {
    ScopedThreads one(1);
    const AlgoResult r = run();
    serial_questions = r.questions;
    serial_rounds = r.rounds;
    serial_skyline = r.skyline;
  }
  {
    ScopedThreads four(4);
    const AlgoResult r = run();
    EXPECT_EQ(r.questions, serial_questions);
    EXPECT_EQ(r.rounds, serial_rounds);
    EXPECT_EQ(r.skyline, serial_skyline);
  }
}

}  // namespace
}  // namespace crowdsky
