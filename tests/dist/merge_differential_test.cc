// Differential suite for the sharded coordinator: on fault-free inputs the
// k-shard merged skyline must equal the single-process (k = 1 and direct
// engine) skyline, for every CrowdSky driver x data distribution x schema x
// partition scheme. Every run audits itself (in-driver rules inside the
// shard children, shard.* rules in the coordinator), so a conservation
// violation crashes the run rather than slipping past the equality checks.
//
// This binary owns main(): with --crowdsky_shard it IS a shard child;
// otherwise it runs the gtest suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/generator.h"
#include "dist/coordinator.h"
#include "dist/shard_runner.h"
#include "testing/temp_dir.h"

namespace crowdsky::dist {
namespace {

constexpr int kCardinality = 24;

Dataset MakeData(DataDistribution distribution, int num_known, int num_crowd,
                 uint64_t seed) {
  GeneratorOptions gen;
  gen.cardinality = kCardinality;
  gen.num_known = num_known;
  gen.num_crowd = num_crowd;
  gen.distribution = distribution;
  gen.seed = seed;
  return GenerateDataset(gen).ValueOrDie();
}

EngineOptions PerfectEngine(Algorithm algorithm) {
  EngineOptions engine;
  engine.algorithm = algorithm;
  engine.oracle = OracleKind::kPerfect;
  engine.crowdsky.audit = true;
  return engine;
}

DistResult RunDist(const Dataset& data, const EngineOptions& engine, int k,
                   const std::string& dir_tag,
                   PartitionScheme partition = PartitionScheme::kRoundRobin) {
  DistOptions options;
  options.shards = k;
  options.partition = partition;
  options.engine = engine;
  options.run_dir = crowdsky::testing::FreshTempDir(dir_tag);
  const Result<DistResult> result = RunShardedSkylineQuery(data, options);
  CROWDSKY_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return result.ValueOrDie();
}

constexpr Algorithm kDrivers[] = {Algorithm::kCrowdSkySerial,
                                  Algorithm::kParallelDSet,
                                  Algorithm::kParallelSL};

TEST(MergeDifferentialTest, MatchesSingleProcessAcrossDriversAndDistributions) {
  constexpr DataDistribution kDistributions[] = {
      DataDistribution::kIndependent, DataDistribution::kAntiCorrelated,
      DataDistribution::kCorrelated};
  for (const Algorithm algorithm : kDrivers) {
    for (const DataDistribution distribution : kDistributions) {
      const Dataset data = MakeData(distribution, 2, 1, 7);
      const EngineOptions engine = PerfectEngine(algorithm);
      const EngineResult direct =
          RunSkylineQuery(data, engine).ValueOrDie();
      for (const int k : {1, 2, 4}) {
        const std::string tag = std::string("mdiff_") +
                                AlgorithmName(algorithm) + "_" +
                                DataDistributionName(distribution) + "_k" +
                                std::to_string(k);
        const DistResult sharded = RunDist(data, engine, k, tag);
        EXPECT_EQ(sharded.skyline, direct.algo.skyline) << tag;
        EXPECT_EQ(sharded.skyline_labels, direct.skyline_labels) << tag;
        EXPECT_TRUE(sharded.completeness.complete) << tag;
        EXPECT_TRUE(sharded.completeness.undetermined_tuples.empty()) << tag;
        EXPECT_EQ(sharded.shards_dead, 0) << tag;
        EXPECT_EQ(sharded.restarts_total, 0) << tag;
        EXPECT_EQ(sharded.merge.ran, k > 1) << tag;
      }
    }
  }
}

TEST(MergeDifferentialTest, MatchesSingleProcessAcrossSchemas) {
  struct Schema {
    int num_known;
    int num_crowd;
  };
  constexpr Schema kSchemas[] = {{3, 1}, {2, 2}};
  for (const Algorithm algorithm : kDrivers) {
    for (const Schema schema : kSchemas) {
      const Dataset data = MakeData(DataDistribution::kIndependent,
                                    schema.num_known, schema.num_crowd, 11);
      const EngineOptions engine = PerfectEngine(algorithm);
      const EngineResult direct =
          RunSkylineQuery(data, engine).ValueOrDie();
      const std::string tag = std::string("mschema_") +
                              AlgorithmName(algorithm) + "_" +
                              std::to_string(schema.num_known) + "k" +
                              std::to_string(schema.num_crowd) + "c";
      const DistResult sharded = RunDist(data, engine, 2, tag);
      EXPECT_EQ(sharded.skyline, direct.algo.skyline) << tag;
      EXPECT_TRUE(sharded.completeness.complete) << tag;
    }
  }
}

TEST(MergeDifferentialTest, PartitionSchemeDoesNotChangeTheSkyline) {
  const Dataset data = MakeData(DataDistribution::kIndependent, 2, 1, 13);
  const EngineOptions engine = PerfectEngine(Algorithm::kParallelSL);
  const EngineResult direct = RunSkylineQuery(data, engine).ValueOrDie();
  for (const PartitionScheme scheme :
       {PartitionScheme::kRoundRobin, PartitionScheme::kBlock,
        PartitionScheme::kHash}) {
    const std::string tag =
        std::string("mpart_") + PartitionSchemeName(scheme);
    const DistResult sharded = RunDist(data, engine, 3, tag, scheme);
    EXPECT_EQ(sharded.skyline, direct.algo.skyline) << tag;
    EXPECT_TRUE(sharded.completeness.complete) << tag;
  }
}

TEST(MergeDifferentialTest, MergeReusesShardAnswersAndConservesAccounting) {
  const Dataset data = MakeData(DataDistribution::kIndependent, 2, 1, 17);
  const EngineOptions engine = PerfectEngine(Algorithm::kParallelSL);
  const DistResult sharded = RunDist(data, engine, 2, "mreuse");

  ASSERT_TRUE(sharded.merge.ran);
  // Shards export their resolved candidate answers; with two shards over
  // one dataset there is always at least one intra-shard candidate pair.
  EXPECT_GT(sharded.merge.imported_answers, 0);
  EXPECT_GT(sharded.merge.candidates, 0);

  int64_t shard_questions = 0;
  double shard_cost = 0.0;
  for (const ShardReport& shard : sharded.shards) {
    EXPECT_EQ(shard.state, ShardReport::State::kCompleted);
    EXPECT_EQ(shard.restarts, 0);
    EXPECT_FALSE(shard.resumed);
    shard_questions += shard.questions;
    shard_cost += shard.cost_usd + shard.cost_lost_usd;
  }
  EXPECT_EQ(sharded.total_questions,
            shard_questions + sharded.merge.questions);
  EXPECT_NEAR(sharded.total_cost_usd, shard_cost + sharded.merge.cost_usd,
              1e-9);
  EXPECT_EQ(sharded.cost_lost_usd, 0.0);
  // Latency model: shards run concurrently, the merge rounds are the
  // bounded extra.
  int64_t max_rounds = 0;
  for (const ShardReport& shard : sharded.shards) {
    max_rounds = std::max(max_rounds, shard.rounds);
  }
  EXPECT_EQ(sharded.rounds, max_rounds + sharded.merge.rounds);
}

TEST(MergeDifferentialTest, NoisyOracleRunsAreSeedDeterministic) {
  const Dataset data = MakeData(DataDistribution::kAntiCorrelated, 2, 1, 19);
  EngineOptions engine = PerfectEngine(Algorithm::kParallelDSet);
  engine.oracle = OracleKind::kSimulated;
  engine.worker.p_correct = 0.85;
  engine.seed = 1234;

  const DistResult a = RunDist(data, engine, 2, "mdet_a");
  const DistResult b = RunDist(data, engine, 2, "mdet_b");
  EXPECT_EQ(a.skyline, b.skyline);
  EXPECT_EQ(a.total_questions, b.total_questions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_EQ(a.merge.questions, b.merge.questions);
  EXPECT_EQ(a.merge.imported_answers, b.merge.imported_answers);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].questions, b.shards[i].questions);
    EXPECT_EQ(a.shards[i].candidates, b.shards[i].candidates);
  }
}

TEST(MergeDifferentialTest, RejectsOptionsTheCoordinatorCannotHonor) {
  const Dataset data = MakeData(DataDistribution::kIndependent, 2, 1, 23);
  DistOptions options;
  options.engine = PerfectEngine(Algorithm::kParallelSL);
  options.run_dir = crowdsky::testing::FreshTempDir("mreject");

  DistOptions no_dir = options;
  no_dir.run_dir.clear();
  EXPECT_FALSE(RunShardedSkylineQuery(data, no_dir).ok());

  DistOptions too_many = options;
  too_many.shards = kCardinality + 1;
  EXPECT_FALSE(RunShardedSkylineQuery(data, too_many).ok());

  DistOptions baseline_algo = options;
  baseline_algo.engine.algorithm = Algorithm::kBaselineSort;
  EXPECT_FALSE(RunShardedSkylineQuery(data, baseline_algo).ok());

  DistOptions own_durability = options;
  own_durability.engine.durability.dir = options.run_dir;
  EXPECT_FALSE(RunShardedSkylineQuery(data, own_durability).ok());

  DistOptions bad_fault = options;
  bad_fault.faults.push_back(
      {.shard = 9, .kind = ShardFaultKind::kKillAtRound, .value = 1});
  EXPECT_FALSE(RunShardedSkylineQuery(data, bad_fault).ok());
}

// A shard child never receives the oracle wrapper, so a sharded run that
// sets one is refused instead of silently running unwrapped.
TEST(MergeDifferentialTest, RejectsWrapOracle) {
  const Dataset data = MakeData(DataDistribution::kIndependent, 2, 1, 23);
  DistOptions options;
  options.engine = PerfectEngine(Algorithm::kParallelSL);
  options.run_dir = crowdsky::testing::FreshTempDir("mwrap");
  options.engine.wrap_oracle = [](std::unique_ptr<CrowdOracle> inner) {
    return inner;
  };
  const Result<DistResult> result = RunShardedSkylineQuery(data, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

}  // namespace
}  // namespace crowdsky::dist

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--crowdsky_shard") == 0) {
    return crowdsky::dist::RunShardChildMode(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
