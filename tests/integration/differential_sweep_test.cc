// Randomized differential sweep: 64 seeded configuration cells, each run
// through all three CrowdSky drivers with counters and auditing on, checked
// against the brute-force skyline and against each other. Every cell varies
// cardinality, distribution, schema width, thread count, fault plan and
// durability, so a regression in any driver/feature interaction shows up as
// a differential mismatch rather than only under a hand-picked config.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/crowdsky.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

constexpr Algorithm kDrivers[] = {Algorithm::kCrowdSkySerial,
                                  Algorithm::kParallelDSet,
                                  Algorithm::kParallelSL};

/// Everything one sweep cell varies, decoded deterministically from the
/// cell index so the sweep is reproducible and each cell is independent.
struct SweepCell {
  GeneratorOptions gen;
  int threads = 1;
  bool faults = false;
  bool durable = false;
  MultiAttributeStrategy multi_attr = MultiAttributeStrategy::kAllAtOnce;
};

SweepCell DecodeCell(int index) {
  Rng rng(uint64_t{0xd1ffe7e57} + static_cast<uint64_t>(index));
  SweepCell cell;
  cell.gen.cardinality = static_cast<int>(rng.UniformInt(24, 60));
  cell.gen.num_known = static_cast<int>(rng.UniformInt(2, 3));
  cell.gen.num_crowd = static_cast<int>(rng.UniformInt(1, 2));
  const DataDistribution kDists[] = {DataDistribution::kIndependent,
                                     DataDistribution::kAntiCorrelated,
                                     DataDistribution::kCorrelated};
  cell.gen.distribution = kDists[rng.UniformInt(0, 2)];
  cell.gen.seed = rng.Next();
  const int kThreadChoices[] = {1, 2, 4};
  cell.threads = kThreadChoices[rng.UniformInt(0, 2)];
  cell.faults = rng.Bernoulli(0.5);
  cell.durable = rng.Bernoulli(0.33);
  cell.multi_attr = rng.Bernoulli(0.5) ? MultiAttributeStrategy::kAllAtOnce
                                       : MultiAttributeStrategy::kRoundRobin;
  return cell;
}

EngineOptions CellOptions(const SweepCell& cell, Algorithm driver,
                          const std::string& journal_dir) {
  EngineOptions options;
  options.algorithm = driver;
  options.crowdsky.multi_attr = cell.multi_attr;
  // Counters on + audit on: the engine cross-checks every crowdsky.* /
  // journal.* counter against the session and journal ledgers and aborts
  // on any mismatch, so each cell is also an observability proof.
  options.crowdsky.audit = true;
  options.obs.level = obs::ObsLevel::kCounters;
  options.seed = cell.gen.seed ^ 0x5eedULL;
  if (cell.faults) {
    // Perfectly accurate workers on a faulty platform: resolved answers
    // are always right, so correctness checks stay exact while the retry
    // and degradation paths get exercised.
    options.oracle = OracleKind::kMarketplace;
    options.marketplace.pool_size = 40;
    options.marketplace.population.p_correct = 1.0;
    options.marketplace.faults.transient_error_rate = 0.10;
    options.marketplace.faults.hit_expiration_rate = 0.05;
    options.marketplace.faults.worker_no_show_rate = 0.10;
    options.marketplace.faults.straggler_rate = 0.05;
    options.retry.max_retries = 4;
  } else {
    options.oracle = OracleKind::kPerfect;
  }
  if (cell.durable) {
    options.durability.dir = journal_dir;
    options.durability.checkpoint_every_rounds = 4;
  }
  return options;
}

/// True iff `subset` (sorted) is contained in `superset` (sorted).
bool SortedContains(const std::vector<int>& superset,
                    const std::vector<int>& subset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

class DifferentialSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSweepTest, DriversAgreeWithBruteForce) {
  const int index = GetParam();
  const SweepCell cell = DecodeCell(index);
  SCOPED_TRACE("cell " + std::to_string(index) + ": n=" +
               std::to_string(cell.gen.cardinality) + " dist=" +
               DataDistributionName(cell.gen.distribution) + " known=" +
               std::to_string(cell.gen.num_known) + " crowd=" +
               std::to_string(cell.gen.num_crowd) + " threads=" +
               std::to_string(cell.threads) +
               (cell.faults ? " faults" : "") +
               (cell.durable ? " durable" : ""));

  const Dataset ds = GenerateDataset(cell.gen).ValueOrDie();
  const std::vector<int> truth = ComputeGroundTruthSkyline(ds);
  ScopedThreads threads(cell.threads);
  // The engine scores accuracy with the structure's SKY_AK instead of
  // recomputing it; the two must agree.
  const PreferenceMatrix known = PreferenceMatrix::FromKnown(ds);
  EXPECT_EQ(DominanceStructure(known).known_skyline(),
            ComputeSkylineSFS(known));

  std::vector<EngineResult> results;
  for (const Algorithm driver : kDrivers) {
    const std::string dir = crowdsky::testing::FreshTempDir(
        std::string("sweep_") + AlgorithmName(driver));
    const auto r = RunSkylineQuery(ds, CellOptions(cell, driver, dir));
    ASSERT_TRUE(r.ok()) << AlgorithmName(driver) << ": "
                        << r.status().ToString();
    results.push_back(*r);

    const AlgoResult& a = r->algo;
    const AccuracyMetrics recomputed =
        EvaluateNewSkylineAccuracy(ds, a.skyline);
    EXPECT_EQ(r->accuracy.f1, recomputed.f1) << AlgorithmName(driver);
    EXPECT_EQ(r->accuracy.truth_new, recomputed.truth_new);
    EXPECT_EQ(r->accuracy.retrieved_new, recomputed.retrieved_new);
    EXPECT_EQ(r->accuracy.correct_new, recomputed.correct_new);
    if (a.completeness.complete) {
      // Perfectly accurate answers: the exact skyline, regardless of the
      // fault plan, thread count or durability mode.
      EXPECT_EQ(a.skyline, truth) << AlgorithmName(driver);
    } else {
      // Retry caps ran dry: undetermined tuples stay in by default, so
      // the result must still cover the true skyline.
      EXPECT_TRUE(SortedContains(a.skyline, truth)) << AlgorithmName(driver);
      EXPECT_GT(a.completeness.unresolved_questions, 0);
    }

    // Deterministic counters are published from the run's own ledgers;
    // the externally visible AlgoResult must agree with them.
    const EngineResult::ObsInfo& o = r->obs;
    EXPECT_TRUE(o.enabled);
    EXPECT_FALSE(o.tracing);
    EXPECT_EQ(o.trace_events, 0);
    EXPECT_EQ(o.CounterOr("crowdsky.rounds"), a.rounds);
    EXPECT_EQ(o.CounterOr("crowdsky.round_questions_count"), a.rounds);
    EXPECT_EQ(o.CounterOr("crowdsky.round_questions_sum"), a.questions);
    EXPECT_EQ(o.CounterOr("crowdsky.worker_answers"), a.worker_answers);
    EXPECT_EQ(o.CounterOr("crowdsky.free_lookups"), a.free_lookups);
    EXPECT_EQ(o.CounterOr("crowdsky.retries"), a.retries);
    EXPECT_EQ(o.CounterOr("crowdsky.degraded_quorum"), a.degraded_quorum);
    EXPECT_EQ(o.CounterOr("crowdsky.failed_attempts"), a.failed_attempts);
    EXPECT_EQ(o.CounterOr("crowdsky.backoff_rounds"), a.backoff_rounds);
    EXPECT_EQ(o.CounterOr("crowdsky.unresolved_questions"),
              a.completeness.unresolved_questions);
    if (cell.durable) {
      EXPECT_EQ(o.CounterOr("journal.records_appended"),
                r->durability.new_records);
      EXPECT_EQ(o.CounterOr("journal.records_total"),
                r->durability.journal_records);
      EXPECT_GT(o.CounterOr("journal.bytes_appended"), 0);
    } else {
      EXPECT_EQ(o.CounterOr("journal.records_appended"), 0);
      EXPECT_EQ(o.CounterOr("journal.records_total"), -1);
    }
  }

  // Differential core: when every driver resolved everything they must
  // return the same skyline (all equal the brute-force one, checked above;
  // this keeps the property visible even if `truth` ever drifted).
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[0].algo.completeness.complete &&
        results[i].algo.completeness.complete) {
      EXPECT_EQ(results[i].algo.skyline, results[0].algo.skyline);
    }
  }
}

// The auditor only observes: with it off, every driver returns the same
// skyline and ledgers. (ParallelSL's structure carries c(t) either way;
// the other drivers' carries it in neither.)
TEST_P(DifferentialSweepTest, AuditOnAndOffGiveIdenticalResults) {
  const int index = GetParam();
  const SweepCell cell = DecodeCell(index);
  SCOPED_TRACE("cell " + std::to_string(index));
  const Dataset ds = GenerateDataset(cell.gen).ValueOrDie();
  ScopedThreads threads(cell.threads);
  for (const Algorithm driver : kDrivers) {
    std::vector<EngineResult> runs;
    for (const bool audit : {true, false}) {
      const std::string dir = crowdsky::testing::FreshTempDir(
          std::string("audit_") + (audit ? "on_" : "off_") +
          AlgorithmName(driver));
      EngineOptions options = CellOptions(cell, driver, dir);
      options.crowdsky.audit = audit;
      const auto r = RunSkylineQuery(ds, options);
      ASSERT_TRUE(r.ok()) << AlgorithmName(driver) << ": "
                          << r.status().ToString();
      runs.push_back(*r);
    }
    const AlgoResult& on = runs[0].algo;
    const AlgoResult& off = runs[1].algo;
    EXPECT_EQ(on.skyline, off.skyline) << AlgorithmName(driver);
    EXPECT_EQ(on.questions_per_round, off.questions_per_round)
        << AlgorithmName(driver);
    EXPECT_EQ(on.free_lookups, off.free_lookups) << AlgorithmName(driver);
    EXPECT_EQ(on.worker_answers, off.worker_answers) << AlgorithmName(driver);
    EXPECT_EQ(on.completeness.undetermined_tuples,
              off.completeness.undetermined_tuples)
        << AlgorithmName(driver);
    EXPECT_EQ(runs[0].cost_usd, runs[1].cost_usd) << AlgorithmName(driver);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialSweepTest,
                         ::testing::Range(0, 64));

}  // namespace
}  // namespace crowdsky
