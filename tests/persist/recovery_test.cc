// End-to-end crash/resume tests that run entirely in-process: a full
// durable run is performed, its journal is truncated to a prefix (the
// crash), and a resumed engine run must reproduce the uninterrupted
// result bit-identically without re-paying any question. The kill-point
// harness (kill_point_test.cc) covers the real-process variant.
#include "persist/recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/generator.h"
#include "persist/journal.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

Dataset SmallDataset(uint64_t seed = 3) {
  GeneratorOptions opt;
  opt.cardinality = 40;
  opt.num_known = 2;
  opt.num_crowd = 2;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

// ctest runs each parameterized instance as its own process, in
// parallel; folding the running test's unique name into the directory
// keeps concurrent instances from stomping each other's journals.
std::string FreshDir(const std::string& name) {
  return crowdsky::testing::FreshTempDir(name);
}

EngineOptions DurableOptions(Algorithm algo, const std::string& dir,
                             bool with_faults = false) {
  EngineOptions opt;
  opt.algorithm = algo;
  opt.seed = 99;
  opt.crowdsky.audit = true;
  opt.durability.dir = dir;
  if (with_faults) {
    opt.oracle = OracleKind::kMarketplace;
    opt.marketplace.faults.transient_error_rate = 0.08;
    opt.marketplace.faults.hit_expiration_rate = 0.04;
    opt.marketplace.faults.worker_no_show_rate = 0.1;
    opt.marketplace.faults.straggler_rate = 0.05;
  }
  return opt;
}

// Physically truncates the journal to its first `keep` records, as if the
// process had died right after the keep-th append.
void CrashAfter(const std::string& dir, size_t keep) {
  const std::string path = persist::JournalPath(dir);
  auto recovered = persist::ReadJournal(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_LE(keep, recovered->records.size());
  int64_t bytes = 24;  // header
  for (size_t i = 0; i < keep; ++i) {
    bytes +=
        static_cast<int64_t>(persist::EncodeRecord(recovered->records[i])
                                 .size());
  }
  ASSERT_TRUE(persist::TruncateJournal(path, bytes).ok());
}

void ExpectSameOutcome(const EngineResult& base, const EngineResult& got) {
  EXPECT_EQ(got.algo.skyline, base.algo.skyline);
  EXPECT_EQ(got.algo.questions, base.algo.questions);
  EXPECT_EQ(got.algo.rounds, base.algo.rounds);
  EXPECT_EQ(got.algo.retries, base.algo.retries);
  EXPECT_EQ(got.algo.failed_attempts, base.algo.failed_attempts);
  EXPECT_EQ(got.algo.degraded_quorum, base.algo.degraded_quorum);
  EXPECT_EQ(got.algo.free_lookups, base.algo.free_lookups);
  EXPECT_EQ(got.algo.contradictions, base.algo.contradictions);
  EXPECT_EQ(got.algo.questions_per_round, base.algo.questions_per_round);
  EXPECT_EQ(got.cost_usd, base.cost_usd);  // bit-identical, not NEAR
  EXPECT_EQ(got.accuracy.precision, base.accuracy.precision);
  EXPECT_EQ(got.accuracy.recall, base.accuracy.recall);
}

class RecoveryTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(RecoveryTest, DurableRunMatchesPlainRun) {
  const Dataset data = SmallDataset();
  EngineOptions durable =
      DurableOptions(GetParam(), FreshDir("recovery_plain"));
  EngineOptions plain = durable;
  plain.durability = {};
  const auto base = RunSkylineQuery(data, plain);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const auto with_journal = RunSkylineQuery(data, durable);
  ASSERT_TRUE(with_journal.ok()) << with_journal.status().ToString();
  ExpectSameOutcome(*base, *with_journal);
  EXPECT_TRUE(with_journal->durability.enabled);
  EXPECT_FALSE(with_journal->durability.resumed);
  EXPECT_GT(with_journal->durability.journal_records, 0);
}

TEST_P(RecoveryTest, ResumeFromTruncatedJournalIsBitIdentical) {
  const Dataset data = SmallDataset();
  const std::string dir = FreshDir("recovery_truncate");
  EngineOptions opt = DurableOptions(GetParam(), dir);
  const auto base = RunSkylineQuery(data, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const int64_t total = base->durability.journal_records;
  ASSERT_GT(total, 4);

  // Crash at several distinct journal offsets, resuming each time.
  for (const int64_t keep :
       {int64_t{1}, total / 3, total / 2, total - 1}) {
    SCOPED_TRACE("crash after record " + std::to_string(keep));
    // Re-run fresh (overwrites the journal), then cut it.
    const auto fresh = RunSkylineQuery(data, opt);
    ASSERT_TRUE(fresh.ok());
    CrashAfter(dir, static_cast<size_t>(keep));
    EngineOptions resume_opt = opt;
    resume_opt.durability.resume = true;
    const auto resumed = RunSkylineQuery(data, resume_opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameOutcome(*base, *resumed);
    EXPECT_TRUE(resumed->durability.resumed);
    // Nothing re-paid: the rebuilt journal is exactly as long as the
    // uninterrupted one (the final audit also checks one record per
    // question).
    EXPECT_EQ(resumed->durability.journal_records, total);
  }
}

TEST_P(RecoveryTest, ResumeUnderFaultsReplaysTheFaultTrace) {
  const Dataset data = SmallDataset(7);
  const std::string dir = FreshDir("recovery_faults");
  EngineOptions opt = DurableOptions(GetParam(), dir, /*with_faults=*/true);
  const auto base = RunSkylineQuery(data, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base->algo.retries + base->algo.failed_attempts, 0)
      << "fault plan produced no faults; test is vacuous";
  const int64_t total = base->durability.journal_records;
  const auto fresh = RunSkylineQuery(data, opt);
  ASSERT_TRUE(fresh.ok());
  CrashAfter(dir, static_cast<size_t>(total / 2));
  EngineOptions resume_opt = opt;
  resume_opt.durability.resume = true;
  const auto resumed = RunSkylineQuery(data, resume_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameOutcome(*base, *resumed);
  EXPECT_GT(resumed->durability.replayed_pair_attempts, 0);
}

TEST_P(RecoveryTest, JournalOnlyResumeWorksWithoutCheckpoints) {
  const Dataset data = SmallDataset();
  const std::string dir = FreshDir("recovery_nockpt");
  EngineOptions opt = DurableOptions(GetParam(), dir);
  // A checkpoint file left by an older build is removed with the journal
  // it described, and nothing writes a new one.
  std::filesystem::create_directories(dir);
  std::ofstream(persist::CheckpointPath(dir)) << "stale";
  const auto base = RunSkylineQuery(data, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_FALSE(
      std::filesystem::exists(persist::CheckpointPath(dir)));
  CrashAfter(dir, static_cast<size_t>(base->durability.journal_records / 2));
  EngineOptions resume_opt = opt;
  resume_opt.durability.resume = true;
  const auto resumed = RunSkylineQuery(data, resume_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameOutcome(*base, *resumed);
  EXPECT_GT(resumed->durability.replayed_pair_attempts, 0);
  EXPECT_FALSE(
      std::filesystem::exists(persist::CheckpointPath(dir)));
}

// One worker per question and no transitivity lookups: the drivers ask
// pairs the preference tree already implies, noisy answers contradict it,
// and a resume must reject exactly the answers the original run rejected.
TEST_P(RecoveryTest, ResumeWithOneNoisyWorkerKeepsContradictions) {
  const Dataset data = SmallDataset(5);
  const std::string dir = FreshDir("recovery_noisy");
  EngineOptions opt = DurableOptions(GetParam(), dir);
  opt.workers_per_question = 1;
  opt.crowdsky.pruning = PruningConfig::P1();
  const auto base = RunSkylineQuery(data, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base->algo.contradictions, 0)
      << "no contradictions at one worker; test is vacuous";
  const int64_t total = base->durability.journal_records;
  for (const int64_t keep : {total / 4, total / 2, total - 1}) {
    SCOPED_TRACE("crash after record " + std::to_string(keep));
    ASSERT_TRUE(RunSkylineQuery(data, opt).ok());
    CrashAfter(dir, static_cast<size_t>(keep));
    EngineOptions resume_opt = opt;
    resume_opt.durability.resume = true;
    const auto resumed = RunSkylineQuery(data, resume_opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameOutcome(*base, *resumed);
  }
}

TEST_P(RecoveryTest, TornTailIsRecoveredOnResume) {
  const Dataset data = SmallDataset();
  const std::string dir = FreshDir("recovery_torn");
  EngineOptions opt = DurableOptions(GetParam(), dir);
  const auto base = RunSkylineQuery(data, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  CrashAfter(dir, static_cast<size_t>(base->durability.journal_records / 2));
  {
    // A record that was in flight when the process died.
    std::ofstream out(persist::JournalPath(dir),
                      std::ios::binary | std::ios::app);
    out.write("\x13\x37\x00\xff", 4);
  }
  EngineOptions resume_opt = opt;
  resume_opt.durability.resume = true;
  const auto resumed = RunSkylineQuery(data, resume_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameOutcome(*base, *resumed);
  EXPECT_TRUE(resumed->durability.recovered_torn_tail);
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, RecoveryTest,
    ::testing::Values(Algorithm::kCrowdSkySerial, Algorithm::kParallelDSet,
                      Algorithm::kParallelSL),
    [](const ::testing::TestParamInfo<Algorithm>& param) {
      return std::string(AlgorithmName(param.param));
    });

TEST(RecoveryGuardTest, ResumeWithoutJournalFails) {
  EngineOptions opt =
      DurableOptions(Algorithm::kParallelSL, FreshDir("recovery_nofile"));
  opt.durability.resume = true;
  EXPECT_FALSE(RunSkylineQuery(SmallDataset(), opt).ok());
}

TEST(RecoveryGuardTest, ResumeRequiresADirectory) {
  EngineOptions opt;
  opt.durability.resume = true;
  EXPECT_TRUE(RunSkylineQuery(SmallDataset(), opt)
                  .status()
                  .IsInvalidArgument());
}

TEST(RecoveryGuardTest, NonzeroCheckpointCadenceIsRefused) {
  for (const int cadence : {1, 8, -1}) {
    EngineOptions opt = DurableOptions(Algorithm::kCrowdSkySerial,
                                       FreshDir("recovery_cadence"));
    opt.durability.checkpoint_every_rounds = cadence;
    EXPECT_TRUE(RunSkylineQuery(SmallDataset(), opt)
                    .status()
                    .IsInvalidArgument())
        << cadence;
  }
}

TEST(RecoveryGuardTest, ForeignFingerprintIsRefused) {
  const Dataset data = SmallDataset();
  const std::string dir = FreshDir("recovery_fingerprint");
  EngineOptions opt = DurableOptions(Algorithm::kParallelSL, dir);
  ASSERT_TRUE(RunSkylineQuery(data, opt).ok());
  EngineOptions other = opt;
  other.durability.resume = true;
  other.seed = opt.seed + 1;  // a different question/answer stream
  EXPECT_TRUE(
      RunSkylineQuery(data, other).status().IsFailedPrecondition());
  // The audit flag and the durability knobs are excluded from the
  // fingerprint: flipping them must not block the resume.
  EngineOptions relaxed = opt;
  relaxed.durability.resume = true;
  relaxed.crowdsky.audit = false;
  relaxed.durability.sync = persist::SyncMode::kBuffered;
  EXPECT_TRUE(RunSkylineQuery(data, relaxed).ok());
}

TEST(RecoveryGuardTest, FingerprintCoversDatasetAndSeed) {
  const Dataset a = SmallDataset(1);
  const Dataset b = SmallDataset(2);
  EngineOptions opt;
  EXPECT_NE(RunFingerprint(a, opt), RunFingerprint(b, opt));
  EngineOptions reseeded = opt;
  reseeded.seed = opt.seed + 1;
  EXPECT_NE(RunFingerprint(a, opt), RunFingerprint(a, reseeded));
  EngineOptions audited = opt;
  audited.crowdsky.audit = true;
  audited.durability.dir = "/somewhere/else";
  EXPECT_EQ(RunFingerprint(a, opt), RunFingerprint(a, audited));
}

}  // namespace
}  // namespace crowdsky
