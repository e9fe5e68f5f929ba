// The auditor must (a) pass clean runs of every driver and (b) report each
// deliberately-planted corruption: broken partial-order axioms, mismatched
// dominance structures, double-charged sessions, duplicated paid pairs and
// completion-state regressions.
#include "audit/invariant_auditor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/crowdsky_algorithm.h"
#include "algo/evaluator.h"
#include "algo/parallel_dset.h"
#include "algo/parallel_sl.h"
#include "core/engine.h"
#include "crowd/oracle.h"
#include "crowd/session.h"
#include "data/generator.h"
#include "data/toy.h"

namespace crowdsky {
namespace audit {
namespace {

bool HasViolation(const AuditReport& report, const std::string& invariant) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&invariant](const AuditViolation& v) {
                       return v.invariant == invariant;
                     });
}

RelationSnapshot EmptySnapshot(int n) {
  RelationSnapshot snap;
  snap.n = n;
  snap.strict.assign(static_cast<size_t>(n),
                     DynamicBitset(static_cast<size_t>(n)));
  snap.rep.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) snap.rep[static_cast<size_t>(v)] = v;
  return snap;
}

// ---------------------------------------------------------------------------
// Preference-graph relation axioms.

TEST(RelationAuditTest, CleanGraphPasses) {
  PreferenceGraph graph(5);
  graph.AddPreference(0, 1).CheckOK();
  graph.AddPreference(1, 2).CheckOK();
  graph.AddEquivalence(2, 3).CheckOK();
  graph.AddPreference(3, 4).CheckOK();
  AuditReport report;
  InvariantAuditor().AuditPreferenceGraph(graph, "test", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 0);
}

TEST(RelationAuditTest, GraphStaysAuditableUnderContradictions) {
  PreferenceGraph graph(4, ContradictionPolicy::kFirstWins);
  graph.AddPreference(0, 1).CheckOK();
  graph.AddPreference(1, 2).CheckOK();
  graph.AddPreference(2, 0).CheckOK();   // cycle attempt, rejected
  graph.AddEquivalence(0, 2).CheckOK();  // contradicts 0 -> 2, rejected
  EXPECT_EQ(graph.contradiction_count(), 2);
  AuditReport report;
  InvariantAuditor().AuditPreferenceGraph(graph, "noisy", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RelationAuditTest, ReportsReflexiveEdge) {
  RelationSnapshot snap = EmptySnapshot(3);
  snap.strict[0].Set(0);
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.irreflexive"))
      << report.ToString();
}

TEST(RelationAuditTest, ReportsAntisymmetryViolation) {
  RelationSnapshot snap = EmptySnapshot(3);
  snap.strict[0].Set(1);
  snap.strict[1].Set(0);
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.antisymmetry"))
      << report.ToString();
}

TEST(RelationAuditTest, ReportsClosureGap) {
  RelationSnapshot snap = EmptySnapshot(3);
  snap.strict[0].Set(1);  // 0 < 1 and 1 < 2, but 0 < 2 is missing:
  snap.strict[1].Set(2);  // the closure is not transitively closed.
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.closure")) << report.ToString();
}

TEST(RelationAuditTest, ReportsStrictEdgeInsideEquivalenceClass) {
  RelationSnapshot snap = EmptySnapshot(3);
  snap.rep[1] = 0;        // {0, 1} is one class...
  snap.strict[0].Set(1);  // ...yet 0 is strictly preferred over 1.
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.class_strict"))
      << report.ToString();
}

TEST(RelationAuditTest, ReportsClassMembersWithDifferentRows) {
  RelationSnapshot snap = EmptySnapshot(4);
  snap.rep[1] = 0;        // {0, 1} is one class...
  snap.strict[0].Set(2);  // ...but only 0 is preferred over 2.
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.class_rows"))
      << report.ToString();
}

TEST(RelationAuditTest, ReportsDanglingRepresentative) {
  RelationSnapshot snap = EmptySnapshot(3);
  snap.rep[2] = 1;
  snap.rep[1] = 0;  // rep[2] is not itself a representative
  AuditReport report;
  InvariantAuditor().AuditRelationSnapshot(snap, "t", &report);
  EXPECT_TRUE(HasViolation(report, "prefgraph.representative"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Dominance structure vs. brute force.

TEST(DominanceAuditTest, CleanStructurePasses) {
  GeneratorOptions gen;
  gen.cardinality = 120;
  gen.num_known = 3;
  gen.num_crowd = 1;
  gen.seed = 11;
  const Dataset ds = GenerateDataset(gen).ValueOrDie();
  const PreferenceMatrix known = PreferenceMatrix::FromKnown(ds);
  const DominanceStructure structure(known, Reduction::kBuild);
  AuditReport report;
  InvariantAuditor().AuditDominanceStructure(structure, known, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 0);
}

TEST(DominanceAuditTest, ReportsStructureBuiltFromDifferentData) {
  GeneratorOptions gen;
  gen.cardinality = 60;
  gen.num_known = 3;
  gen.num_crowd = 1;
  gen.seed = 11;
  const Dataset ds_a = GenerateDataset(gen).ValueOrDie();
  gen.seed = 12;
  const Dataset ds_b = GenerateDataset(gen).ValueOrDie();
  // The structure of dataset A audited against dataset B's raw matrix
  // must disagree on dominating sets.
  const DominanceStructure structure(PreferenceMatrix::FromKnown(ds_a));
  AuditReport report;
  InvariantAuditor().AuditDominanceStructure(
      structure, PreferenceMatrix::FromKnown(ds_b), &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "dominance.dominators") ||
              HasViolation(report, "dominance.dominatees"))
      << report.ToString();
}

TEST(DominanceAuditTest, ReportsSizeMismatch) {
  GeneratorOptions gen;
  gen.cardinality = 20;
  gen.num_known = 2;
  gen.num_crowd = 1;
  const Dataset ds = GenerateDataset(gen).ValueOrDie();
  gen.cardinality = 21;
  const Dataset bigger = GenerateDataset(gen).ValueOrDie();
  const DominanceStructure structure(PreferenceMatrix::FromKnown(ds));
  AuditReport report;
  InvariantAuditor().AuditDominanceStructure(
      structure, PreferenceMatrix::FromKnown(bigger), &report);
  EXPECT_TRUE(HasViolation(report, "dominance.shape")) << report.ToString();
}

// ---------------------------------------------------------------------------
// Session accounting.

class SessionAuditTest : public ::testing::Test {
 protected:
  SessionAuditTest() : toy_(MakeToyDataset()), oracle_(toy_) {}

  Dataset toy_;
  PerfectOracle oracle_;
};

TEST_F(SessionAuditTest, CleanSessionPasses) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.Ask(0, 2, 3);
  session.EndRound();
  session.Ask(0, 1, 0);  // cache hit, free
  session.Ask(0, 4, 5);
  session.EndRound();
  AuditReport report;
  InvariantAuditor().AuditSession(session, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(SessionAuditTest, ReportsDoubleChargedRound) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  // Charge the same round twice: history says two rounds of one question
  // each, but only one question was ever paid for.
  snap.questions_per_round.push_back(1);
  snap.rounds = 2;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.round_sum"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsDuplicatePaidPair) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.Ask(0, 2, 3);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  // Pay the first pair a second time (keep the counters consistent so the
  // duplicate itself is the only corruption).
  snap.paid_pairs.push_back(snap.paid_pairs.front());
  snap.pair_questions += 1;
  snap.questions_per_round.back() += 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.no_repay")) << report.ToString();
}

TEST_F(SessionAuditTest, DuplicatePaidPairWithRecordedRetryPasses) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  // A second paid attempt is legitimate exactly when a retry justifies it.
  snap.paid_pairs.push_back(snap.paid_pairs.front());
  snap.pair_questions += 1;
  snap.questions_per_round.back() += 1;
  snap.retry_pairs.push_back(snap.paid_pairs.front());
  snap.retries += 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(SessionAuditTest, ReportsRetryForNeverPaidPair) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  snap.retry_pairs.push_back(PairQuestion{0, 2, 3});  // never paid for
  snap.retries += 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.retry_unpaid"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsRetryCounterMismatch) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  snap.retry_pairs.push_back(snap.paid_pairs.front());
  // The counter was not bumped alongside the log.
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.retry_log"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsUnresolvedCounterMismatch) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  snap.unresolved_pairs.push_back(snap.paid_pairs.front());
  // stats.unresolved_questions still says zero.
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.unresolved_log"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsUnresolvedPairThatWasNeverPaid) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  snap.unresolved_pairs.push_back(PairQuestion{0, 4, 5});
  snap.unresolved += 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.unresolved_unpaid"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsPaidLogCounterMismatch) {
  CrowdSession session(&oracle_);
  session.Ask(0, 0, 1);
  session.EndRound();
  SessionSnapshot snap = SnapshotSession(session);
  snap.paid_pairs.clear();  // log lost a paid question
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.paid_log")) << report.ToString();
}

TEST_F(SessionAuditTest, ReportsNonCanonicalLogEntry) {
  SessionSnapshot snap;
  snap.paid_pairs.push_back(PairQuestion{0, 5, 2});  // first > second
  snap.pair_questions = 1;
  snap.questions_per_round = {1};
  snap.rounds = 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.canonical_log"))
      << report.ToString();
}

TEST_F(SessionAuditTest, ReportsEmptyRoundInHistory) {
  SessionSnapshot snap;
  snap.questions_per_round = {0};
  snap.rounds = 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.rounds")) << report.ToString();
}

TEST_F(SessionAuditTest, ReportsBudgetOverrun) {
  SessionSnapshot snap;
  snap.paid_pairs.push_back(PairQuestion{0, 0, 1});
  snap.paid_pairs.push_back(PairQuestion{0, 0, 2});
  snap.pair_questions = 2;
  snap.questions_per_round = {2};
  snap.rounds = 1;
  snap.budget = 1;
  AuditReport report;
  InvariantAuditor().AuditSessionSnapshot(snap, &report);
  EXPECT_TRUE(HasViolation(report, "session.budget")) << report.ToString();
}

TEST_F(SessionAuditTest, RespectedBudgetPasses) {
  CrowdSession session(&oracle_);
  session.SetQuestionBudget(2);
  session.Ask(0, 0, 1);
  session.Ask(0, 2, 3);
  session.EndRound();
  EXPECT_FALSE(session.CanAsk());
  AuditReport report;
  InvariantAuditor().AuditSession(session, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// AMT cost formula.

TEST(CostAuditTest, DefaultModelMatchesFormula) {
  AuditReport report;
  InvariantAuditor().AuditCostModel(AmtCostModel{}, {7, 5, 1, 10}, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CostAuditTest, ReportsDegenerateModel) {
  AmtCostModel model;
  model.questions_per_hit = 0;
  AuditReport report;
  InvariantAuditor().AuditCostModel(model, {1}, &report);
  EXPECT_TRUE(HasViolation(report, "cost.model")) << report.ToString();
}

// ---------------------------------------------------------------------------
// Completion-state monotonicity.

TEST(CompletionMonitorTest, MonotoneProgressPasses) {
  CompletionState state(4);
  CompletionMonitor monitor(4);
  AuditReport report;
  monitor.Observe(state, &report);
  state.MarkSkyline(0);
  monitor.Observe(state, &report);
  state.MarkNonSkyline(1);
  monitor.Observe(state, &report);
  state.MarkNonSkyline(2);
  state.MarkSkyline(3);
  monitor.Observe(state, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(monitor.observations(), 4);
}

TEST(CompletionMonitorTest, ReportsLostCompleteMark) {
  CompletionState state(3);
  CompletionMonitor monitor(3);
  AuditReport report;
  state.MarkSkyline(0);
  monitor.Observe(state, &report);
  state.complete.Reset(0);  // corruption: completion regressed
  monitor.Observe(state, &report);
  EXPECT_TRUE(HasViolation(report, "completion.monotone_complete"))
      << report.ToString();
}

TEST(CompletionMonitorTest, ReportsNonSkylineWithoutComplete) {
  CompletionState state(3);
  CompletionMonitor monitor(3);
  AuditReport report;
  state.nonskyline.Set(1);  // corruption: fate without completion
  monitor.Observe(state, &report);
  EXPECT_TRUE(HasViolation(report, "completion.nonskyline_subset"))
      << report.ToString();
}

TEST(CompletionMonitorTest, ReportsSkylineFateFlip) {
  CompletionState state(3);
  CompletionMonitor monitor(3);
  AuditReport report;
  state.MarkSkyline(0);  // 0 completes as a skyline tuple...
  monitor.Observe(state, &report);
  state.MarkNonSkyline(0);  // ...then flips to non-skyline.
  monitor.Observe(state, &report);
  EXPECT_TRUE(HasViolation(report, "completion.fate_flip"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// Result consistency.

TEST(ResultAuditTest, ReportsSkylineDisagreeingWithCompletion) {
  const Dataset toy = MakeToyDataset();
  PerfectOracle oracle(toy);
  CrowdSession session(&oracle);
  CompletionState completion(3);
  completion.MarkSkyline(0);
  completion.MarkNonSkyline(1);
  completion.MarkSkyline(2);
  AlgoResult result;
  result.skyline = {0, 1};  // 1 is complete non-skyline; 2 is missing
  AuditReport report;
  InvariantAuditor().AuditResult(result, session, 3, completion, &report);
  EXPECT_TRUE(HasViolation(report, "result.skyline_set"))
      << report.ToString();
}

TEST(ResultAuditTest, ReportsQuestionCounterMismatch) {
  const Dataset toy = MakeToyDataset();
  PerfectOracle oracle(toy);
  CrowdSession session(&oracle);
  session.Ask(0, 0, 1);
  session.EndRound();
  CompletionState completion(2);
  completion.MarkSkyline(0);
  completion.MarkNonSkyline(1);
  AlgoResult result;
  result.skyline = {0};
  result.questions = 0;  // the session paid for one
  result.rounds = 1;
  result.questions_per_round = {1};
  AuditReport report;
  InvariantAuditor().AuditResult(result, session, 2, completion, &report);
  EXPECT_TRUE(HasViolation(report, "result.questions"))
      << report.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end: every driver under CrowdSkyOptions::audit.

class AuditedRunTest : public ::testing::Test {
 protected:
  static Dataset Make(uint64_t seed) {
    GeneratorOptions gen;
    gen.cardinality = 80;
    gen.num_known = 3;
    gen.num_crowd = 2;
    gen.seed = seed;
    return GenerateDataset(gen).ValueOrDie();
  }
};

TEST_F(AuditedRunTest, AllDriversPassUnderPerfectOracle) {
  const Dataset ds = Make(7);
  CrowdSkyOptions options;
  options.audit = true;
  for (int driver = 0; driver < 3; ++driver) {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    AlgoResult result;
    switch (driver) {
      case 0:
        result = RunCrowdSky(ds, &session, options);
        break;
      case 1:
        result = RunParallelDSet(ds, &session, options);
        break;
      default:
        result = RunParallelSL(ds, &session, options);
        break;
    }
    EXPECT_FALSE(result.skyline.empty());
  }
}

TEST_F(AuditedRunTest, EngineRunsAuditedWithNoisyWorkers) {
  const Dataset ds = Make(9);
  EngineOptions options;
  options.algorithm = Algorithm::kParallelSL;
  options.oracle = OracleKind::kSimulated;
  options.worker.p_correct = 0.8;
  options.crowdsky.audit = true;
  const auto result = RunSkylineQuery(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->algo.skyline.empty());
}

TEST_F(AuditedRunTest, AuditedBudgetRunStaysConsistent) {
  const Dataset ds = Make(13);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(10);
  CrowdSkyOptions options;
  options.audit = true;
  const AlgoResult result = RunCrowdSky(ds, &session, options);
  EXPECT_LE(result.questions, 10);
}

// ---------------------------------------------------------------------------
// Journal / durability ledger.

class JournalAuditTest : public ::testing::Test {
 protected:
  JournalAuditTest() : toy_(MakeToyDataset()) {}

  /// A resolved single-attempt pair record, the shape a fault-free ask
  /// journals.
  static persist::JournalRecord PairRec(int attr, int first, int second) {
    persist::JournalRecord r;
    r.kind = persist::JournalRecord::Kind::kPairAsk;
    r.question = PairQuestion{attr, first, second};
    r.resolved = true;
    r.answer = Answer::kFirstPreferred;
    r.attempts.push_back(persist::AttemptOutcome{});
    return r;
  }

  static persist::JournalRecord RoundRec(int64_t questions) {
    persist::JournalRecord r;
    r.kind = persist::JournalRecord::Kind::kRoundEnd;
    r.round_questions = questions;
    return r;
  }

  /// Two paid asks + one closed round on session_, with the matching
  /// journal.
  void AskTwo(std::vector<persist::JournalRecord>* records) {
    session_.Ask(0, 0, 1);
    session_.Ask(0, 2, 3);
    session_.EndRound();
    *records = {PairRec(0, 0, 1), PairRec(0, 2, 3), RoundRec(2)};
  }

  Dataset toy_;
  PerfectOracle oracle_{toy_};
  CrowdSession session_{&oracle_};
};

TEST_F(JournalAuditTest, CleanJournalPasses) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(JournalAuditTest, LiveSessionWithRealJournalPasses) {
  const std::string path =
      ::testing::TempDir() + "/audit_journal_live.bin";
  std::remove(path.c_str());
  auto writer =
      persist::JournalWriter::Create(path, 1, persist::SyncMode::kFlush);
  ASSERT_TRUE(writer.ok());
  CrowdSession session(&oracle_);
  session.AttachJournal(writer->get());
  session.Ask(0, 0, 1);
  session.Ask(0, 2, 3);
  session.EndRound();
  session.Ask(0, 1, 0);  // cache hit: must not reach the journal
  session.Ask(0, 4, 5);
  session.EndRound();
  ASSERT_TRUE((*writer)->Sync().ok());
  auto recovered = persist::ReadJournal(path);
  ASSERT_TRUE(recovered.ok());
  AuditReport report;
  InvariantAuditor().AuditJournal(recovered->records, session, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(JournalAuditTest, ReportsPaidQuestionWithoutDurableRecord) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  // The second ask never made it to disk.
  records.erase(records.begin() + 1);
  records.back().round_questions = 1;
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.paid_log")) << report.ToString();
}

TEST_F(JournalAuditTest, ReportsSecondDurableRecordForOneQuestion) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  // Re-pay the first question behind the session's back.
  records[1] = records[0];
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.one_record"))
      << report.ToString();
}

TEST_F(JournalAuditTest, ReportsRoundPartitionMismatch) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  records.back().round_questions = 5;
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.round_partition"))
      << report.ToString();
}

TEST_F(JournalAuditTest, ReportsResolvedRecordEndingInFailure) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  records[0].attempts.back().status = persist::AttemptOutcome::kFailed;
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.record_shape"))
      << report.ToString();
}

TEST_F(JournalAuditTest, ReportsUnjournaledRetry) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  // An extra successful attempt inside one record: the journal now
  // implies a retry the session never recorded (and a mid-record
  // non-failed attempt).
  records[0].attempts.push_back(persist::AttemptOutcome{});
  records.back().round_questions = 3;
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.retries")) << report.ToString();
  EXPECT_TRUE(HasViolation(report, "journal.record_shape"))
      << report.ToString();
}

TEST_F(JournalAuditTest, ReportsFaultCursorRegression) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  records[0].fault_attempt_draws = 9;
  records[0].fault_vote_draws = 45;  // later records stay at 0
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.fault_cursor"))
      << report.ToString();
}

TEST_F(JournalAuditTest, ReportsOpenRoundTailMismatch) {
  std::vector<persist::JournalRecord> records;
  AskTwo(&records);
  // A question journaled past the last round end that the session never
  // paid for in its open round.
  records.push_back(PairRec(0, 6, 7));
  AuditReport report;
  InvariantAuditor().AuditJournalSnapshot(records,
                                          SnapshotSession(session_), &report);
  EXPECT_TRUE(HasViolation(report, "journal.open_round"))
      << report.ToString();
}

}  // namespace
}  // namespace audit
}  // namespace crowdsky
