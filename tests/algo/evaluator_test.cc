// Unit tests driving TupleEvaluator directly on the toy dataset,
// asserting the per-step behaviour the drivers rely on.
#include "algo/evaluator.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/governor.h"
#include "crowd/oracle.h"
#include "data/toy.h"
#include "persist/journal.h"

namespace crowdsky {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : toy_(MakeToyDataset()),
        structure_(PreferenceMatrix::FromKnown(toy_)),
        knowledge_(toy_.size(), 1),
        oracle_(toy_),
        session_(&oracle_),
        completion_(toy_.size()) {
    for (const int t : structure_.known_skyline()) {
      completion_.MarkSkyline(t);
    }
  }

  TupleEvaluator MakeEvaluator(char label, CrowdSkyOptions options = {}) {
    return TupleEvaluator(ToyId(label), structure_, &knowledge_, &session_,
                          &completion_, options);
  }

  /// Runs an evaluator to completion; returns the number of paid steps.
  int Drive(TupleEvaluator* ev) {
    int paid = 0;
    while (!ev->done()) {
      if (ev->Step()) ++paid;
    }
    return paid;
  }

  Dataset toy_;
  DominanceStructure structure_;
  CrowdKnowledge knowledge_;
  PerfectOracle oracle_;
  CrowdSession session_;
  CompletionState completion_;
};

TEST_F(EvaluatorTest, SingleDominatorNonSkyline) {
  TupleEvaluator ev = MakeEvaluator('a');  // DS(a) = {b}, b < a in AC
  EXPECT_EQ(Drive(&ev), 1);
  EXPECT_TRUE(ev.done());
  EXPECT_TRUE(ev.complete());
  EXPECT_FALSE(ev.is_skyline());
  EXPECT_EQ(ev.tuple(), ToyId('a'));
}

TEST_F(EvaluatorTest, ProbeThenQuery) {
  TupleEvaluator ev = MakeEvaluator('d');  // DS(d) = {b, e}
  // Step 1: probe (b, e); step 2: ask (e, d) -> dominated.
  EXPECT_TRUE(ev.Step());
  EXPECT_FALSE(ev.done());
  EXPECT_TRUE(knowledge_.WeaklyPrefers(ToyId('e'), ToyId('b')));
  EXPECT_TRUE(ev.Step());
  EXPECT_TRUE(ev.done());
  EXPECT_FALSE(ev.is_skyline());
}

TEST_F(EvaluatorTest, SkylineTupleSurvivesAllQuestions) {
  TupleEvaluator ev = MakeEvaluator('k');  // DS(k) = {i, l}; k wins
  EXPECT_EQ(Drive(&ev), 2);
  EXPECT_TRUE(ev.is_skyline());
}

TEST_F(EvaluatorTest, P1UsesCompletionState) {
  // Mark a as a complete non-skyline tuple; c's evaluator must not ask
  // about it (DS(c) = {a, b, e} shrinks to {b, e}).
  completion_.MarkNonSkyline(ToyId('a'));
  TupleEvaluator ev = MakeEvaluator('c');
  Drive(&ev);
  EXPECT_FALSE(session_.IsCached(0, ToyId('a'), ToyId('c')));
  EXPECT_FALSE(ev.is_skyline());
}

TEST_F(EvaluatorTest, P2UsesSharedKnowledge) {
  // Teach the tree e < b; c's evaluator then only needs (c, e).
  knowledge_.Record(0, ToyId('e'), ToyId('b'), Answer::kFirstPreferred)
      .CheckOK();
  completion_.MarkNonSkyline(ToyId('a'));
  TupleEvaluator ev = MakeEvaluator('c');
  EXPECT_EQ(Drive(&ev), 1);
  EXPECT_TRUE(session_.IsCached(0, ToyId('e'), ToyId('c')));
  EXPECT_FALSE(session_.IsCached(0, ToyId('b'), ToyId('c')));
}

TEST_F(EvaluatorTest, StepNeverPaysMoreThanOnePair) {
  TupleEvaluator ev = MakeEvaluator('h');
  while (!ev.done()) {
    const int64_t before = session_.stats().questions;
    ev.Step();
    EXPECT_LE(session_.stats().questions - before, 1);
  }
}

TEST_F(EvaluatorTest, EmptyDominatingSetCompletesWithoutAsking) {
  TupleEvaluator ev = MakeEvaluator('b');  // b is in SKY_AK
  EXPECT_FALSE(ev.Step());
  EXPECT_TRUE(ev.done());
  EXPECT_TRUE(ev.is_skyline());
  EXPECT_EQ(session_.stats().questions, 0);
}

TEST_F(EvaluatorTest, BudgetAbortKeepsUndecidedTupleInSkyline) {
  session_.SetQuestionBudget(1);
  TupleEvaluator ev = MakeEvaluator('h');  // needs 2 questions normally
  Drive(&ev);
  EXPECT_TRUE(ev.done());
  EXPECT_FALSE(ev.complete());
  EXPECT_TRUE(ev.is_skyline());  // undecided stays in by default
}

TEST_F(EvaluatorTest, BudgetAbortOnDominatedTupleKeepsItOut) {
  // First spend the budget learning b < a; then a is already dominated...
  // Actually drive 'a' with budget 1: the single allowed question decides
  // it, so it completes. Drive 'j' with budget 0 instead: undecided.
  session_.SetQuestionBudget(0);
  TupleEvaluator ev = MakeEvaluator('j');
  Drive(&ev);
  EXPECT_FALSE(ev.complete());
  EXPECT_TRUE(ev.is_skyline());
}

TEST_F(EvaluatorTest, FreeLookupCountsTransitivityHits) {
  knowledge_.Record(0, ToyId('b'), ToyId('a'), Answer::kFirstPreferred)
      .CheckOK();
  // a's only question (b, a) is now implied; no payment happens.
  TupleEvaluator ev = MakeEvaluator('a');
  EXPECT_FALSE(ev.Step());
  EXPECT_TRUE(ev.done());
  EXPECT_FALSE(ev.is_skyline());
  EXPECT_EQ(ev.free_lookups(), 1);
  EXPECT_EQ(session_.stats().questions, 0);
}

TEST_F(EvaluatorTest, DeniedAskIsNotAFreeLookup) {
  session_.SetQuestionBudget(1);
  TupleEvaluator ev = MakeEvaluator('h');  // needs 2 questions normally
  EXPECT_TRUE(ev.Step());  // spends the whole budget
  const int64_t before = ev.free_lookups();
  // The next ask is refused: nothing was looked up, so nothing is counted.
  EXPECT_FALSE(ev.Step());
  EXPECT_TRUE(ev.done());
  EXPECT_FALSE(ev.complete());
  EXPECT_EQ(ev.free_lookups(), before);
}

// --- settling once funding has closed -----------------------------------

/// A governor whose cancel token is already set: its first funding check
/// latches the stop and counts one denial.
class CancelledGovernor {
 public:
  CancelledGovernor()
      : governor_(CancelledOptions(&cancel_), AmtCostModel{}, 0) {}
  // The governor keeps a pointer to cancel_.
  CancelledGovernor(const CancelledGovernor&) = delete;
  CancelledGovernor& operator=(const CancelledGovernor&) = delete;

  RunGovernor* get() { return &governor_; }
  /// Latches the stop (counting one denial), as a refused ask would.
  void Latch() { EXPECT_FALSE(governor_.CanFundQuestion(0)); }

 private:
  static GovernorOptions CancelledOptions(CancellationToken* cancel) {
    cancel->Cancel();
    GovernorOptions opt;
    opt.cancel = cancel;
    return opt;
  }
  CancellationToken cancel_;
  RunGovernor governor_;
};

TEST_F(EvaluatorTest, ClosedFundingSettlesLikeTheProbeWalk) {
  // DS(h) = {b, d, e, g, i} and nothing is known about any pair.
  // Reference: the stop is not latched yet, so FundingClosed() is false
  // and the probe walk runs until its first ask is refused.
  CancelledGovernor walk_governor;
  CrowdSession walk_session(&oracle_);
  walk_session.AttachGovernor(walk_governor.get());
  ASSERT_FALSE(walk_session.FundingClosed());
  TupleEvaluator walk(ToyId('h'), structure_, &knowledge_, &walk_session,
                      &completion_, {});
  EXPECT_FALSE(walk.Step());
  ASSERT_TRUE(walk.done());
  EXPECT_EQ(walk_governor.get()->denied_questions(), 1);

  // Settled: the stop is latched before the tuple starts.
  CancelledGovernor governor;
  session_.AttachGovernor(governor.get());
  governor.Latch();
  ASSERT_TRUE(session_.FundingClosed());
  EXPECT_EQ(governor.get()->denied_questions(), 1);  // no side effect
  TupleEvaluator ev = MakeEvaluator('h');
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(governor.get()->denied_questions(), 2);  // exactly one more
  EXPECT_EQ(session_.stats().questions, 0);
  EXPECT_EQ(session_.stats().rounds, 0);
  EXPECT_EQ(ev.free_lookups(), walk.free_lookups());
  EXPECT_EQ(ev.free_lookups(), 0);
  EXPECT_EQ(ev.is_skyline(), walk.is_skyline());
  EXPECT_TRUE(ev.is_skyline());
  EXPECT_FALSE(ev.complete());
}

TEST_F(EvaluatorTest, SpentQuestionBudgetSettlesWithoutADenial) {
  session_.SetQuestionBudget(0);
  ASSERT_TRUE(session_.FundingClosed());
  TupleEvaluator ev = MakeEvaluator('h');
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(ev.free_lookups(), 0);
  EXPECT_TRUE(ev.is_skyline());
  EXPECT_FALSE(ev.complete());
}

TEST_F(EvaluatorTest, ClosedFundingWithOneDominatorUsesKnownRelation) {
  // DS(a) = {b} and b < a is known: there is no probe pair, and the (b, a)
  // query is free, so t is decided even though nothing can be paid for.
  knowledge_.Record(0, ToyId('b'), ToyId('a'), Answer::kFirstPreferred)
      .CheckOK();
  CancelledGovernor governor;
  session_.AttachGovernor(governor.get());
  governor.Latch();
  TupleEvaluator ev = MakeEvaluator('a');
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_TRUE(ev.complete());
  EXPECT_FALSE(ev.is_skyline());
  EXPECT_EQ(ev.free_lookups(), 1);
  EXPECT_EQ(governor.get()->denied_questions(), 1);  // no new denial
}

// The cases below must take the probe walk even though funding is closed:
// each asserts a walk outcome that settling at the first pair would miss.

TEST_F(EvaluatorTest, ClosedFundingWithP2OffWalksKnownPairs) {
  // e < b < a in AC, so every probe pair among DS(c) = {a, b, e} is known.
  // Without P2 they survive the refresh; the walk prunes through two of
  // them for free before the (e, c) query is refused.
  knowledge_.Record(0, ToyId('e'), ToyId('b'), Answer::kFirstPreferred)
      .CheckOK();
  knowledge_.Record(0, ToyId('b'), ToyId('a'), Answer::kFirstPreferred)
      .CheckOK();
  CancelledGovernor governor;
  session_.AttachGovernor(governor.get());
  governor.Latch();
  CrowdSkyOptions options;
  options.pruning.use_p2 = false;
  TupleEvaluator ev = MakeEvaluator('c', options);
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(ev.free_lookups(), 2);
  EXPECT_EQ(governor.get()->denied_questions(), 2);
  EXPECT_TRUE(ev.is_skyline());
}

TEST_F(EvaluatorTest, ClosedFundingWithSeededAnswersWalksCacheHits) {
  // Seeded answers sit in the session cache but not in the graph, so the
  // walk resolves two probe pairs from the cache for free.
  session_.SetQuestionBudget(0);
  session_.SeedAnswer(0, ToyId('b'), ToyId('a'), Answer::kFirstPreferred);
  session_.SeedAnswer(0, ToyId('e'), ToyId('a'), Answer::kFirstPreferred);
  session_.SeedAnswer(0, ToyId('e'), ToyId('b'), Answer::kFirstPreferred);
  ASSERT_TRUE(session_.FundingClosed());
  TupleEvaluator ev = MakeEvaluator('c');  // DS(c) = {a, b, e}
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(ev.free_lookups(), 2);
  EXPECT_EQ(session_.stats().cache_hits, 2);
  EXPECT_TRUE(knowledge_.WeaklyPrefers(ToyId('e'), ToyId('b')));
}

/// Perfect answers, except that every attempt at the listed pairs fails.
class RefusingOracle : public PerfectOracle {
 public:
  RefusingOracle(const Dataset& dataset, std::vector<PairQuestion> refused)
      : PerfectOracle(dataset), refused_(std::move(refused)) {}

  PairOutcome AnswerPairOutcome(const PairQuestion& q,
                                const AskContext& ctx) override {
    for (const PairQuestion& r : refused_) {
      if (r == q) {
        PairOutcome out;
        out.status = PairOutcome::Status::kFailed;
        out.transient_error = true;
        return out;
      }
    }
    return PerfectOracle::AnswerPairOutcome(q, ctx);
  }

 private:
  std::vector<PairQuestion> refused_;
};

TEST_F(EvaluatorTest, ClosedFundingWithUnresolvedPairWalksPastIt) {
  // DS(d) = {b, e}; (b, e) ran out of retries before funding closed. The
  // walk skips it for free, then the (b, d) query is refused.
  const PairQuestion be = PairQuestion{0, ToyId('b'), ToyId('e')}.Canonical();
  RefusingOracle oracle(toy_, {be});
  CrowdSession session(&oracle);
  session.SetRetryPolicy(RetryPolicy{0, 1, 8});
  CancelledGovernor governor;
  session.AttachGovernor(governor.get());
  ASSERT_EQ(session.TryAsk(0, ToyId('b'), ToyId('e')).status,
            AskStatus::kUnresolved);
  session.EndRound();
  governor.Latch();
  ASSERT_TRUE(session.FundingClosed());
  TupleEvaluator ev(ToyId('d'), structure_, &knowledge_, &session,
                    &completion_, {});
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(ev.unresolved_pair_asks(), 1);
  EXPECT_EQ(ev.free_lookups(), 1);
  EXPECT_EQ(governor.get()->denied_questions(), 2);
  EXPECT_EQ(session.stats().questions, 1);  // only the failed attempt
}

TEST_F(EvaluatorTest, ClosedFundingWithPendingCreditsReplaysThemFirst) {
  // A capped resume: the stop is latched, but the journal still holds the
  // (b, e) answer the dead run paid for. DS(d) = {b, e}: the walk replays
  // that credit (e < b), then the (e, d) query is refused.
  CancelledGovernor governor;
  session_.AttachGovernor(governor.get());
  persist::JournalRecord ask;
  ask.kind = persist::JournalRecord::Kind::kPairAsk;
  ask.question = PairQuestion{0, ToyId('b'), ToyId('e')}.Canonical();
  ask.resolved = true;
  ask.answer = Answer::kSecondPreferred;  // e preferred
  ask.attempts.emplace_back();
  persist::JournalRecord round_end;
  round_end.kind = persist::JournalRecord::Kind::kRoundEnd;
  round_end.round_questions = 1;
  session_.RestoreFromJournal(
      std::deque<persist::JournalRecord>{ask, round_end});
  governor.Latch();
  ASSERT_FALSE(session_.FundingClosed());

  TupleEvaluator ev = MakeEvaluator('d');
  EXPECT_TRUE(ev.Step());  // the replayed credit counts as a paid ask
  session_.EndRound();
  EXPECT_EQ(session_.credits_remaining(), 0);
  EXPECT_EQ(session_.replayed_pair_attempts(), 1);
  EXPECT_TRUE(session_.FundingClosed());
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_TRUE(knowledge_.WeaklyPrefers(ToyId('e'), ToyId('b')));
  EXPECT_EQ(ev.free_lookups(), 0);
  EXPECT_EQ(governor.get()->denied_questions(), 2);
  EXPECT_TRUE(ev.is_skyline());
}

TEST(EvaluatorTwoCrowdAttrsTest, ClosedFundingWalksKnownIncomparablePair) {
  // x and y both dominate t on the known attributes and are known
  // incomparable on the two crowd attributes, so P2 keeps both. The walk
  // consumes (x, y) for free, then the (x, t) query is refused.
  auto schema = Schema::Make({
      {"K1", Direction::kMin, AttributeKind::kKnown},
      {"K2", Direction::kMin, AttributeKind::kKnown},
      {"C1", Direction::kMin, AttributeKind::kCrowd},
      {"C2", Direction::kMin, AttributeKind::kCrowd},
  });
  auto dataset = Dataset::Make(std::move(schema).ValueOrDie(),
                               {{1, 2, 1, 2}, {2, 1, 2, 1}, {3, 3, 3, 3}},
                               {"x", "y", "t"});
  ASSERT_TRUE(dataset.ok());
  const DominanceStructure structure(PreferenceMatrix::FromKnown(*dataset));
  CrowdKnowledge knowledge(3, 2);
  knowledge.Record(0, 0, 1, Answer::kFirstPreferred).CheckOK();
  knowledge.Record(1, 0, 1, Answer::kSecondPreferred).CheckOK();
  ASSERT_EQ(knowledge.Relation(0, 1), AcRelation::kIncomparable);
  CompletionState completion(3);
  completion.MarkSkyline(0);
  completion.MarkSkyline(1);
  PerfectOracle oracle(*dataset);
  CrowdSession session(&oracle);
  CancelledGovernor governor;
  session.AttachGovernor(governor.get());
  governor.Latch();
  ASSERT_TRUE(session.FundingClosed());

  TupleEvaluator ev(2, structure, &knowledge, &session, &completion, {});
  EXPECT_FALSE(ev.Step());
  ASSERT_TRUE(ev.done());
  EXPECT_EQ(ev.free_lookups(), 1);
  EXPECT_EQ(governor.get()->denied_questions(), 2);
  EXPECT_TRUE(ev.is_skyline());
}

TEST_F(EvaluatorTest, StepOnDoneEvaluatorAborts) {
  TupleEvaluator ev = MakeEvaluator('b');
  ev.Step();
  ASSERT_TRUE(ev.done());
  EXPECT_DEATH(ev.Step(), "completed evaluator");
}

}  // namespace
}  // namespace crowdsky
