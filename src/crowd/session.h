// CrowdSession: the bookkeeping layer every crowd-enabled algorithm talks
// through. It owns
//
//  * the question cache — a (attr, u, v) -> answer memo guaranteeing that
//    no pair-wise question is ever paid for twice (tournament replays,
//    transitivity lookups, overlapping evaluators in ParallelSL),
//  * round accounting — questions asked between two EndRound() calls share
//    one crowd round (Section 2.1's latency model: a round is a fixed
//    amount of wall-clock time in which any number of *independent*
//    questions run in parallel),
//  * the per-round question counts that the AMT cost model consumes,
//  * the resilient asking layer — a failed attempt (transient platform
//    error, expired HIT, vote set below the majority floor) is requeued
//    with a capped retry count and round-based backoff; each retry is a
//    *paid* attempt, logged as a RetryEvent so the invariant auditor can
//    verify that no question is paid twice without a recorded retry,
//  * optional durability — with a journal attached (AttachJournal) every
//    resolved question, unary ask and closed round is appended to the
//    write-ahead answer journal the moment it happens; after a crash,
//    RestoreFromJournal queues the recovered journal as *credits*: the
//    resumed run re-executes deterministically from the start, and each
//    ask that the dead process already paid for draws its attempt
//    outcomes from the matching credit instead of the oracle — same
//    accounting code path, no oracle call, nothing paid twice, nothing
//    re-appended.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/governor.h"
#include "crowd/oracle.h"
#include "crowd/question.h"
#include "obs/observer.h"
#include "persist/journal.h"

namespace crowdsky {

/// Session-side counters (complementing OracleStats). Everything below
/// `unary_questions` stays 0 on a fault-free run.
struct SessionStats {
  int64_t questions = 0;    ///< paid pair-question attempts (retries incl.)
  int64_t cache_hits = 0;   ///< asks answered from the memo (free)
  int64_t rounds = 0;       ///< crowd rounds consumed
  int64_t unary_questions = 0;
  int64_t retries = 0;            ///< failed attempts that were re-asked
  int64_t degraded_quorum = 0;    ///< answers accepted below full quorum
  int64_t failed_attempts = 0;    ///< paid attempts yielding no answer
  int64_t unresolved_questions = 0;  ///< questions given up on (retry cap
                                     ///< or budget mid-retry)
  int64_t backoff_rounds = 0;  ///< latency-only rounds lost to retry
                               ///< backoff and expired HITs
};

/// How the session reacts to a failed question attempt.
struct RetryPolicy {
  /// Extra paid attempts allowed per question after the first one fails.
  int max_retries = 3;
  /// Requeue latency before retry k: backoff_base_rounds << (k-1), capped
  /// at max_backoff_rounds. Accounted in SessionStats::backoff_rounds
  /// (pure latency — empty rounds cost nothing under the AMT model).
  int backoff_base_rounds = 1;
  int max_backoff_rounds = 8;
};

/// int64 addition that clamps at the numeric limits instead of wrapping.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return out;
}

/// Latency rounds charged for requeueing after failed attempt
/// `failed_attempt` (0-based): backoff_base_rounds << failed_attempt,
/// capped at max_backoff_rounds. The shift is bounded so that arbitrarily
/// large retry caps cannot overflow (base < 2^31 and shift <= 30 keep the
/// raw product below 2^61 before the cap applies).
inline int64_t RetryBackoffRounds(const RetryPolicy& policy,
                                  int failed_attempt) {
  const int shift = std::min(failed_attempt, 30);
  const int64_t raw = static_cast<int64_t>(policy.backoff_base_rounds)
                      << shift;
  return std::min<int64_t>(raw, policy.max_backoff_rounds);
}

/// One recorded retry: attempt `attempt` (1-based) of `question` was paid
/// for because the previous attempt failed for `reason`.
struct RetryEvent {
  enum class Reason {
    kTransientError,
    kHitExpired,
    kInsufficientQuorum,
  };
  PairQuestion question;  ///< canonical orientation
  int attempt = 0;
  Reason reason = Reason::kInsufficientQuorum;
};

/// Outcome of a best-effort ask.
enum class AskStatus {
  kAnswered,    ///< answer available (cached or freshly aggregated)
  kUnresolved,  ///< retry cap / budget exhausted; no answer exists
};

/// \brief Cache + round accounting + retry wrapper around a CrowdOracle.
class CrowdSession {
 public:
  /// The session does not own the oracle.
  explicit CrowdSession(CrowdOracle* oracle) : oracle_(oracle) {
    CROWDSKY_CHECK(oracle != nullptr);
  }
  CROWDSKY_DISALLOW_COPY(CrowdSession);

  /// Caps the number of paid questions (pair attempts + unary). Asking
  /// past the budget is a programming error; callers must check CanAsk()
  /// first. A negative budget (the default) means unlimited.
  ///
  /// The budget's unit is *questions*, not worker answers: dynamic voting
  /// (Section 5) assigns ω+2 workers to high-frequency questions, so one
  /// paid question can consume more worker-answers than the static ω
  /// suggests. This matches the AMT cost model, which prices per-question
  /// HITs with a fixed ω multiplier — budgets therefore stay comparable
  /// across voting policies, and worker_answers may legitimately exceed
  /// budget * ω. Failed attempts and retries each consume one unit.
  ///
  /// Fresh-session-only: changing the budget after any crowd activity
  /// (including a journal restore) would invalidate CanAsk() decisions
  /// the run already acted on.
  void SetQuestionBudget(int64_t budget) {
    CROWDSKY_CHECK_MSG(FreshSession(),
                       "SetQuestionBudget is fresh-session-only: set the "
                       "budget before any question is asked or replayed");
    budget_ = budget;
  }
  /// True iff the next paid question is both within the budget and funded
  /// by the governor (if one is attached). Cached answers are always
  /// free, and journal credits — questions the crashed run already paid
  /// for — are consumed without consulting the governor: replay spends no
  /// new money, and an uninterruptible replay is what keeps the on-disk
  /// record stream a clean prefix across governed resumes.
  bool CanAsk() const {
    return BudgetCanAsk() &&
           (governor_ == nullptr || QuestionCreditPending() ||
            governor_->CanFundQuestion(open_round_questions_));
  }

  /// True when this run can pay for nothing more: no journal credit is
  /// left to replay, and either the question budget is spent or the
  /// governor has latched its stop. Unlike CanAsk() it never consults the
  /// governor, so it counts no denial. Once true it stays true: credits
  /// and budget are only consumed and the governor's stop is sticky.
  bool FundingClosed() const {
    return !QuestionCreditPending() &&
           (!BudgetCanAsk() || (governor_ != nullptr && governor_->stopped()));
  }

  /// Configures the retry/requeue behaviour for failed attempts.
  /// Fresh-session-only, like SetQuestionBudget: the retry cap shapes
  /// journal records and the governor's worst-case reservation, so it
  /// cannot change once either has observed it.
  void SetRetryPolicy(const RetryPolicy& policy) {
    CROWDSKY_CHECK(policy.max_retries >= 0 &&
                   policy.backoff_base_rounds >= 0 &&
                   policy.max_backoff_rounds >= 0);
    CROWDSKY_CHECK_MSG(FreshSession(),
                       "SetRetryPolicy is fresh-session-only: set the "
                       "policy before any question is asked or replayed");
    retry_ = policy;
  }
  const RetryPolicy& retry_policy() const { return retry_; }

  struct AskResult {
    AskStatus status = AskStatus::kAnswered;
    Answer answer = Answer::kEqual;  ///< valid iff status == kAnswered
    bool paid = false;  ///< at least one paid attempt happened in this call
  };

  /// Best-effort ask of the pair-wise question (u, v) on crowd attribute
  /// `attr` (canonicalized internally; the returned answer is oriented so
  /// that kFirstPreferred means `u` preferred). Cached answers are
  /// returned without contacting the crowd and consume no round capacity.
  /// Failed attempts are retried up to the policy's cap; when the cap (or
  /// the question budget, mid-retry) runs out the question is marked
  /// unresolved — every later TryAsk of it returns kUnresolved for free.
  AskResult TryAsk(int attr, int u, int v, const AskContext& ctx = {});

  /// Strict ask: like TryAsk but treats an unresolved question as a
  /// programming error. The right call for fault-free oracles and for
  /// algorithms with no degraded path (the sort baselines).
  Answer Ask(int attr, int u, int v, const AskContext& ctx = {});

  /// True iff the question is already answered in the cache.
  bool IsCached(int attr, int u, int v) const;
  /// True iff the question was given up on (retry cap exhausted).
  bool IsUnresolved(int attr, int u, int v) const;

  /// Pre-seeds the answer cache with an already-known answer (oriented as
  /// asked; canonicalized internally). Seeded answers behave exactly like
  /// cache entries: later asks of the pair are free lookups, never paid
  /// and never journaled. This is how the sharded merge phase (src/dist)
  /// imports the answers the shard runs already paid for, so
  /// cross-validation only pays for genuinely new cross-shard pairs.
  /// Seeding the same pair twice with the same answer is a no-op;
  /// contradictory re-seeding is a programming error. Call before the
  /// algorithm runs (and after RestoreFromJournal on a resume — replay
  /// rebuilds the paid cache first, then the seeds are layered back in).
  void SeedAnswer(int attr, int u, int v, Answer answer);
  /// Answers seeded through SeedAnswer (free by construction).
  int64_t seeded_answers() const { return seeded_answers_; }

  /// Every cached (question, answer) pair in canonical orientation,
  /// sorted by (attr, first, second) for determinism (like
  /// unresolved_questions(), the hash-map copy is sorted before anything
  /// observes the order). Paid answers, journal-replayed answers and
  /// seeded imports all appear; the sharded coordinator uses this to
  /// export a shard's resolved pairs to the merge phase.
  std::vector<std::pair<PairQuestion, Answer>> CachedAnswers() const {
    std::vector<std::pair<PairQuestion, Answer>> out(cache_.begin(),
                                                     cache_.end());
    std::sort(out.begin(), out.end(),
              [](const std::pair<PairQuestion, Answer>& a,
                 const std::pair<PairQuestion, Answer>& b) {
                if (a.first.attr != b.first.attr)
                  return a.first.attr < b.first.attr;
                if (a.first.first != b.first.first)
                  return a.first.first < b.first.first;
                return a.first.second < b.first.second;
              });
    return out;
  }

  /// Registers a callback invoked after every round actually closed
  /// (EndRound calls with zero open questions do not fire it), with the
  /// total closed-round count. The callback must not ask questions. The
  /// shard runner (src/dist) uses it to stream progress heartbeats; it is
  /// pure observation and never feeds back into the run.
  void SetRoundCallback(std::function<void(int64_t rounds_closed)> cb) {
    round_callback_ = std::move(cb);
  }

  /// Asks a unary question (value estimate); not cached (each tuple is
  /// asked once by construction in the unary baseline).
  double AskUnary(int id, int attr, const AskContext& ctx = {});

  /// Closes the current round if any questions were asked in it. Serial
  /// drivers call this after every ask; parallel drivers after each batch.
  void EndRound();

  const SessionStats& stats() const { return stats_; }
  const OracleStats& oracle_stats() const { return oracle_->stats(); }
  /// Number of questions in each closed round, in order.
  const std::vector<int64_t>& questions_per_round() const {
    return questions_per_round_;
  }
  /// Questions asked in the currently open round.
  int64_t open_round_questions() const { return open_round_questions_; }

  /// Every *paid* pair attempt in ask order, canonical orientation. A
  /// question appears once per paid attempt, so retried questions repeat;
  /// the invariant auditor matches repeats against retry_events() ("no
  /// pair is ever paid for twice without a recorded retry"). Cache hits
  /// and unary questions are not recorded here.
  const std::vector<PairQuestion>& paid_questions() const {
    return paid_questions_;
  }
  /// Every retry in pay order (one entry per re-asked attempt).
  const std::vector<RetryEvent>& retry_events() const {
    return retry_events_;
  }
  /// The questions given up on, canonical, sorted for determinism.
  std::vector<PairQuestion> unresolved_questions() const {
    std::vector<PairQuestion> out(unresolved_.begin(), unresolved_.end());
    std::sort(out.begin(), out.end(), [](const PairQuestion& a,
                                         const PairQuestion& b) {
      if (a.attr != b.attr) return a.attr < b.attr;
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    return out;
  }
  /// The configured question budget (negative = unlimited).
  int64_t question_budget() const { return budget_; }
  /// The budget half of CanAsk(), with no governor consultation (and so
  /// no side effects — CanFundQuestion counts denials). Post-run
  /// reporting and the auditor use this; RunAskLoop's entry precondition
  /// and its mid-retry give-up use it because a question the governor
  /// admitted is *funded* — its worst-case retry chain was reserved up
  /// front — so the governor never interrupts an attempt sequence (which
  /// would fork the journal's record shape and break
  /// resume-under-a-larger-cap).
  bool BudgetCanAsk() const {
    return budget_ < 0 ||
           stats_.questions + stats_.unary_questions < budget_;
  }

  // --- observability ----------------------------------------------------

  /// Attaches the run's observer (not owned; must outlive the session)
  /// for trace spans only: the crowd.ask_pair / crowd.ask_unary spans and
  /// the crowd.round events. The session counts nothing into it — the
  /// engine publishes stats(), questions_per_round() and the replay counts
  /// as metrics when it scrapes the finished run.
  void AttachObserver(obs::RunObserver* observer) {
    CROWDSKY_CHECK(observer != nullptr);
    CROWDSKY_CHECK_MSG(obs_ == nullptr, "observer already attached");
    obs_ = observer;
  }

  // --- governance --------------------------------------------------------

  /// Attaches the run governor (not owned; must outlive the session).
  /// Every subsequent paid ask consults it through CanAsk(), and every
  /// closed round feeds its cost/stall ledgers. Fresh-session-only and
  /// before RestoreFromJournal, so replayed rounds are metered too and a
  /// resumed run's cost ledger covers the whole run, not just the part
  /// after the crash.
  void AttachGovernor(RunGovernor* governor) {
    CROWDSKY_CHECK(governor != nullptr);
    CROWDSKY_CHECK_MSG(governor_ == nullptr, "governor already attached");
    CROWDSKY_CHECK_MSG(FreshSession(),
                       "attach the governor before any crowd activity (and "
                       "before RestoreFromJournal) so its ledgers cover the "
                       "whole run");
    governor_ = governor;
  }
  /// The attached governor (not owned), or nullptr.
  RunGovernor* governor() const { return governor_; }

  // --- durability -------------------------------------------------------

  /// Attaches the write-ahead answer journal. Not owned; must outlive the
  /// session. Every subsequently resolved question / unary ask / closed
  /// round is appended synchronously (a failed append aborts the run
  /// rather than continuing undurably).
  void AttachJournal(persist::JournalWriter* journal) {
    CROWDSKY_CHECK(journal != nullptr);
    CROWDSKY_CHECK_MSG(journal_ == nullptr, "journal already attached");
    journal_ = journal;
  }
  /// The attached journal (not owned), or nullptr. Const because the
  /// session does not own it — the auditor syncs and re-reads it through
  /// a const session reference.
  persist::JournalWriter* journal() const { return journal_; }

  /// Appends the governor's stop marker as the journal's final record.
  /// Must be called at a quiescent point — no open round, every credit
  /// consumed — so the epilogue (the preceding kRoundEnd plus this
  /// record) is exactly what PrepareResume truncates to extend the run
  /// under a larger budget. Goes through the normal append path so the
  /// durable-position and records-appended ledgers stay consistent.
  void JournalTermination(const TerminationReport& report);

  /// Queues a recovered journal as credits. Must be called on a fresh
  /// session, after SetRetryPolicy/SetQuestionBudget and before the
  /// algorithm runs. The re-executed run consumes the credits in order: a
  /// TryAsk / AskUnary / EndRound that matches the front credit draws its
  /// outcome from the journal instead of the oracle and appends nothing.
  ///
  /// One mismatch is not a divergence. A governor stop closes its round
  /// early, so a journal cut after that round's kRoundEnd but before the
  /// kTermination marker ends in a boundary the resumed run may not
  /// reach: a live ask while the round is open and that kRoundEnd is the
  /// only credit left means the boundary was the stop's. The ask revokes
  /// it (drops it from the queue and the file) and proceeds live. Only a
  /// stop can make a round shorter than the uncapped run's; a
  /// deterministic re-execution re-closes every other boundary at the
  /// same count. Every other mismatch aborts.
  void RestoreFromJournal(std::deque<persist::JournalRecord> credits);

  /// Journal records this session has accounted for: consumed as credits
  /// + freshly appended (the journal *file* may still hold unconsumed
  /// credits beyond it).
  int64_t journal_position() const { return journal_position_; }
  /// Credits still queued (0 once the resumed run passes the crash point).
  int64_t credits_remaining() const {
    return static_cast<int64_t>(credits_.size());
  }
  /// Paid pair attempts whose outcome came from the journal, not the
  /// oracle.
  int64_t replayed_pair_attempts() const { return replayed_pair_attempts_; }
  /// Unary questions answered from the journal.
  int64_t replayed_unary_questions() const { return replayed_unary_; }

 private:
  /// True until the session has asked, replayed or cached anything —
  /// the precondition for every configuration setter above.
  bool FreshSession() const {
    return stats_.questions == 0 && stats_.unary_questions == 0 &&
           stats_.rounds == 0 && stats_.cache_hits == 0 &&
           journal_position_ == 0 && cache_.empty();
  }
  /// The only credit left is a round boundary (see RestoreFromJournal).
  bool TrailingBoundaryCredit() const {
    return credits_.size() == 1 &&
           credits_.front().kind == persist::JournalRecord::Kind::kRoundEnd;
  }
  /// A credit still stands for a question, so the next ask replays it
  /// instead of paying. The revocable trailing boundary does not: the
  /// dead run was live at that point, so funding decisions are made as if
  /// the queue were empty.
  bool QuestionCreditPending() const {
    return !credits_.empty() && !TrailingBoundaryCredit();
  }
  /// Called before a live ask: revokes the trailing boundary credit if
  /// the open round is about to outgrow it.
  void RevokeStopBoundary();
  /// Monotone resolved-work measure for the governor's stall watchdog:
  /// distinct answered pair questions plus unary questions.
  int64_t ResolvedTotal() const {
    return static_cast<int64_t>(cache_.size()) + stats_.unary_questions;
  }
  /// Charges one paid attempt for `canonical` to the budget and logs.
  void ChargeAttempt(const PairQuestion& canonical);
  /// The retry loop shared by live asks and journal replay: when
  /// `scripted` is set, attempt outcomes come from its recorded attempts
  /// (no oracle call, no journal append) and the loop CHECKs that the
  /// re-executed control flow consumes the record exactly.
  AskResult RunAskLoop(const PairQuestion& canonical, bool flipped,
                       const AskContext& ctx,
                       const persist::JournalRecord* scripted);
  /// Stamps the fault-trace cursor and appends, aborting on I/O failure.
  void AppendToJournal(persist::JournalRecord record);
  void AppendPairRecord(const PairQuestion& canonical, const AskContext& ctx,
                        std::vector<persist::AttemptOutcome> attempts,
                        bool resolved, Answer answer);

  /// Notes that a paid question opened the current round (trace only).
  void NoteRoundActivity();

  CrowdOracle* oracle_;
  std::unordered_map<PairQuestion, Answer, PairQuestionHash> cache_;
  std::unordered_set<PairQuestion, PairQuestionHash> unresolved_;
  SessionStats stats_;
  RetryPolicy retry_;
  std::vector<int64_t> questions_per_round_;
  std::vector<PairQuestion> paid_questions_;
  std::vector<RetryEvent> retry_events_;
  int64_t open_round_questions_ = 0;
  int64_t budget_ = -1;
  RunGovernor* governor_ = nullptr;
  persist::JournalWriter* journal_ = nullptr;
  std::deque<persist::JournalRecord> credits_;
  int64_t journal_position_ = 0;
  int64_t replayed_pair_attempts_ = 0;
  int64_t replayed_unary_ = 0;
  obs::RunObserver* obs_ = nullptr;
  int64_t seeded_answers_ = 0;
  std::function<void(int64_t)> round_callback_;
  int64_t round_start_ns_ = -1;  ///< trace timestamp of the open round's
                                 ///< first paid question; -1 = none
};

}  // namespace crowdsky
