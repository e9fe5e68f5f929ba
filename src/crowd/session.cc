#include "crowd/session.h"

#include <algorithm>
#include <utility>

#include "crowd/fault_injector.h"

namespace crowdsky {
namespace {

RetryEvent::Reason ReasonFor(const PairOutcome& outcome) {
  if (outcome.transient_error) return RetryEvent::Reason::kTransientError;
  if (outcome.hit_expired) return RetryEvent::Reason::kHitExpired;
  return RetryEvent::Reason::kInsufficientQuorum;
}

persist::AttemptOutcome SummarizeOutcome(const PairOutcome& outcome) {
  persist::AttemptOutcome out;
  switch (outcome.status) {
    case PairOutcome::Status::kOk:
      out.status = persist::AttemptOutcome::kOk;
      break;
    case PairOutcome::Status::kDegradedQuorum:
      out.status = persist::AttemptOutcome::kDegradedQuorum;
      break;
    case PairOutcome::Status::kFailed:
      out.status = persist::AttemptOutcome::kFailed;
      break;
  }
  out.transient_error = outcome.transient_error;
  out.hit_expired = outcome.hit_expired;
  out.extra_latency_rounds = outcome.extra_latency_rounds;
  out.votes_expected = outcome.votes_expected;
  out.votes_counted = outcome.votes_counted;
  out.no_shows = outcome.no_shows;
  out.stragglers = outcome.stragglers;
  return out;
}

/// Reconstructs the PairOutcome the oracle produced for attempt `index` of
/// the journaled question (the record's final answer applies to whichever
/// attempt succeeded; failed attempts never carried an answer).
PairOutcome OutcomeFromRecord(const persist::JournalRecord& record,
                              size_t index) {
  const persist::AttemptOutcome& a = record.attempts[index];
  PairOutcome out;
  switch (a.status) {
    case persist::AttemptOutcome::kOk:
      out.status = PairOutcome::Status::kOk;
      break;
    case persist::AttemptOutcome::kDegradedQuorum:
      out.status = PairOutcome::Status::kDegradedQuorum;
      break;
    default:
      out.status = PairOutcome::Status::kFailed;
      break;
  }
  if (out.status != PairOutcome::Status::kFailed) out.answer = record.answer;
  out.transient_error = a.transient_error;
  out.hit_expired = a.hit_expired;
  out.extra_latency_rounds = a.extra_latency_rounds;
  out.votes_expected = a.votes_expected;
  out.votes_counted = a.votes_counted;
  out.no_shows = a.no_shows;
  out.stragglers = a.stragglers;
  return out;
}

}  // namespace

void CrowdSession::NoteRoundActivity() {
  ++open_round_questions_;
  if (open_round_questions_ == 1 && obs_ != nullptr &&
      obs_->tracing_enabled()) {
    round_start_ns_ = obs_->trace().NowNs();
  }
}

void CrowdSession::ChargeAttempt(const PairQuestion& canonical) {
  paid_questions_.push_back(canonical);
  ++stats_.questions;
  NoteRoundActivity();
}

void CrowdSession::AppendToJournal(persist::JournalRecord record) {
  if (const FaultInjector* injector = oracle_->fault_injector();
      injector != nullptr) {
    record.fault_attempt_draws = injector->attempt_draws();
    record.fault_vote_draws = injector->vote_draws();
  }
  const Status status = journal_->Append(record);
  CROWDSKY_CHECK_MSG(status.ok(),
                     "answer journal append failed; aborting rather than "
                     "continuing undurably");
  ++journal_position_;
}

void CrowdSession::AppendPairRecord(
    const PairQuestion& canonical, const AskContext& ctx,
    std::vector<persist::AttemptOutcome> attempts, bool resolved,
    Answer answer) {
  persist::JournalRecord record;
  record.kind = persist::JournalRecord::Kind::kPairAsk;
  record.question = canonical;
  record.freq = static_cast<uint64_t>(ctx.freq);
  record.resolved = resolved;
  record.answer = answer;
  record.attempts = std::move(attempts);
  AppendToJournal(std::move(record));
}

CrowdSession::AskResult CrowdSession::RunAskLoop(
    const PairQuestion& canonical, bool flipped, const AskContext& ctx,
    const persist::JournalRecord* scripted) {
  // The precondition is budget-only: the governor's gate was consulted by
  // the caller through CanAsk(), and a cancellation token flipping between
  // that check and this call must not abort the process — the admitted
  // question simply runs (funding is a commitment, see BudgetCanAsk()).
  CROWDSKY_CHECK_MSG(BudgetCanAsk(), "question budget exhausted");
  size_t scripted_index = 0;
  std::vector<persist::AttemptOutcome> attempts;
  for (int attempt = 0;; ++attempt) {
    ChargeAttempt(canonical);
    PairOutcome outcome;
    if (scripted != nullptr) {
      CROWDSKY_CHECK_MSG(scripted_index < scripted->attempts.size(),
                         "journal replay diverged: the resumed run paid "
                         "more attempts than the journal recorded");
      outcome = OutcomeFromRecord(*scripted, scripted_index);
      ++scripted_index;
      ++replayed_pair_attempts_;
    } else {
      obs::TraceSpan span = obs::SpanIf(obs_, "crowd.ask_pair");
      span.AddArg("attr", canonical.attr);
      outcome = oracle_->AnswerPairOutcome(canonical, ctx);
      span.End();
      if (journal_ != nullptr) attempts.push_back(SummarizeOutcome(outcome));
    }
    if (outcome.status != PairOutcome::Status::kFailed) {
      if (outcome.status == PairOutcome::Status::kDegradedQuorum) {
        ++stats_.degraded_quorum;
      }
      cache_.emplace(canonical, outcome.answer);
      if (scripted != nullptr) {
        CROWDSKY_CHECK_MSG(
            scripted->resolved &&
                scripted_index == scripted->attempts.size(),
            "journal replay diverged: attempt shape mismatch on a "
            "resolved question");
      } else if (journal_ != nullptr) {
        AppendPairRecord(canonical, ctx, std::move(attempts),
                         /*resolved=*/true, outcome.answer);
      }
      return {AskStatus::kAnswered,
              flipped ? FlipAnswer(outcome.answer) : outcome.answer,
              /*paid=*/true};
    }
    ++stats_.failed_attempts;
    stats_.backoff_rounds =
        SaturatingAdd(stats_.backoff_rounds, outcome.extra_latency_rounds);
    if (attempt >= retry_.max_retries || !BudgetCanAsk()) {
      // Retry cap hit (or the budget cannot fund another attempt): give
      // up on this question for the rest of the session.
      unresolved_.insert(canonical);
      ++stats_.unresolved_questions;
      if (scripted != nullptr) {
        CROWDSKY_CHECK_MSG(
            !scripted->resolved &&
                scripted_index == scripted->attempts.size(),
            "journal replay diverged: attempt shape mismatch on an "
            "unresolved question");
      } else if (journal_ != nullptr) {
        AppendPairRecord(canonical, ctx, std::move(attempts),
                         /*resolved=*/false, Answer::kEqual);
      }
      return {AskStatus::kUnresolved, Answer::kEqual, /*paid=*/true};
    }
    // Requeue with capped exponential round backoff before the retry.
    const int64_t backoff = RetryBackoffRounds(retry_, attempt);
    stats_.backoff_rounds = SaturatingAdd(stats_.backoff_rounds, backoff);
    retry_events_.push_back({canonical, attempt + 1, ReasonFor(outcome)});
    ++stats_.retries;
  }
}

CrowdSession::AskResult CrowdSession::TryAsk(int attr, int u, int v,
                                             const AskContext& ctx) {
  CROWDSKY_CHECK_MSG(u != v, "pair question needs two distinct tuples");
  const PairQuestion canonical = PairQuestion{attr, u, v}.Canonical();
  const bool flipped = canonical.first != u;
  if (auto it = cache_.find(canonical); it != cache_.end()) {
    ++stats_.cache_hits;
    return {AskStatus::kAnswered,
            flipped ? FlipAnswer(it->second) : it->second,
            /*paid=*/false};
  }
  if (unresolved_.contains(canonical)) {
    // Already given up on: stay given up (the retry cap is per question,
    // not per caller) and charge nothing.
    return {AskStatus::kUnresolved, Answer::kEqual, /*paid=*/false};
  }
  const persist::JournalRecord* credit = nullptr;
  if (!credits_.empty()) {
    credit = &credits_.front();
    CROWDSKY_CHECK_MSG(
        credit->kind == persist::JournalRecord::Kind::kPairAsk &&
            credit->question == canonical,
        "journal replay diverged: the resumed run asked a question the "
        "original run did not ask here");
  }
  const AskResult result = RunAskLoop(canonical, flipped, ctx, credit);
  if (credit != nullptr) {
    credits_.pop_front();
    ++journal_position_;
  }
  return result;
}

Answer CrowdSession::Ask(int attr, int u, int v, const AskContext& ctx) {
  const AskResult result = TryAsk(attr, u, v, ctx);
  CROWDSKY_CHECK_MSG(result.status == AskStatus::kAnswered,
                     "pair question unresolved after retries; best-effort "
                     "callers must use TryAsk()");
  return result.answer;
}

bool CrowdSession::IsCached(int attr, int u, int v) const {
  return cache_.contains(PairQuestion{attr, u, v}.Canonical());
}

bool CrowdSession::IsUnresolved(int attr, int u, int v) const {
  return unresolved_.contains(PairQuestion{attr, u, v}.Canonical());
}

void CrowdSession::SeedAnswer(int attr, int u, int v, Answer answer) {
  PairQuestion question{attr, u, v};
  const PairQuestion canonical = question.Canonical();
  const Answer oriented =
      canonical.first == question.first ? answer : FlipAnswer(answer);
  const auto [it, inserted] = cache_.emplace(canonical, oriented);
  CROWDSKY_CHECK_MSG(it->second == oriented,
                     "SeedAnswer contradicts an existing cache entry for "
                     "the same pair");
  if (inserted) ++seeded_answers_;
}

double CrowdSession::AskUnary(int id, int attr, const AskContext& ctx) {
  // Budget-only for the same reason as RunAskLoop: the caller gated
  // through CanAsk(), and an asynchronous cancel in between must degrade
  // gracefully, not CHECK-fail.
  CROWDSKY_CHECK_MSG(BudgetCanAsk(), "question budget exhausted");
  ++stats_.unary_questions;
  NoteRoundActivity();
  if (!credits_.empty()) {
    const persist::JournalRecord& credit = credits_.front();
    CROWDSKY_CHECK_MSG(
        credit.kind == persist::JournalRecord::Kind::kUnary &&
            credit.unary_id == id && credit.unary_attr == attr,
        "journal replay diverged: the resumed run asked a unary question "
        "the original run did not ask here");
    const double value = credit.unary_value;
    credits_.pop_front();
    ++journal_position_;
    ++replayed_unary_;
    return value;
  }
  obs::TraceSpan span = obs::SpanIf(obs_, "crowd.ask_unary");
  span.AddArg("attr", attr);
  const double value = oracle_->AnswerUnary(id, attr, ctx);
  span.End();
  if (journal_ != nullptr) {
    persist::JournalRecord record;
    record.kind = persist::JournalRecord::Kind::kUnary;
    record.freq = static_cast<uint64_t>(ctx.freq);
    record.unary_id = id;
    record.unary_attr = attr;
    record.unary_value = value;
    AppendToJournal(std::move(record));
  }
  return value;
}

void CrowdSession::EndRound() {
  if (open_round_questions_ == 0) return;
  questions_per_round_.push_back(open_round_questions_);
  ++stats_.rounds;
  const int64_t closed = open_round_questions_;
  open_round_questions_ = 0;
  if (governor_ != nullptr) {
    governor_->OnRoundClosed(closed, ResolvedTotal());
  }
  if (round_start_ns_ >= 0) {
    obs_->trace().Record("crowd.round", round_start_ns_,
                         obs_->trace().NowNs(),
                         "\"questions\": " + std::to_string(closed));
    round_start_ns_ = -1;
  }
  if (!credits_.empty()) {
    const persist::JournalRecord& credit = credits_.front();
    CROWDSKY_CHECK_MSG(
        credit.kind == persist::JournalRecord::Kind::kRoundEnd &&
            credit.round_questions == closed,
        "journal replay diverged: round boundary mismatch");
    credits_.pop_front();
    ++journal_position_;
    if (round_callback_) round_callback_(stats_.rounds);
    return;
  }
  if (journal_ != nullptr) {
    persist::JournalRecord record;
    record.kind = persist::JournalRecord::Kind::kRoundEnd;
    record.round_questions = closed;
    AppendToJournal(std::move(record));
  }
  // After the round-end record is durable, so a kill-at-round fault
  // injected from the callback leaves a clean round boundary behind.
  if (round_callback_) round_callback_(stats_.rounds);
}

void CrowdSession::JournalTermination(const TerminationReport& report) {
  CROWDSKY_CHECK_MSG(journal_ != nullptr,
                     "JournalTermination requires an attached journal");
  CROWDSKY_CHECK_MSG(open_round_questions_ == 0,
                     "termination record inside an open round");
  CROWDSKY_CHECK_MSG(credits_.empty(),
                     "termination record with journal credits unconsumed");
  persist::JournalRecord record;
  record.kind = persist::JournalRecord::Kind::kTermination;
  record.termination_reason = static_cast<uint8_t>(report.reason);
  record.termination_rounds = report.rounds;
  record.termination_cost_spent = report.cost_spent_usd;
  record.termination_cost_cap = report.cost_cap_usd;
  AppendToJournal(std::move(record));
}

void CrowdSession::RestoreFromJournal(
    const std::vector<persist::JournalRecord>& fold,
    std::deque<persist::JournalRecord> credits,
    int64_t checkpoint_cache_hits) {
  CROWDSKY_CHECK_MSG(stats_.questions == 0 && stats_.unary_questions == 0 &&
                         stats_.rounds == 0 && stats_.cache_hits == 0 &&
                         cache_.empty() && journal_position_ == 0,
                     "RestoreFromJournal requires a fresh session");
  CROWDSKY_CHECK(checkpoint_cache_hits >= 0);
  for (const persist::JournalRecord& record : fold) {
    switch (record.kind) {
      case persist::JournalRecord::Kind::kPairAsk: {
        CROWDSKY_CHECK_MSG(record.question == record.question.Canonical(),
                           "journal pair record is not canonical");
        AskContext ctx;
        ctx.freq = static_cast<size_t>(record.freq);
        (void)RunAskLoop(record.question, /*flipped=*/false, ctx, &record);
        break;
      }
      case persist::JournalRecord::Kind::kUnary:
        ++stats_.unary_questions;
        ++open_round_questions_;
        ++replayed_unary_;
        break;
      case persist::JournalRecord::Kind::kRoundEnd:
        CROWDSKY_CHECK_MSG(open_round_questions_ == record.round_questions,
                           "journal round boundary does not match the "
                           "folded records");
        questions_per_round_.push_back(open_round_questions_);
        ++stats_.rounds;
        if (governor_ != nullptr) {
          governor_->OnRoundClosed(open_round_questions_, ResolvedTotal());
        }
        open_round_questions_ = 0;
        break;
      case persist::JournalRecord::Kind::kTermination:
        // PrepareResume truncates the termination epilogue before handing
        // records to the session; reaching one here means the journal was
        // fed in unprocessed.
        CROWDSKY_CHECK_MSG(false,
                           "termination record in a folded journal prefix");
        break;
    }
    ++journal_position_;
  }
  CROWDSKY_CHECK_MSG(open_round_questions_ == 0,
                     "checkpointed journal prefix must end on a round "
                     "boundary");
  // Cache hits the skipped work produced are invisible to the journal
  // (they were free); the checkpoint carries their count.
  stats_.cache_hits = checkpoint_cache_hits;
  credits_ = std::move(credits);
}

}  // namespace crowdsky
