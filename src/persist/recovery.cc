#include "persist/recovery.h"

#include <cstring>
#include <deque>
#include <iterator>
#include <string>
#include <utility>

#include "crowd/fault_injector.h"
#include "crowd/oracle.h"
#include "crowd/session.h"

namespace crowdsky::persist {
namespace {

uint8_t StatusByte(PairOutcome::Status status) {
  switch (status) {
    case PairOutcome::Status::kOk:
      return AttemptOutcome::kOk;
    case PairOutcome::Status::kDegradedQuorum:
      return AttemptOutcome::kDegradedQuorum;
    case PairOutcome::Status::kFailed:
      return AttemptOutcome::kFailed;
  }
  return AttemptOutcome::kFailed;
}

bool AttemptMatches(const PairOutcome& outcome, const AttemptOutcome& a) {
  return StatusByte(outcome.status) == a.status &&
         outcome.transient_error == a.transient_error &&
         outcome.hit_expired == a.hit_expired &&
         outcome.extra_latency_rounds == a.extra_latency_rounds &&
         outcome.votes_expected == a.votes_expected &&
         outcome.votes_counted == a.votes_counted &&
         outcome.no_shows == a.no_shows &&
         outcome.stragglers == a.stragglers;
}

Status Diverged(int64_t index, const std::string& what) {
  return Status::FailedPrecondition(
      "journal record " + std::to_string(index) +
      " does not replay against this configuration (" + what +
      "); the journal belongs to a different run");
}

/// Replays one record's oracle calls, verifying bit-exact agreement. On
/// success the oracle's RNG / pool / fault streams have advanced exactly
/// as they did when the record was first written.
Status RedriveRecord(CrowdOracle* oracle, const JournalRecord& record,
                     int64_t index) {
  AskContext ctx;
  ctx.freq = static_cast<size_t>(record.freq);
  switch (record.kind) {
    case JournalRecord::Kind::kPairAsk: {
      if (record.attempts.empty()) return Diverged(index, "no attempts");
      for (size_t i = 0; i < record.attempts.size(); ++i) {
        const PairOutcome outcome =
            oracle->AnswerPairOutcome(record.question, ctx);
        if (!AttemptMatches(outcome, record.attempts[i])) {
          return Diverged(index, "attempt outcome mismatch");
        }
        const bool last = i + 1 == record.attempts.size();
        const bool failed = outcome.status == PairOutcome::Status::kFailed;
        if (failed != (last ? !record.resolved : true)) {
          return Diverged(index, "attempt shape mismatch");
        }
        if (last && record.resolved && outcome.answer != record.answer) {
          return Diverged(index, "aggregated answer mismatch");
        }
      }
      break;
    }
    case JournalRecord::Kind::kUnary: {
      const double value =
          oracle->AnswerUnary(record.unary_id, record.unary_attr, ctx);
      if (std::memcmp(&value, &record.unary_value, sizeof value) != 0) {
        return Diverged(index, "unary value mismatch");
      }
      break;
    }
    case JournalRecord::Kind::kRoundEnd:
      break;  // rounds are session bookkeeping; nothing to re-drive
    case JournalRecord::Kind::kTermination:
      // PrepareResume strips the termination epilogue before re-driving;
      // one surviving here is not at the tail, which no writer produces.
      return Diverged(index, "termination record not at the journal tail");
  }
  if (const FaultInjector* injector = oracle->fault_injector();
      injector != nullptr) {
    if (injector->attempt_draws() != record.fault_attempt_draws ||
        injector->vote_draws() != record.fault_vote_draws) {
      return Diverged(index, "fault-trace cursor mismatch");
    }
  }
  return Status::OK();
}

}  // namespace

std::string JournalPath(const std::string& dir) {
  return dir + "/journal.bin";
}

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.bin";
}

Result<ResumeOutcome> PrepareResume(const std::string& dir,
                                    uint64_t fingerprint, SyncMode sync,
                                    CrowdOracle* oracle,
                                    CrowdSession* session) {
  CROWDSKY_CHECK(oracle != nullptr && session != nullptr);
  const std::string journal_path = JournalPath(dir);
  CROWDSKY_ASSIGN_OR_RETURN(RecoveredJournal recovered,
                            ReadJournal(journal_path));
  if (recovered.fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "journal '" + journal_path +
        "' was written by a different run configuration; refusing to "
        "replay its answers");
  }
  ResumeOutcome out;
  if (recovered.torn_tail) {
    CROWDSKY_RETURN_NOT_OK(
        TruncateJournal(journal_path, recovered.valid_bytes));
    out.recovered_torn_tail = true;
    out.torn_bytes = recovered.torn_bytes;
  }

  // A governor-terminated run leaves a *revocable epilogue* at the tail:
  // the kTermination marker and the quiescent kRoundEnd right before it.
  // Both describe the stop, not crowd answers — and a capped run's final
  // round may be a strict prefix of the round an uncapped run would close
  // at the same position. Dropping them turns the journal into a
  // byte-exact prefix of the uninterrupted run's stream, so resuming
  // under a larger budget replays every paid answer as a credit and
  // re-closes the final round at its true size (re-appending an identical
  // record when the budgets agree — the truncation is idempotent).
  if (!recovered.records.empty() &&
      recovered.records.back().kind == JournalRecord::Kind::kTermination) {
    int64_t epilogue_bytes =
        static_cast<int64_t>(EncodeRecord(recovered.records.back()).size());
    recovered.records.pop_back();
    if (!recovered.records.empty() &&
        recovered.records.back().kind == JournalRecord::Kind::kRoundEnd) {
      epilogue_bytes +=
          static_cast<int64_t>(EncodeRecord(recovered.records.back()).size());
      recovered.records.pop_back();
    }
    recovered.valid_bytes -= epilogue_bytes;
    CROWDSKY_RETURN_NOT_OK(
        TruncateJournal(journal_path, recovered.valid_bytes));
    out.truncated_termination = true;
  }
  out.journal_records = static_cast<int64_t>(recovered.records.size());

  // Per-round counts of the surviving records, for the engine's
  // governed-resume validation (a cap must at least fund the replay).
  int64_t tail = 0;
  for (const JournalRecord& r : recovered.records) {
    switch (r.kind) {
      case JournalRecord::Kind::kPairAsk:
        tail += static_cast<int64_t>(r.attempts.size());
        break;
      case JournalRecord::Kind::kUnary:
        ++tail;
        break;
      case JournalRecord::Kind::kRoundEnd:
        out.round_questions.push_back(r.round_questions);
        tail = 0;
        break;
      case JournalRecord::Kind::kTermination:
        break;  // truncated above; unreachable
    }
  }
  out.open_tail_questions = tail;

  // Re-drive the oracle over every recovered record. This authenticates
  // the journal against the current seed/options and leaves the oracle's
  // random streams exactly where the dead process's stood.
  for (size_t i = 0; i < recovered.records.size(); ++i) {
    CROWDSKY_RETURN_NOT_OK(RedriveRecord(oracle, recovered.records[i],
                                         static_cast<int64_t>(i)));
  }

  session->RestoreFromJournal(std::deque<JournalRecord>(
      std::make_move_iterator(recovered.records.begin()),
      std::make_move_iterator(recovered.records.end())));

  CROWDSKY_ASSIGN_OR_RETURN(
      out.writer, JournalWriter::OpenForAppend(journal_path, fingerprint,
                                               sync, out.journal_records));
  session->AttachJournal(out.writer.get());
  return out;
}

}  // namespace crowdsky::persist
