// Append-only, checksummed write-ahead journal of resolved crowd answers.
//
// Every *resolved* paid question (all its attempts, the aggregated answer
// or the give-up, and the fault-trace cursor), every unary question, and
// every closed crowd round is appended as one CRC-framed record by
// CrowdSession the moment it resolves — before the algorithm acts on the
// answer. A killed run therefore loses at most the question that was in
// flight (which, having never been journaled, is also the exact point
// where the deterministic oracle's RNG stream stands after replay — the
// resumed run re-pays nothing and diverges nowhere).
//
// File layout:
//   header   := magic "CSKYJNL1" | u32 version | u64 fingerprint | u32 crc
//   record   := u32 payload_size | u32 crc32(payload) | payload
// The fingerprint hashes the run configuration (dataset, options, seed);
// resuming under a different configuration is refused instead of silently
// replaying answers into the wrong run.
//
// Torn tails: a crash can leave a half-written record at the end of the
// file. ReadJournal parses records until the first frame that is short,
// fails its CRC, or does not decode, and reports everything before it as
// valid; recovery truncates the tail and appends from there.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "crowd/question.h"

namespace crowdsky::persist {

/// How durable each appended record is before Append returns.
enum class SyncMode {
  kBuffered,  ///< user-space buffer; lost on process death (fastest)
  kFlush,     ///< write(2) per record; survives process death (default)
  kFsync,     ///< fdatasync per record; survives machine crash (slowest)
};

/// Stable display name ("buffered", "flush", "fsync").
const char* SyncModeName(SyncMode mode);

/// Summary of one paid attempt at a pair question (the journaled subset of
/// PairOutcome — everything the session's accounting consumes).
struct AttemptOutcome {
  static constexpr uint8_t kOk = 0;
  static constexpr uint8_t kDegradedQuorum = 1;
  static constexpr uint8_t kFailed = 2;

  uint8_t status = kOk;
  bool transient_error = false;
  bool hit_expired = false;
  int32_t extra_latency_rounds = 0;
  int32_t votes_expected = 0;
  int32_t votes_counted = 0;
  int32_t no_shows = 0;
  int32_t stragglers = 0;

  bool operator==(const AttemptOutcome&) const = default;
};

/// One durable journal entry.
struct JournalRecord {
  enum class Kind : uint8_t {
    kPairAsk = 0,      ///< a resolved (or given-up) pair question
    kUnary = 1,        ///< one unary question
    kRoundEnd = 2,     ///< a crowd round closed
    kTermination = 3,  ///< the governor stopped the run (always last)
  };
  Kind kind = Kind::kPairAsk;

  // kPairAsk: the canonical question, its ask context, every paid attempt
  // in order, and the final fate. `answer` is valid iff `resolved`.
  PairQuestion question;
  uint64_t freq = 0;
  bool resolved = false;
  Answer answer = Answer::kEqual;
  std::vector<AttemptOutcome> attempts;

  // kUnary: the question and the aggregated value estimate.
  int32_t unary_id = 0;
  int32_t unary_attr = 0;
  double unary_value = 0.0;

  // kRoundEnd: how many questions the closed round held.
  int64_t round_questions = 0;

  // kTermination: why the governor stopped the run, and the ledger at the
  // stop (a TerminationReason as uint8_t; persist/ stays below core/).
  // Resume treats this record — and the quiescent kRoundEnd before it —
  // as a revocable epilogue: PrepareResume truncates both so a run capped
  // at C resumes under C' > C on a byte-exact prefix of the uncapped
  // stream.
  uint8_t termination_reason = 0;
  int64_t termination_rounds = 0;
  double termination_cost_spent = 0.0;
  double termination_cost_cap = 0.0;

  // Fault-trace cursor: total draws the marketplace's FaultInjector has
  // made after this record (both 0 when no injector is attached). Recovery
  // verifies the re-driven fault stream lands on the same cursor.
  uint64_t fault_attempt_draws = 0;
  uint64_t fault_vote_draws = 0;
};

/// Encodes one record as a framed byte string (size + CRC + payload);
/// exposed for tests that fabricate corrupt journals.
std::string EncodeRecord(const JournalRecord& record);

/// \brief Appender with per-record durability control.
///
/// Test hook: when the environment variable CROWDSKY_JOURNAL_KILL_AFTER is
/// set to N > 0, the process _Exit(137)s immediately after the N-th record
/// appended by this process becomes durable — the kill-point harness's
/// seeded crash injection. CROWDSKY_JOURNAL_KILL_TEAR additionally appends
/// that many garbage bytes first, simulating a torn in-flight record. Both
/// are parsed strictly when the writer is built: unset or empty is off, and
/// any value that is not a whole number >= 0 fitting a long aborts.
class JournalWriter {
 public:
  /// Creates (truncating) a fresh journal and writes its header.
  static Result<std::unique_ptr<JournalWriter>> Create(
      const std::string& path, uint64_t fingerprint, SyncMode sync);

  /// Opens a recovered journal for appending. The header must carry
  /// `fingerprint`; `existing_records` (from ReadJournal, after any
  /// truncation) seeds records_total().
  static Result<std::unique_ptr<JournalWriter>> OpenForAppend(
      const std::string& path, uint64_t fingerprint, SyncMode sync,
      int64_t existing_records);

  ~JournalWriter();
  CROWDSKY_DISALLOW_COPY(JournalWriter);

  /// Appends one record with the configured durability.
  Status Append(const JournalRecord& record);

  /// Drains the user-space buffer (kBuffered) and fdatasyncs. Called
  /// before a checkpoint references the journal prefix by record count.
  Status Sync();

  const std::string& path() const { return path_; }
  SyncMode sync_mode() const { return sync_; }
  /// Records appended by this writer (this process).
  int64_t records_appended() const { return appended_; }
  /// Records in the file: pre-existing (recovered) + appended.
  int64_t records_total() const { return existing_ + appended_; }
  /// Record bytes appended by this writer (frames only; the header written
  /// by Create is not counted). Deterministic for a given record stream.
  int64_t bytes_appended() const { return bytes_appended_; }
  /// fdatasync(2) calls issued by this writer (kFsync appends, explicit
  /// Sync()s, and the header sync under kFsync).
  int64_t fsyncs() const { return fsyncs_; }

 private:
  JournalWriter(std::string path, int fd, SyncMode sync, int64_t existing);

  Status WriteFrame(const std::string& frame);
  Status FlushBuffer();
  void MaybeKillForTest();

  std::string path_;
  int fd_;
  SyncMode sync_;
  int64_t existing_;
  int64_t appended_ = 0;
  int64_t bytes_appended_ = 0;
  int64_t fsyncs_ = 0;
  std::string buffer_;
  long kill_after_ = 0;
  long kill_tear_ = 0;
};

/// Everything ReadJournal recovered from disk.
struct RecoveredJournal {
  uint64_t fingerprint = 0;
  std::vector<JournalRecord> records;
  /// Bytes of header + valid records; the safe truncation point.
  int64_t valid_bytes = 0;
  /// Trailing bytes failed to parse (torn in-flight record or garbage).
  bool torn_tail = false;
  int64_t torn_bytes = 0;
};

/// Parses a journal, stopping at (and reporting) any torn tail. Fails on a
/// missing file or an unrecognizable/corrupt header.
Result<RecoveredJournal> ReadJournal(const std::string& path);

/// Physically truncates the journal to `valid_bytes` (torn-tail removal).
Status TruncateJournal(const std::string& path, int64_t valid_bytes);

}  // namespace crowdsky::persist
