// Crash recovery: turns a journal directory back into a live, resumable
// run.
//
// PrepareResume is the one entry point. It
//   1. reads the journal, truncating any torn tail left by the crash and
//      any governor-termination epilogue (a capped/cancelled run's stop
//      marker plus its final round boundary — revocable bookkeeping, not
//      answers), so a terminated run can resume under a larger budget,
//   2. refuses to proceed if the journal's config fingerprint does not
//      match the resuming run's,
//   3. re-drives the deterministic oracle over *every* recovered record,
//      verifying bit-exact agreement (attempt outcomes, answers, unary
//      values, fault-trace cursors) — this both authenticates the journal
//      against the current configuration and advances the oracle's RNG /
//      worker-pool / fault state to exactly where the dead process stood,
//   4. queues every recovered record in the session as a credit, and
//   5. reopens the journal for appending.
//
// After PrepareResume succeeds, the algorithm simply runs from the start:
// already-paid questions replay from credits, and the first genuinely new
// question hits the oracle with every random stream in the same position
// as an uninterrupted run. A crash that left the stop's round boundary
// behind without its kTermination marker is handled by the session, which
// revokes that boundary if the resumed run keeps the round open
// (see CrowdSession::RestoreFromJournal).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "persist/journal.h"

namespace crowdsky {
class CrowdOracle;
class CrowdSession;
}  // namespace crowdsky

namespace crowdsky::persist {

/// Canonical file location of the journal inside a durability directory.
std::string JournalPath(const std::string& dir);
/// Where older builds wrote driver checkpoints. Nothing writes or reads
/// one any more; the engine only removes a stale file when it creates a
/// fresh journal. Kept because perfbench/perfbench.cc still sizes it.
std::string CheckpointPath(const std::string& dir);

/// Everything a resumed run needs that the session does not hold itself.
struct ResumeOutcome {
  /// The crash left a half-written record that was truncated away.
  bool recovered_torn_tail = false;
  int64_t torn_bytes = 0;
  /// The journal ended in a governor-termination epilogue (kTermination
  /// plus its quiescent kRoundEnd) that was truncated away so the run can
  /// extend its partial result under a new budget.
  bool truncated_termination = false;
  /// The recovered journal's per-round question counts and its open tail
  /// (questions past the last round end), post-truncation. The engine
  /// uses them to refuse a governed resume whose dollar cap cannot even
  /// cover the replay of what was already paid.
  std::vector<int64_t> round_questions;
  int64_t open_tail_questions = 0;
  /// Valid records recovered, all queued as session credits.
  int64_t journal_records = 0;
  /// The reopened journal; attach to the session and keep alive for the
  /// rest of the run.
  std::unique_ptr<JournalWriter> writer;
};

/// Recovers `dir` into `session` (which must be fresh, with its budget and
/// retry policy already configured) against `oracle` (freshly constructed
/// from the same seed/options as the original run). `fingerprint` must
/// match the journal header. `sync` configures the reopened writer.
Result<ResumeOutcome> PrepareResume(const std::string& dir,
                                    uint64_t fingerprint, SyncMode sync,
                                    CrowdOracle* oracle,
                                    CrowdSession* session);

}  // namespace crowdsky::persist
