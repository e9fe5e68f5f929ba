// InvariantAuditor: machine-checkable statements of the invariants the
// CrowdSky algorithms rely on, validated on demand against independent
// brute-force recomputation.
//
// The auditor never trusts the data structure under test: preference
// graphs are checked through their public relation queries against the
// axioms of a strict partial order with equivalence classes; the
// DominanceStructure is re-derived pair-by-pair from the raw known-
// attribute matrix; session accounting is recomputed from the paid-
// question log; the AMT cost is recomputed from the per-round counts with
// the paper's formula  0.02 * omega * sum_i ceil(|Q_i| / 5).
//
// Checks that need corrupt inputs for testing operate on plain snapshot
// structs (RelationSnapshot, SessionSnapshot) so tests can fabricate
// violations that the production classes make unrepresentable by
// construction.
//
// Violations are *reported*, not fatal: callers collect an AuditReport and
// decide. The algorithm drivers (CrowdSkyOptions::audit) escalate a
// non-empty report to CROWDSKY_CHECK failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "crowd/cost_model.h"
#include "crowd/question.h"
#include "crowd/session.h"
#include "persist/journal.h"
#include "prefgraph/preference_graph.h"
#include "skyline/dominance.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

struct AlgoResult;       // algo/run_result.h
struct CompletionState;  // algo/evaluator.h

namespace audit {

/// One broken invariant.
struct AuditViolation {
  std::string invariant;  ///< dotted name, e.g. "prefgraph.antisymmetry"
  std::string detail;     ///< human-readable witness
};

/// Accumulated outcome of one or more audit passes.
struct AuditReport {
  int64_t checks = 0;  ///< invariant checks evaluated (pass or fail)
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  /// Evaluates one check: increments `checks`, records a violation when
  /// `condition` is false. Returns `condition`.
  bool Check(bool condition, const char* invariant, std::string detail);
  /// "audit OK (N checks)" or a numbered list of violations.
  std::string ToString() const;
};

/// The strict/equivalence relation of a PreferenceGraph, flattened so
/// tests can corrupt it. strict[u].Test(v) <=> "u strictly preferred over
/// v"; rep[u] is u's equivalence-class representative.
struct RelationSnapshot {
  int n = 0;
  std::vector<DynamicBitset> strict;
  std::vector<int> rep;
};

/// Extracts the full relation of `graph` via its public queries.
RelationSnapshot SnapshotRelation(const PreferenceGraph& graph);

/// The accounting state of a CrowdSession, flattened so tests can corrupt
/// it (double-charged rounds, duplicated paid pairs, ...).
struct SessionSnapshot {
  int64_t pair_questions = 0;
  int64_t unary_questions = 0;
  int64_t cache_hits = 0;
  int64_t rounds = 0;
  int64_t open_round_questions = 0;
  int64_t budget = -1;  ///< negative = unlimited
  int64_t retries = 0;
  int64_t unresolved = 0;
  std::vector<int64_t> questions_per_round;
  std::vector<PairQuestion> paid_pairs;  ///< canonical, in ask order
  /// One entry per recorded retry, canonical (from retry_events()).
  std::vector<PairQuestion> retry_pairs;
  /// The questions given up on, canonical.
  std::vector<PairQuestion> unresolved_pairs;
};

SessionSnapshot SnapshotSession(const CrowdSession& session);

struct AuditOptions {
  /// Brute-force passes are O(n^2) (dominance) / O(n^2) bitset words
  /// (closure); above this size they are skipped rather than sampled, so
  /// a clean report on a large input only covers the cheap invariants.
  int max_brute_force_nodes = 4096;
};

/// \brief On-demand validator for CrowdSky's core invariants.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditOptions options = {})
      : options_(options) {}

  /// Partial-order axioms on a (possibly fabricated) relation snapshot:
  /// irreflexivity, antisymmetry, transitive closedness, equivalence-class
  /// consistency (valid idempotent representatives, identical strict rows
  /// inside a class, no strict edge within a class, class-closed columns).
  /// `label` prefixes violation details (e.g. the crowd attribute).
  void AuditRelationSnapshot(const RelationSnapshot& snapshot,
                             const std::string& label,
                             AuditReport* report) const;

  /// Snapshot + axioms for a live preference graph.
  void AuditPreferenceGraph(const PreferenceGraph& graph,
                            const std::string& label,
                            AuditReport* report) const;

  /// Recomputes AK dominance pair-by-pair from `known` and checks every
  /// derived view of `structure` against it: dominator/dominatee bitsets
  /// (mutual transposes), |DS(t)| sizes, the ascending-|DS| evaluation
  /// order, SKY_AK, and — when the structure was built with them
  /// (has_reduction()) — the skyline layers and the direct-dominator
  /// transitive reduction. Skipped (with no violation) above
  /// max_brute_force_nodes.
  void AuditDominanceStructure(const DominanceStructure& structure,
                               const PreferenceMatrix& known,
                               AuditReport* report) const;

  /// Session accounting on a (possibly fabricated) snapshot: paid-pair log
  /// matches the question counter, canonical log entries, per-round counts
  /// positive and summing to the questions asked, round counter matching,
  /// budget respected, and the resilience ledger — a pair may appear in
  /// the paid log exactly 1 + (its recorded retries) times (no silent
  /// double-pay), every retry refers to a paid question, and every
  /// unresolved question was paid for at least once.
  void AuditSessionSnapshot(const SessionSnapshot& snapshot,
                            AuditReport* report) const;

  /// Snapshot + accounting checks for a live session, plus "every paid
  /// pair is cached or unresolved (never both)".
  void AuditSession(const CrowdSession& session, AuditReport* report) const;

  /// Durability ledger on a (possibly fabricated) journal against a
  /// session snapshot: the pair records, flattened attempt-by-attempt in
  /// journal order, are exactly the session's paid log (every paid
  /// question has exactly one durable record and nothing was paid
  /// undurably); record shapes are legal (non-final attempts failed, the
  /// final attempt failed iff the record gave up); retry / unresolved /
  /// unary arithmetic recomputed from the records matches the counters;
  /// round-end records partition the stream into exactly the session's
  /// per-round counts with the open-round tail (which makes the
  /// journal-derived AMT cost equal the session-derived cost under any
  /// cost model); and the fault-trace cursor never moves backwards.
  void AuditJournalSnapshot(
      const std::vector<persist::JournalRecord>& records,
      const SessionSnapshot& snapshot, AuditReport* report) const;

  /// Snapshot + journal checks for a live session, plus the resume
  /// ledger: the session's durable position (folded + replayed + freshly
  /// appended records) equals the journal's record count, and a resumed
  /// session consumed every queued credit — a resumed run that asked
  /// fewer questions than the original would leave credits behind.
  void AuditJournal(const std::vector<persist::JournalRecord>& records,
                    const CrowdSession& session, AuditReport* report) const;

  /// Recomputes HITs and cost from `questions_per_round` with the paper's
  /// formula and checks `model` agrees with itself and the formula.
  void AuditCostModel(const AmtCostModel& model,
                      const std::vector<int64_t>& questions_per_round,
                      AuditReport* report) const;

  /// End-of-run consistency between an AlgoResult, the session it ran
  /// through, and the final completion state: all tuples complete, the
  /// skyline is exactly the sorted complement of the non-skyline set,
  /// every counter (including the robustness counters) mirrors the
  /// session stats, and the completeness report's tuple/question ledgers
  /// add up.
  void AuditResult(const AlgoResult& result, const CrowdSession& session,
                   int num_tuples, const CompletionState& completion,
                   AuditReport* report) const;

  /// Termination-report consistency ("governor.*"): a governed run never
  /// spends past its dollar cap (`cost_spent <= cap` within float
  /// tolerance), the report's cost ledger recomputes from the session's
  /// per-round history under the report's own cost model, the round count
  /// mirrors the session, the stop reason implies the matching cap was
  /// configured (and, for the round cap, actually reached), denials only
  /// happen after a stop, and the unresolved set is exactly the
  /// session's. Ungoverned results must report kCompleted with zero caps.
  void AuditTermination(const AlgoResult& result,
                        const CrowdSession& session,
                        AuditReport* report) const;

  /// Cross-run extension ("resume.*"): `resumed` continued `partial`'s
  /// run directory under looser limits. Under the in-by-default rule the
  /// partial skyline = proven skyline + undetermined tuples, so more
  /// crowd work can only shrink it: the resumed skyline is a subset of
  /// the partial one, every dropped member was undetermined in the
  /// partial run, the undetermined set itself shrinks, the paid-work
  /// counters grow monotonically, and the partial per-round history is a
  /// prefix of the resumed one (the final capped round may be a strict
  /// prefix of the round the resumed run closes).
  void AuditResumeExtension(const AlgoResult& partial,
                            const AlgoResult& resumed,
                            AuditReport* report) const;

 private:
  AuditOptions options_;
};

/// Watches a CompletionState across observations and reports any
/// non-monotone transition: completion bits may only be gained, a
/// non-skyline mark requires the complete mark, and a tuple that was
/// complete-as-skyline may never flip to non-skyline.
class CompletionMonitor {
 public:
  explicit CompletionMonitor(int n);

  void Observe(const CompletionState& state, AuditReport* report);

  int64_t observations() const { return observations_; }

 private:
  DynamicBitset prev_complete_;
  DynamicBitset prev_nonskyline_;
  int64_t observations_ = 0;
};

}  // namespace audit
}  // namespace crowdsky
