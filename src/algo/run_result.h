// Options and result types shared by every crowd-enabled skyline
// algorithm in this library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "core/governor.h"
#include "crowd/session.h"
#include "prefgraph/preference_graph.h"

namespace crowdsky {

/// Which of Algorithm 1's pruning rules are active. Turning rules off is
/// how the benches reproduce the DSet / P1 / P1+P2 / P1+P2+P3 series of
/// Figures 6-7.
struct PruningConfig {
  bool use_p1 = true;  ///< Section 3.2: drop complete non-skyline dominators
  bool use_p2 = true;  ///< Section 3.3: reduce DS(t) to SKY_AC(DS(t))
  bool use_p3 = true;  ///< Section 3.4: probe DS(t) by freq(u,v)
  /// Stop asking questions for t once it is complete (Definition 4; the
  /// break of Algorithm 1 line 24). Always on in the paper's algorithms;
  /// switching it off reproduces Example 3's exhaustive sum |DS(t)| count.
  bool use_completion_break = true;
  /// Answer questions from the preference tree's transitive closure when
  /// possible instead of paying the crowd. The tree T is introduced with
  /// P2 (Section 3.3), so the DSet and P1 measurement modes of Figures 6-7
  /// run without it; every full configuration keeps it on.
  bool use_transitivity = true;

  static PruningConfig DSetOnly() {
    return {false, false, false, true, false};
  }
  static PruningConfig DSetExhaustive() {
    return {false, false, false, false, false};
  }
  static PruningConfig P1() { return {true, false, false, true, false}; }
  static PruningConfig P1P2() { return {true, true, false, true, true}; }
  static PruningConfig All() { return {true, true, true, true, true}; }
};

/// How a pair-ask handles multiple crowd attributes (|AC| > 1).
enum class MultiAttributeStrategy {
  /// Ask all |AC| attribute questions for the pair at once (the paper's
  /// evaluation setting, Section 6.1).
  kAllAtOnce,
  /// Ask one attribute at a time and stop as soon as the pair's fate is
  /// decided — e.g. the tuples are already incomparable within AC, or the
  /// queried dominator is already strictly beaten somewhere so it cannot
  /// dominate. The round-robin refinement the paper mentions but does not
  /// apply; saves questions at the price of extra rounds.
  kRoundRobin,
};

/// Options common to the CrowdSky family of algorithms.
struct CrowdSkyOptions {
  PruningConfig pruning = PruningConfig::All();
  /// What to do when a (noisy) answer contradicts the preference tree.
  ContradictionPolicy contradiction_policy = ContradictionPolicy::kFirstWins;
  /// Multi-crowd-attribute question strategy.
  MultiAttributeStrategy multi_attr = MultiAttributeStrategy::kAllAtOnce;
  /// Partially-missing crowd data (Example 1: "when some values of tuples
  /// are missing, we can apply our proposed solution to only the tuples
  /// with missing values"): one bitset per crowd attribute marking the
  /// tuples whose value on that attribute is already known to the
  /// machine. Preferences between two known tuples are seeded into the
  /// preference tree for free; only pairs involving a missing value reach
  /// the crowd. Null (default) means every crowd value is missing —
  /// the paper's hands-off setting. Not owned; must outlive the run.
  const std::vector<DynamicBitset>* known_crowd_values = nullptr;
  /// Runs the invariant auditor (src/audit) alongside the algorithm:
  /// completion-state monotonicity is watched throughout, and at the end
  /// the preference graphs, session accounting, AMT cost formula,
  /// dominance structure (vs. brute force) and result consistency are
  /// validated. Any violation aborts via CROWDSKY_CHECK with the full
  /// report. Costs roughly O(n^2) extra work — meant for tests and
  /// debugging, not production serving.
  bool audit = false;
  /// Observability sink (src/obs): drivers emit phase TraceSpans through
  /// it; metrics are published from the run's ledgers by the engine after
  /// the driver returns. Null (default) disables everything — the span
  /// sites reduce to one null check, so a run without an observer is
  /// bit-identical to the pre-observability code. Not owned; must outlive
  /// the run.
  obs::RunObserver* obs = nullptr;
};

/// Best-effort execution report: how much of the skyline decision was
/// actually resolved when the run ended. On an unconstrained, fault-free
/// run it is trivially complete; under a question budget or a fault plan
/// whose retry caps ran dry it names exactly what is still undetermined,
/// so a caller gets a usable partial answer instead of an abort.
struct CompletenessReport {
  /// True iff every tuple's skyline membership was determined.
  bool complete = true;
  int64_t determined_tuples = 0;
  /// Tuples whose membership is undetermined, ascending. They are kept in
  /// the skyline unless already proven dominated (Section 2.3's
  /// in-by-default rule).
  std::vector<int> undetermined_tuples;
  /// Distinct pair questions that received an aggregated answer.
  int64_t resolved_questions = 0;
  /// Distinct pair questions given up on (retry cap or budget mid-retry).
  int64_t unresolved_questions = 0;
  /// The question budget gated at least one ask.
  bool budget_exhausted = false;
  /// At least one question exhausted its retry cap.
  bool retries_exhausted = false;

  /// "complete" or a one-line summary of what is undetermined and why.
  std::string ToString() const;
};

/// Outcome of one crowd-enabled skyline execution.
struct AlgoResult {
  /// Skyline tuple ids, ascending. When the question budget ran out this
  /// includes every tuple whose fate is still undecided (tuples are in the
  /// skyline by default until proven dominated, Section 2.3).
  std::vector<int> skyline;
  /// Tuples whose skyline status was still undecided when the question
  /// budget ran out (0 on unlimited runs).
  int64_t incomplete_tuples = 0;
  /// Preference-tree edges seeded from machine-known crowd values
  /// (partially-missing data; 0 in the hands-off setting).
  int64_t seeded_relations = 0;
  /// Distinct pair/unary questions paid for.
  int64_t questions = 0;
  /// Crowd rounds consumed (latency, Section 2.1).
  int64_t rounds = 0;
  /// Asks answered for free from the session cache or by transitivity in
  /// the preference tree.
  int64_t free_lookups = 0;
  /// Individual worker assignments consumed (for voting-cost parity).
  int64_t worker_answers = 0;
  /// Answers rejected as contradicting the preference tree.
  int64_t contradictions = 0;
  /// Questions issued in each round (input to AmtCostModel).
  std::vector<int64_t> questions_per_round;

  // --- Robustness counters (0 on a fault-free run) -----------------------
  /// Failed attempts that were re-asked (each retry is a paid question,
  /// included in `questions` and in the cost model's rounds).
  int64_t retries = 0;
  /// Answers accepted from a partial vote set (quorum degradation).
  int64_t degraded_quorum = 0;
  /// Paid attempts that produced no answer.
  int64_t failed_attempts = 0;
  /// Latency-only rounds lost to retry backoff and expired HITs; add to
  /// `rounds` for wall-clock latency (money is unaffected — empty rounds
  /// post no HITs).
  int64_t backoff_rounds = 0;
  /// What was (and was not) determined when the run ended.
  CompletenessReport completeness;
  /// Why the run stopped paying (governor caps, cancellation, or a
  /// natural finish). The CompletenessReport names *what* is unresolved;
  /// this names *why the money stopped*.
  TerminationReport termination;
};

}  // namespace crowdsky
