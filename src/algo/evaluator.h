// TupleEvaluator: Algorithm 1's per-tuple inner loop (lines 9-26) as a
// resumable state machine, shared by the Serial, ParallelDSet and
// ParallelSL drivers — the three only differ in *which* evaluators may pay
// for a question in the same crowd round (Section 4).
//
// Lifecycle per tuple t:
//   1. start from DS(t);
//   2. refresh: P1 drops complete non-skyline dominators, P2 reduces DS(t)
//      to SKY_AC(DS(t)) using the preference tree — in bulk with one crowd
//      attribute and no merges (CrowdKnowledge::ReduceToAcSkyline: climb
//      to each maximal member, clear its descendant row), member by
//      member otherwise;
//   3. P3 probes DS(t) pair-by-pair in descending freq(u, v), removing the
//      AC-dominated endpoint of each resolved pair;
//   4. Q(t): ask (s, t) for the surviving dominators until one weakly
//      precedes t in AC (t is a complete non-skyline tuple) or none is
//      left (t is a complete skyline tuple).
// Every relation already implied by the preference tree (transitivity) or
// by the session cache is consumed for free. With |AC| > 1 the evaluator
// either asks all attribute questions of a pair at once or round-robins
// them with early exits (MultiAttributeStrategy). When the session's
// question budget runs out the evaluator finalizes the tuple in its
// current (possibly incomplete) state: in the skyline unless already
// proven dominated.
//
// Once the run's funding has closed (CrowdSession::FundingClosed) and the
// run asks about a single crowd attribute with P2, P3 and transitivity on,
// a tuple with |DS(t)| >= 2 after the refresh is settled without building
// its probe pairs: P2 leaves no two surviving dominators with a known
// relation, so whichever pair the frequency order puts first is refused.
// The evaluator asks one pair, takes that refusal and finalizes, with the
// same denial and free-lookup accounting as the full walk.
//
// Under a fault plan a question can come back *unresolved* (its retry cap
// ran dry). The evaluator degrades instead of aborting: an unresolved
// probe pair only costs pruning power and is skipped; an unresolved query
// pair (s, t) means s's dominance over t can never be decided, so s is
// dropped from consideration and the tuple is finalized as undetermined —
// kept in the skyline unless already proven dominated, and reported
// incomplete.
#pragma once

#include <vector>

#include "algo/crowd_knowledge.h"
#include "algo/run_result.h"
#include "common/bitset.h"
#include "crowd/session.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

/// Completion knowledge shared by all evaluators of one run
/// (Definition 4's complete-tuple sets).
struct CompletionState {
  explicit CompletionState(int n)
      : complete(static_cast<size_t>(n)),
        nonskyline(static_cast<size_t>(n)) {}

  DynamicBitset complete;    ///< complete tuples (skyline fate decided)
  DynamicBitset nonskyline;  ///< complete non-skyline tuples

  void MarkSkyline(int t) { complete.Set(static_cast<size_t>(t)); }
  void MarkNonSkyline(int t) {
    complete.Set(static_cast<size_t>(t));
    nonskyline.Set(static_cast<size_t>(t));
  }
};

/// \brief Resumable evaluation of one tuple's skyline membership.
class TupleEvaluator {
 public:
  TupleEvaluator(int tuple, const DominanceStructure& structure,
                 CrowdKnowledge* knowledge, CrowdSession* session,
                 const CompletionState* completion,
                 const CrowdSkyOptions& options);

  /// Performs all currently-free work, then either pays for exactly one
  /// pair-ask (returns true) or completes the tuple (returns false and
  /// done() becomes true). A return of false with done() == false cannot
  /// happen.
  bool Step();

  bool done() const { return phase_ == Phase::kDone; }
  /// Valid once done(): is the tuple in the skyline? Budget-aborted
  /// tuples count as skyline unless already proven dominated.
  bool is_skyline() const {
    CROWDSKY_DCHECK(done());
    return is_skyline_;
  }
  /// Valid once done(): false iff the question budget or a query pair's
  /// retry cap ran out before the tuple became complete in the
  /// Definition-4 sense.
  bool complete() const {
    CROWDSKY_DCHECK(done());
    return !budget_aborted_ && !undetermined_;
  }
  int tuple() const { return t_; }
  /// Relations resolved without paying (cache hits + transitivity).
  int64_t free_lookups() const { return free_lookups_; }
  /// Pair asks that came back unresolved (retry cap exhausted).
  int64_t unresolved_pair_asks() const { return unresolved_pair_asks_; }

 private:
  enum class Phase { kInit, kProbe, kQuery, kDone };
  struct ProbePair {
    int u;
    int v;
    size_t freq;
  };
  enum class AskMode { kProbe, kQuery };

  /// P1 + P2 refresh of the current dominating-set members.
  void Refresh();
  /// True when, right after the initial refresh, the probe walk could only
  /// end in a refused ask at its first pair (see the file comment).
  bool SettlesUnfunded() const;
  void BuildProbePairs();
  /// Asks crowd-attribute questions for (u, v) per the multi-attribute
  /// strategy; records answers; sets budget_aborted_ when the session's
  /// budget runs out mid-pair and last_ask_unresolved_ when any attribute
  /// question of the pair came back unresolved. Returns true iff any
  /// question was paid for.
  bool AskPair(int u, int v, size_t freq, AskMode mode);
  void Finalize(bool is_skyline);

  int t_;
  const DominanceStructure& structure_;
  CrowdKnowledge* knowledge_;
  CrowdSession* session_;
  const CompletionState* completion_;
  PruningConfig pruning_;
  MultiAttributeStrategy multi_attr_;

  Phase phase_ = Phase::kInit;
  DynamicBitset ds_;
  /// Member list of ds_: BuildProbePairs()'s snapshot, and the scratch of
  /// the P2 reduction's per-member path; one buffer reused across calls.
  std::vector<int> members_;
  std::vector<ProbePair> probe_pairs_;
  size_t probe_idx_ = 0;
  bool is_skyline_ = false;
  /// Set when t is found dominated while P1's early break is disabled
  /// (Example 3 counts every question in Q(t) even after t's fate is
  /// decided).
  bool dominated_ = false;
  bool budget_aborted_ = false;
  /// Set when a query pair's retry cap ran dry: t's fate can no longer be
  /// fully determined, only best-effort.
  bool undetermined_ = false;
  /// Set by AskPair when the last pair had an unresolved attribute ask.
  bool last_ask_unresolved_ = false;
  int64_t free_lookups_ = 0;
  int64_t unresolved_pair_asks_ = 0;
};

}  // namespace crowdsky
