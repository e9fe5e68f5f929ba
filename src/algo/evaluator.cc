#include "algo/evaluator.h"

#include <algorithm>

namespace crowdsky {

TupleEvaluator::TupleEvaluator(int tuple, const DominanceStructure& structure,
                               CrowdKnowledge* knowledge,
                               CrowdSession* session,
                               const CompletionState* completion,
                               const CrowdSkyOptions& options)
    : t_(tuple),
      structure_(structure),
      knowledge_(knowledge),
      session_(session),
      completion_(completion),
      pruning_(options.pruning),
      multi_attr_(options.multi_attr),
      ds_(structure.dominator_bits(tuple)) {
  CROWDSKY_CHECK(knowledge != nullptr && session != nullptr &&
                 completion != nullptr);
}

void TupleEvaluator::Refresh() {
  if (pruning_.use_p1) {
    // P1 (Corollary 1): a complete non-skyline dominator u never decides
    // t's fate — the tuple that eliminated u is also in DS(t) (Lemma 2).
    ds_.AndNotWith(completion_->nonskyline);
  }
  if (pruning_.use_p2) {
    // P2 (Corollary 2): only SKY_AC(DS(t)) needs to be compared with t.
    knowledge_->ReduceToAcSkyline(&ds_, &members_);
  }
}

bool TupleEvaluator::SettlesUnfunded() const {
  // Each condition keeps the shortcut exact:
  //  * funding closed: the next paid ask is refused, and stays refused;
  //  * one crowd attribute with P2 and transitivity: the refresh leaves no
  //    two members with a known relation (|AC| > 1 can leave a
  //    known-incomparable pair, which the walk consumes for free);
  //  * no unresolved question: the walk would skip such a pair for free;
  //  * no seeded answer: every cached answer is already in the graph, so
  //    no probe pair is a free cache hit;
  //  * P3 and |DS(t)| >= 2: the walk starts with a probe pair, not with a
  //    (s, t) query whose relation may already be known.
  return session_->FundingClosed() && knowledge_->num_attrs() == 1 &&
         pruning_.use_p2 && pruning_.use_p3 && pruning_.use_transitivity &&
         session_->stats().unresolved_questions == 0 &&
         session_->seeded_answers() == 0 && ds_.Count() >= 2;
}

void TupleEvaluator::BuildProbePairs() {
  ds_.ToVector(&members_);
  probe_pairs_.clear();
  probe_idx_ = 0;
  if (members_.size() < 2) return;
  probe_pairs_.reserve(members_.size() * (members_.size() - 1) / 2);
  for (size_t i = 0; i < members_.size(); ++i) {
    for (size_t j = i + 1; j < members_.size(); ++j) {
      probe_pairs_.push_back({members_[i], members_[j],
                              structure_.Frequency(members_[i], members_[j])});
    }
  }
  // Highest pruning power first (Section 3.4); ties by id for determinism.
  std::stable_sort(probe_pairs_.begin(), probe_pairs_.end(),
                   [](const ProbePair& a, const ProbePair& b) {
                     if (a.freq != b.freq) return a.freq > b.freq;
                     if (a.u != b.u) return a.u < b.u;
                     return a.v < b.v;
                   });
}

bool TupleEvaluator::AskPair(int u, int v, size_t freq, AskMode mode) {
  bool paid = false;
  bool denied = false;
  last_ask_unresolved_ = false;
  const AskContext ctx{freq};
  for (int attr = 0; attr < knowledge_->num_attrs(); ++attr) {
    const PreferenceGraph& g = knowledge_->graph(attr);
    if (pruning_.use_transitivity && g.Comparable(u, v)) {
      continue;  // already implied by the preference tree
    }
    if (!session_->IsCached(attr, u, v) &&
        !session_->IsUnresolved(attr, u, v) && !session_->CanAsk()) {
      budget_aborted_ = true;
      denied = true;
      break;
    }
    const CrowdSession::AskResult res = session_->TryAsk(attr, u, v, ctx);
    if (res.paid) paid = true;
    if (res.status == AskStatus::kUnresolved) {
      // Retry cap ran dry for this attribute question; it will never get
      // an answer. Other attributes may still decide the pair.
      last_ask_unresolved_ = true;
      continue;
    }
    knowledge_->Record(attr, u, v, res.answer).CheckOK();
    if (multi_attr_ == MultiAttributeStrategy::kRoundRobin) {
      // Early exits: stop as soon as the pair's fate is decided.
      if (knowledge_->Relation(u, v) != AcRelation::kUnknown) break;
      if (mode == AskMode::kQuery && !knowledge_->CanWeaklyPrefer(u, v)) {
        break;  // u can no longer dominate v; remaining attrs are moot
      }
    }
  }
  if (last_ask_unresolved_) ++unresolved_pair_asks_;
  // A denied ask looked nothing up, so it is not a free lookup.
  if (!paid && !denied) ++free_lookups_;
  return paid;
}

void TupleEvaluator::Finalize(bool is_skyline) {
  phase_ = Phase::kDone;
  is_skyline_ = is_skyline;
}

bool TupleEvaluator::Step() {
  CROWDSKY_CHECK_MSG(!done(), "Step() called on a completed evaluator");
  if (phase_ == Phase::kInit) {
    Refresh();
    if (SettlesUnfunded()) {
      // Every pair of members is unknown, so any of them stands in for the
      // walk's first probe pair: the ask is refused before the pair or its
      // frequency is used, counting the same denial and free lookup.
      const auto u = ds_.FindFirst();
      const auto v = ds_.FindNext(u + 1);
      AskPair(static_cast<int>(u), static_cast<int>(v),
              structure_.Frequency(static_cast<int>(u), static_cast<int>(v)),
              AskMode::kProbe);
      CROWDSKY_DCHECK(budget_aborted_);
      Finalize(/*is_skyline=*/true);  // nothing has proven t dominated
      return false;
    }
    if (pruning_.use_p3) BuildProbePairs();
    phase_ = Phase::kProbe;
  }
  if (phase_ == Phase::kProbe) {
    while (probe_idx_ < probe_pairs_.size()) {
      const ProbePair pair = probe_pairs_[probe_idx_];
      if (!ds_.Test(static_cast<size_t>(pair.u)) ||
          !ds_.Test(static_cast<size_t>(pair.v))) {
        ++probe_idx_;  // an endpoint was already removed from DS(t)
        continue;
      }
      if (pruning_.use_p1 &&
          (completion_->nonskyline.Test(static_cast<size_t>(pair.u)) ||
           completion_->nonskyline.Test(static_cast<size_t>(pair.v)))) {
        Refresh();  // a dominator completed since the last refresh
        ++probe_idx_;
        continue;
      }
      AcRelation r = knowledge_->Relation(pair.u, pair.v);
      bool paid = false;
      if (r == AcRelation::kUnknown) {
        paid = AskPair(pair.u, pair.v, pair.freq, AskMode::kProbe);
        if (budget_aborted_) {
          Finalize(/*is_skyline=*/!dominated_);
          return paid;
        }
        r = knowledge_->Relation(pair.u, pair.v);
      } else {
        ++free_lookups_;
      }
      switch (r) {
        case AcRelation::kPrefers:
          ds_.Reset(static_cast<size_t>(pair.v));
          break;
        case AcRelation::kPreferredBy:
          ds_.Reset(static_cast<size_t>(pair.u));
          break;
        case AcRelation::kEqual:
          // Equal dominators are interchangeable; keep the smaller id.
          ds_.Reset(static_cast<size_t>(std::max(pair.u, pair.v)));
          break;
        case AcRelation::kIncomparable:
          break;  // |AC| > 1: neither endpoint can prune the other
        case AcRelation::kUnknown:
          if (last_ask_unresolved_) {
            // The pair can never be fully resolved (retry cap exhausted).
            // Probe pairs only trim DS(t), so skipping one costs pruning
            // power but never correctness.
            break;
          }
          // Round-robin paid for one attribute but the pair is still
          // undecided; resume the same pair on the next step.
          CROWDSKY_DCHECK(paid);
          return true;
      }
      ++probe_idx_;
      if (paid) return true;
    }
    phase_ = Phase::kQuery;
  }
  // Query phase: generate Q(t) from the surviving dominators.
  while (true) {
    if (!dominated_) Refresh();
    const size_t first = ds_.FindFirst();
    if (first == ds_.size()) {
      // No dominator can decide t's fate anymore: complete tuple.
      Finalize(/*is_skyline=*/!dominated_);
      return false;
    }
    const int s = static_cast<int>(first);
    AcRelation r = knowledge_->Relation(s, t_);
    bool paid = false;
    if (r == AcRelation::kUnknown || !pruning_.use_transitivity) {
      paid = AskPair(s, t_, structure_.Frequency(s, t_), AskMode::kQuery);
      if (budget_aborted_) {
        Finalize(/*is_skyline=*/!dominated_);
        return paid;
      }
      r = knowledge_->Relation(s, t_);
    } else {
      ++free_lookups_;
    }
    if (r == AcRelation::kPrefers || r == AcRelation::kEqual) {
      // s <=_AC t and s dominates t in AK, so s dominates t in A: t is a
      // complete non-skyline tuple (Definition 4) and the remaining
      // questions of Q(t) are unnecessary — Algorithm 1's break at line
      // 24. With the break disabled (Example 3's exhaustive accounting)
      // the rest of Q(t) is still asked.
      if (pruning_.use_completion_break) {
        Finalize(/*is_skyline=*/false);
        return paid;
      }
      dominated_ = true;
      ds_.Reset(static_cast<size_t>(s));
    } else if (r == AcRelation::kUnknown && last_ask_unresolved_) {
      // (s, t) exhausted its retry cap: whether s dominates t is
      // permanently unknowable. Drop s and keep going best-effort; the
      // tuple is reported undetermined (in the skyline unless some other
      // dominator proves otherwise).
      ds_.Reset(static_cast<size_t>(s));
      undetermined_ = true;
    } else if (r == AcRelation::kUnknown &&
               knowledge_->CanWeaklyPrefer(s, t_)) {
      // Round-robin: the pair is still undecided; resume next step.
      CROWDSKY_DCHECK(paid);
      return true;
    } else {
      // t <_AC s, known-incomparable within AC, or s provably unable to
      // weakly precede t: s cannot dominate t.
      ds_.Reset(static_cast<size_t>(s));
    }
    if (paid) return true;
  }
}

}  // namespace crowdsky
