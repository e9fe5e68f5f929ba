#include "algo/parallel_sl.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "algo/crowdsky_algorithm.h"
#include "algo/evaluator.h"

namespace crowdsky {

AlgoResult RunParallelSL(const Dataset& dataset,
                         const DominanceStructure& structure,
                         CrowdSession* session,
                         const CrowdSkyOptions& options) {
  CROWDSKY_CHECK_MSG(structure.has_reduction(),
                     "ParallelSL schedules by c(t): build its structure "
                     "with Reduction::kBuild");
  const int n = dataset.size();
  CrowdKnowledge knowledge(n, dataset.schema().num_crowd(),
                           options.contradiction_policy);
  CompletionState completion(n);
  AlgoResult result;
  audit::AuditReport audit_report;
  std::optional<audit::CompletionMonitor> monitor;
  if (options.audit) monitor.emplace(n);
  result.seeded_relations =
      internal::SeedKnownCrowdValues(dataset, options, &knowledge);
  int64_t free_lookups = 0;
  internal::ApplyResumeState(options.resume, n, &knowledge, &completion,
                             &result, &free_lookups);
  {
    obs::TraceSpan span = obs::SpanIf(options.obs, "phase.resolve_ties");
    internal::ResolveKnownTies(dataset, &knowledge, session, &completion,
                               /*parallel_rounds=*/true);
  }
  if (monitor) monitor->Observe(completion, &audit_report);
  // C is initialized with SL1 = SKY_AK(R) (line 4).
  for (const int t : structure.known_skyline()) {
    if (completion.complete.Test(static_cast<size_t>(t))) continue;
    completion.MarkSkyline(t);
    result.skyline.push_back(t);
  }
  if (monitor) monitor->Observe(completion, &audit_report);

  // Count how many direct dominators of each tuple are still incomplete;
  // a tuple becomes ready when the count reaches zero.
  std::vector<int> waiting(static_cast<size_t>(n), 0);
  std::vector<std::vector<int>> direct_children(static_cast<size_t>(n));
  std::vector<int> ready;
  for (int t = 0; t < n; ++t) {
    if (completion.complete.Test(static_cast<size_t>(t))) continue;
    int w = 0;
    for (const int s : structure.direct_dominators(t)) {
      if (!completion.complete.Test(static_cast<size_t>(s))) {
        ++w;
        direct_children[static_cast<size_t>(s)].push_back(t);
      }
    }
    waiting[static_cast<size_t>(t)] = w;
    if (w == 0) ready.push_back(t);
  }
  if (options.resume != nullptr && options.resume->checkpoint != nullptr) {
    // The checkpointed pending list is the ready queue at the snapshot, in
    // activation order (which derives from completion order, not tuple
    // ids, so it cannot be re-derived here). Adopt it after checking it is
    // the same *set* the restored completion state implies.
    const std::vector<int32_t>& pending = options.resume->checkpoint->pending;
    std::vector<int> computed = ready;
    std::vector<int> stored(pending.begin(), pending.end());
    std::sort(computed.begin(), computed.end());
    std::sort(stored.begin(), stored.end());
    CROWDSKY_CHECK_MSG(computed == stored,
                       "checkpoint pending list disagrees with the "
                       "restored completion state");
    ready.assign(pending.begin(), pending.end());
  }

  std::vector<std::unique_ptr<TupleEvaluator>> active;
  auto activate = [&](const std::vector<int>& tuples) {
    for (const int t : tuples) {
      active.push_back(std::make_unique<TupleEvaluator>(
          t, structure, &knowledge, session, &completion, options));
    }
  };
  activate(ready);
  ready.clear();

  auto on_complete = [&](const TupleEvaluator& ev) {
    const int t = ev.tuple();
    free_lookups += ev.free_lookups();
    if (!ev.complete()) {
      ++result.incomplete_tuples;
      result.completeness.undetermined_tuples.push_back(t);
    }
    if (ev.is_skyline()) {
      completion.MarkSkyline(t);
      result.skyline.push_back(t);
    } else {
      completion.MarkNonSkyline(t);
    }
    for (const int child : direct_children[static_cast<size_t>(t)]) {
      if (--waiting[static_cast<size_t>(child)] == 0) {
        ready.push_back(child);
      }
    }
  };

  obs::TraceSpan evaluate_span = obs::SpanIf(options.obs, "phase.evaluate");
  while (!active.empty()) {
    bool any_paid = false;
    size_t keep = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      TupleEvaluator* ev = active[i].get();
      if (ev->Step()) any_paid = true;
      if (ev->done()) {
        on_complete(*ev);
      } else {
        active[keep++] = std::move(active[i]);
      }
    }
    active.resize(keep);
    if (any_paid) session->EndRound();
    if (monitor) monitor->Observe(completion, &audit_report);
    // Quiescent only when the active wave fully drained: no evaluator is
    // mid-flight and the round is closed. `ready` is exactly the pending
    // work the checkpoint must carry (its order derives from completion
    // order and is not re-derivable on resume).
    if (active.empty() && options.checkpoint_hook != nullptr) {
      options.checkpoint_hook->MaybeCheckpoint(
          completion, result.skyline,
          result.completeness.undetermined_tuples, free_lookups, ready);
    }
    // Tuples whose last direct dominator completed this round join the
    // next round.
    if (!ready.empty()) {
      activate(ready);
      ready.clear();
    }
    CROWDSKY_CHECK_MSG(any_paid || !active.empty() || ready.empty(),
                       "ParallelSL made no progress");
  }

  evaluate_span.End();
  std::sort(result.skyline.begin(), result.skyline.end());
  internal::FillStats(*session, knowledge, free_lookups, n, &result);
  if (options.audit) {
    internal::AuditFinalState(dataset, structure, knowledge, *session,
                              completion, result, &audit_report);
    CROWDSKY_CHECK_MSG(audit_report.ok(), audit_report.ToString().c_str());
  }
  return result;
}

AlgoResult RunParallelSL(const Dataset& dataset, CrowdSession* session,
                         const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset),
                                     Reduction::kBuild);
  return RunParallelSL(dataset, structure, session, options);
}

}  // namespace crowdsky
