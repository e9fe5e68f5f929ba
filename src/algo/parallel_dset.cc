#include "algo/parallel_dset.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "algo/crowdsky_algorithm.h"
#include "algo/evaluator.h"

namespace crowdsky {
namespace {

/// Runs the evaluators of one sub-batch in lockstep rounds: each round,
/// every unfinished evaluator performs its free work and pays for at most
/// one pair-ask; the batch's asks share the round.
int64_t RunBatchLockstep(const std::vector<int>& batch,
                         const DominanceStructure& structure,
                         CrowdKnowledge* knowledge, CrowdSession* session,
                         CompletionState* completion,
                         const CrowdSkyOptions& options, AlgoResult* result) {
  std::vector<std::unique_ptr<TupleEvaluator>> evaluators;
  evaluators.reserve(batch.size());
  for (const int t : batch) {
    evaluators.push_back(std::make_unique<TupleEvaluator>(
        t, structure, knowledge, session, completion, options));
  }
  int64_t free_lookups = 0;
  bool any_active = true;
  while (any_active) {
    any_active = false;
    bool any_paid = false;
    for (auto& ev : evaluators) {
      if (ev->done()) continue;
      // Let the evaluator do free work; stop at one paid ask per round.
      if (ev->Step()) {
        any_paid = true;
      }
      if (!ev->done()) any_active = true;
    }
    if (any_paid) session->EndRound();
  }
  for (auto& ev : evaluators) {
    free_lookups += ev->free_lookups();
    if (!ev->complete()) {
      ++result->incomplete_tuples;
      result->completeness.undetermined_tuples.push_back(ev->tuple());
    }
    if (ev->is_skyline()) {
      completion->MarkSkyline(ev->tuple());
      result->skyline.push_back(ev->tuple());
    } else {
      completion->MarkNonSkyline(ev->tuple());
    }
  }
  return free_lookups;
}

}  // namespace

AlgoResult RunParallelDSet(const Dataset& dataset,
                           const DominanceStructure& structure,
                           CrowdSession* session,
                           const CrowdSkyOptions& options) {
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
  for (const int t : structure.known_skyline()) {
    if (completion.complete.Test(static_cast<size_t>(t))) continue;
    completion.MarkSkyline(t);
    result.skyline.push_back(t);
  }
  if (monitor) monitor->Observe(completion, &audit_report);

  // Partition by |DS(t)| (evaluation_order is already sorted by it), then
  // greedily split each partition into sub-batches with pairwise-disjoint
  // dominating sets.
  const std::vector<int>& order = structure.evaluation_order();
  obs::TraceSpan evaluate_span = obs::SpanIf(options.obs, "phase.evaluate");
  size_t i = 0;
  while (i < order.size()) {
    const int ds_size = structure.dominating_set_size(order[i]);
    size_t j = i;
    std::vector<int> partition;
    while (j < order.size() &&
           structure.dominating_set_size(order[j]) == ds_size) {
      if (!completion.complete.Test(static_cast<size_t>(order[j]))) {
        partition.push_back(order[j]);
      }
      ++j;
    }
    i = j;
    if (partition.empty()) continue;
    // Disjointness (C2) is decided on the *effective* dominating sets —
    // after the P1/P2 reductions the evaluators will apply anyway — since
    // pruned-away dominators cannot create probe interplay. This is what
    // lets batches grow as completions accumulate.
    std::vector<DynamicBitset> effective;
    effective.reserve(partition.size());
    std::vector<int> members;
    for (const int t : partition) {
      DynamicBitset ds;
      if (options.pruning.use_p1) {
        // One-pass difference instead of copy + AndNotWith.
        ds.AssignAndNot(structure.dominator_bits(t), completion.nonskyline);
      } else {
        ds = structure.dominator_bits(t);
      }
      if (options.pruning.use_p2) {
        knowledge.ReduceToAcSkyline(&ds, &members);
      }
      effective.push_back(std::move(ds));
    }
    // First-fit batching under the disjointness constraint, tracked with a
    // union bitset of the batch's dominating sets.
    std::vector<char> assigned(partition.size(), 0);
    size_t remaining = partition.size();
    while (remaining > 0) {
      std::vector<int> batch;
      DynamicBitset batch_union(static_cast<size_t>(n));
      for (size_t k = 0; k < partition.size(); ++k) {
        if (assigned[k]) continue;
        if (batch.empty() || !effective[k].Intersects(batch_union)) {
          batch.push_back(partition[k]);
          batch_union.OrWith(effective[k]);
          assigned[k] = 1;
          --remaining;
        }
      }
      free_lookups += RunBatchLockstep(batch, structure, &knowledge, session,
                                       &completion, options, &result);
      if (monitor) monitor->Observe(completion, &audit_report);
    }
    // Partition boundary: the only quiescent point safe to checkpoint.
    // Sub-batch boundaries are not — the effective-DS batching above is
    // computed from the knowledge at partition *entry*, and a resume that
    // recomputed it mid-partition with later knowledge would batch (and
    // round-account) differently than the uninterrupted run.
    if (options.checkpoint_hook != nullptr) {
      options.checkpoint_hook->MaybeCheckpoint(
          completion, result.skyline,
          result.completeness.undetermined_tuples, free_lookups, {});
    }
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

AlgoResult RunParallelDSet(const Dataset& dataset, CrowdSession* session,
                           const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset));
  return RunParallelDSet(dataset, structure, session, options);
}

}  // namespace crowdsky
