// CrowdSky (Algorithm 1): the serial crowd-enabled skyline algorithm that
// minimizes monetary cost with the dominating-set question generation and
// pruning rules P1/P2/P3 (Section 3).
#pragma once

#include "algo/crowd_knowledge.h"
#include "algo/evaluator.h"
#include "algo/run_result.h"
#include "audit/invariant_auditor.h"
#include "crowd/session.h"
#include "data/dataset.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

/// Runs Algorithm 1 on `dataset`, asking questions through `session`.
/// `structure` must be built from the dataset's known attributes (it is a
/// parameter so benches can share one build across method variants).
/// Every paid question occupies its own crowd round (the Serial latency
/// model of Section 6.1).
AlgoResult RunCrowdSky(const Dataset& dataset,
                       const DominanceStructure& structure,
                       CrowdSession* session,
                       const CrowdSkyOptions& options = {});

/// Convenience overload that builds the dominance structure internally.
AlgoResult RunCrowdSky(const Dataset& dataset, CrowdSession* session,
                       const CrowdSkyOptions& options = {});

namespace internal {

/// Lines 1-3 of Algorithm 1: resolves groups of tuples with identical
/// known-attribute values by asking the crowd, marking strictly
/// AC-dominated group members as complete non-skyline tuples. When
/// `parallel_rounds` is true, independent groups share rounds.
void ResolveKnownTies(const Dataset& dataset, CrowdKnowledge* knowledge,
                      CrowdSession* session, CompletionState* completion,
                      bool parallel_rounds);

/// Fills the result's aggregate counters (including the robustness
/// counters and the completeness report) from the session and knowledge.
/// The driver must have pushed every undetermined tuple id into
/// result->completeness.undetermined_tuples beforehand; FillStats sorts
/// the list and derives the report's aggregate fields from it.
void FillStats(const CrowdSession& session, const CrowdKnowledge& knowledge,
               int64_t free_lookups, int num_tuples, AlgoResult* result);

/// The end-of-run half of CrowdSkyOptions::audit, shared by the Serial,
/// ParallelDSet and ParallelSL drivers: appends to `report` the audits of
/// every per-attribute preference graph, the session accounting, the AMT
/// cost formula, the dominance structure against brute-force dominance,
/// and the result/completion consistency.
void AuditFinalState(const Dataset& dataset,
                     const DominanceStructure& structure,
                     const CrowdKnowledge& knowledge,
                     const CrowdSession& session,
                     const CompletionState& completion,
                     const AlgoResult& result, audit::AuditReport* report);

/// Seeds the preference tree with the relations derivable from crowd
/// values the machine already knows (options.known_crowd_values), so only
/// pairs involving a genuinely missing value are crowdsourced. Returns
/// the number of seeded relations (chain edges; the closure implies the
/// rest). No-op when every crowd value is missing.
int64_t SeedKnownCrowdValues(const Dataset& dataset,
                             const CrowdSkyOptions& options,
                             CrowdKnowledge* knowledge);

}  // namespace internal
}  // namespace crowdsky
