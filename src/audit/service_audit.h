// service.* invariant rules: conservation laws of the multi-query crowd
// service (src/service). Like the shard.* rules in shard_audit.h, the
// checks run on a plain snapshot struct so tests can fabricate violations
// the scheduler makes unrepresentable by construction.
//
// Rules:
//   service.query_cost       every query's reported dollar cost re-derives
//                            from its per-round question counts under the
//                            paper's formula with its own effective
//                            pricing — packing saves the *service* money,
//                            never alters what a query's run reports
//   service.routing          every registered question slot produced
//                            exactly one answer routed back to the asking
//                            query (no lost or cross-delivered answers)
//   service.round_alignment  each query's sequence of per-epoch slot
//                            counts is exactly its questions_per_round
//                            vector: round k of the query rode epoch k of
//                            its participation, nothing skipped, nothing
//                            smeared across epochs
//   service.epoch_arithmetic each (epoch, pack class) span adds up: slot
//                            totals, packed HITs = ⌈slots/qph⌉, isolated
//                            HITs = Σ per-query ⌈·⌉, packed ≤ isolated
//   service.ledger           the service totals equal the span sums, the
//                            dollar figures re-derive from the HIT
//                            ledgers, and saved = isolated − packed ≥ 0
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.h"
#include "crowd/cost_model.h"

namespace crowdsky::audit {

/// Flattened outcome of one multi-query service run.
struct ServicePackingSnapshot {
  /// One entry per *admitted* query (rejected queries never reach the
  /// packer; the scheduler asserts they carry zero slots by construction).
  struct Query {
    int query_id = -1;
    /// Effective pricing (workers_per_question folded in).
    AmtCostModel cost_model;
    /// The query's per-round paid question counts, from its AlgoResult.
    std::vector<int64_t> questions_per_round;
    /// Dollar cost the query's own run reported.
    double reported_cost_usd = 0.0;
    /// Question slots the packer registered for this query.
    int64_t slots = 0;
    /// Answers the packer routed back to this query.
    int64_t routed_answers = 0;
  };
  std::vector<Query> queries;

  /// One closed (epoch, pack class) posting span, in close order.
  struct EpochSpan {
    int64_t epoch = 0;
    AmtCostModel pricing;
    /// (query id, slots), ascending query id, counts positive.
    std::vector<std::pair<int, int64_t>> query_slots;
    int64_t slots = 0;
    int64_t packed_hits = 0;
    int64_t isolated_hits = 0;
  };
  std::vector<EpochSpan> spans;

  // Service-level ledger totals.
  int64_t epochs = 0;  ///< epochs that carried at least one question
  int64_t slots = 0;
  int64_t packed_hits = 0;
  int64_t isolated_hits = 0;
  double cost_packed_usd = 0.0;
  double cost_isolated_usd = 0.0;
  double cost_saved_usd = 0.0;
};

/// Evaluates every service.* rule against the snapshot.
void AuditServicePacking(const ServicePackingSnapshot& snapshot,
                         AuditReport* report);

}  // namespace crowdsky::audit
