// Multi-query crowd service: many queries, one shared crowd, cross-query
// HIT packing.
//
// RunService admits up to ServiceOptions::max_concurrent queries into each
// epoch (the rest wait in a bounded queue), runs every admitted query to
// completion through the ordinary engine, one after another on the
// caller's thread, and then replays the epochs from the results: in each
// epoch every active query contributes its next crowd round, and all
// questions of the epoch are packed into shared HITs (per pack class —
// identical effective pricing). The service ledger records what the
// sharing saved versus isolated per-query rounds.
//
// Determinism: per-query results are bit-identical to running the same
// query alone — each query keeps its own oracle, random streams and
// session — and the packing ledger is a pure function of the submission
// list and ServiceOptions (see DESIGN.md "Multi-query service & HIT
// packing" for the replay rule).
#pragma once

#include <vector>

#include "common/result.h"
#include "service/options.h"

namespace crowdsky::service {

/// Runs every submitted query to completion (or rejection) and returns
/// the per-query outcomes plus the service packing ledger. Fails on
/// invalid service options or on a query that sets wrap_oracle or
/// durability (see ServiceQuery).
Result<ServiceReport> RunService(const std::vector<ServiceQuery>& queries,
                                 const ServiceOptions& options = {});

}  // namespace crowdsky::service
