// Coordinator for shared-nothing sharded skyline execution.
//
// RunShardedSkylineQuery partitions the dataset across k supervised shard
// child processes (see supervisor.h), each running one CrowdSky driver over
// its slice with a private journal directory and an even slice
// of any governor dollar cap, then merges the surviving shards' candidate
// skylines with a bounded number of extra crowd rounds:
//
//   merge input   = union of the surviving shards' candidate sets (each
//                   shard's best-effort skyline, which by the in-by-default
//                   rule contains its true local skyline);
//   merge answers = every shard-paid answer among candidates, seeded into
//                   the merge session so only *cross-shard* pairs are paid
//                   for — the O(1)-round cross-validation;
//   merge output  = the skyline of the candidate union, which by
//                   transitivity of dominance equals the global skyline.
//
// Degradation: a permanently dead shard contributes nothing; its entire
// slice is excluded from the merged skyline and reported as undetermined
// in the aggregate CompletenessReport (a deliberate deviation from the
// in-by-default rule — a slice with *zero* evidence is a gap, not a set of
// tentative skyline members), and the money its journal proves it spent is
// surfaced as cost_lost_usd.
#pragma once

#include "common/result.h"
#include "data/dataset.h"
#include "dist/options.h"

namespace crowdsky::dist {

/// Deterministic per-shard seed derived from the engine seed; shard k
/// (one past the last shard) is the merge run's seed.
uint64_t ShardSeed(uint64_t base_seed, int shard);

/// Runs one sharded skyline query. Fails on invalid options or
/// coordinator-level I/O errors; shard crashes, hangs and permanent deaths
/// are handled (that is the point) and reported in the DistResult.
Result<DistResult> RunShardedSkylineQuery(const Dataset& dataset,
                                          const DistOptions& options);

}  // namespace crowdsky::dist
