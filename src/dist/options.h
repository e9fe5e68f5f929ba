// Configuration and result types for shared-nothing sharded execution
// (src/dist): k shard child processes, each running one CrowdSky driver
// over its tuple slice with a private journal directory and
// governor budget slice, supervised for crashes/hangs/stragglers, and a
// bounded-round merge that cross-validates the shards' candidate skylines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/metrics.h"
#include "algo/run_result.h"
#include "core/engine.h"

namespace crowdsky::dist {

/// How tuples are assigned to shards. All schemes are pure functions of
/// (tuple id, shard count), so a restarted shard recomputes exactly the
/// slice its journal was written against.
enum class PartitionScheme {
  kRoundRobin,  ///< tuple i -> shard i % k (default: balanced, order-mixing)
  kBlock,       ///< contiguous ranges of near-equal size
  kHash,        ///< SplitMix64(i) % k (decorrelates from input order)
};

/// Stable lowercase name ("round_robin", "block", "hash").
const char* PartitionSchemeName(PartitionScheme scheme);

/// Process-level fault kinds, extending the crowd-level FaultInjector's
/// seeded determinism to whole shards. Each injection targets one shard
/// *incarnation* (generation 0 = first launch, 1 = first restart, ...), so
/// a test can kill generation 0 and let generation 1 run clean.
enum class ShardFaultKind {
  kKillAtRound,      ///< _Exit(137) once `value` crowd rounds have closed
  kKillAtRecord,     ///< _Exit(137) after the value-th journal record
  kTornTailAtRecord, ///< kKillAtRecord plus a torn garbage tail
  kHangAtStart,      ///< hang before the HELLO heartbeat (startup timeout)
  kHangAtRound,      ///< stop heartbeating after `value` rounds (mid-run hang)
  kSlowStart,        ///< sleep `value` ms before doing anything (straggler)
};

/// One injected process-level fault.
struct ShardFaultInjection {
  int shard = 0;
  ShardFaultKind kind = ShardFaultKind::kKillAtRound;
  /// Round count, record count, or milliseconds depending on `kind`.
  int64_t value = 0;
  /// Torn-tail byte count for kTornTailAtRecord.
  int64_t tear_bytes = 8;
  /// Which incarnation of the shard the fault applies to.
  int generation = 0;
};

/// Supervisor policy. The defaults are generous enough that a healthy
/// shard never trips them; chaos tests shrink the timeout to seconds.
struct SupervisorOptions {
  /// Heartbeat silence (no HELLO/PROG/DONE line) after which a shard is
  /// presumed hung, killed and restarted.
  double heartbeat_timeout_seconds = 30.0;
  /// Restarts per shard before it is declared permanently dead.
  int max_restarts = 3;
  /// Exponential backoff between restarts: base * 2^(restart-1), capped.
  double restart_backoff_base_seconds = 0.05;
  double restart_backoff_max_seconds = 1.0;
  /// A still-running shard is flagged a straggler once at least half the
  /// shards finished and it has been running longer than this factor times
  /// the median finish time (0 disables flagging).
  double straggler_factor = 4.0;
  /// Supervision loop poll interval.
  double poll_interval_seconds = 0.02;
};

/// Everything configurable about one sharded run.
struct DistOptions {
  /// Shard count k (>= 1). k == 1 degenerates to one supervised child and
  /// no merge phase.
  int shards = 2;
  PartitionScheme partition = PartitionScheme::kRoundRobin;
  /// Per-shard engine template. `durability.dir`, `imported_answers`,
  /// `round_callback` and `export_answers` are owned by the coordinator
  /// and must be unset, and so must `wrap_oracle`, which a shard child
  /// never receives; a governor dollar cap is split evenly across the
  /// shards with the remainder funding the merge. CrowdSky-family
  /// algorithms only.
  EngineOptions engine;
  /// Scratch root: dataset.csv, shard_<i>/ (spec, journal, result),
  /// merge/. Required.
  std::string run_dir;
  /// Shard-capable executable (its main() must route
  /// `--crowdsky_shard <spec>` to RunShardChildMode). Empty =
  /// /proc/self/exe, i.e. the embedding binary itself.
  std::string shard_exe;
  SupervisorOptions supervisor;
  /// Seeded process-level fault plan.
  std::vector<ShardFaultInjection> faults;
  /// Resume a previously interrupted sharded run from run_dir: shards and
  /// the merge resume from their journals (zero re-paid questions).
  bool resume = false;
};

/// Per-shard outcome inside a DistResult.
struct ShardReport {
  enum class State : uint8_t {
    kCompleted = 0,  ///< produced a result (possibly after restarts)
    kDead = 1,       ///< exhausted max_restarts; its slice is unknown
  };
  int shard = 0;
  State state = State::kCompleted;
  int restarts = 0;
  bool straggler = false;
  /// Global tuple ids of this shard's slice.
  std::vector<int> tuple_ids;
  /// Global ids of the local skyline candidates (skyline + undetermined)
  /// this shard contributed to the merge. Empty for dead shards.
  std::vector<int> candidates;
  /// Global ids still undetermined at shard level.
  std::vector<int> undetermined;
  int64_t questions = 0;
  int64_t rounds = 0;
  std::vector<int64_t> questions_per_round;
  double cost_usd = 0.0;
  /// Money a permanently dead shard spent before dying (recovered from its
  /// journal; the answers bought nothing the merge could use).
  double cost_lost_usd = 0.0;
  int64_t replayed_pair_attempts = 0;
  int64_t journal_records = 0;
  bool resumed = false;
  std::string termination_reason;  ///< TerminationReasonName or "dead"
};

/// Merge-phase accounting.
struct MergeStats {
  /// Ran at all (false when k == 1 or every shard died).
  bool ran = false;
  /// Tuples entering the merge (union of surviving candidates).
  int64_t candidates = 0;
  /// Shard answers seeded into the merge session (paid once, by a shard).
  int64_t imported_answers = 0;
  /// New cross-shard questions the merge paid for.
  int64_t questions = 0;
  /// Extra crowd rounds the merge consumed (the bounded-round overhead).
  int64_t rounds = 0;
  double cost_usd = 0.0;
  bool resumed = false;
};

/// Output of one sharded run.
struct DistResult {
  /// Global skyline tuple ids, ascending. With a dead shard this covers
  /// surviving shards only (see `completeness`).
  std::vector<int> skyline;
  std::vector<std::string> skyline_labels;
  /// Aggregate completeness: undetermined tuples from surviving shards
  /// that the merge could not settle, plus every tuple of a dead shard.
  CompletenessReport completeness;
  AccuracyMetrics accuracy;
  double total_cost_usd = 0.0;
  double cost_lost_usd = 0.0;
  int64_t total_questions = 0;
  /// Crowd-round latency: shards run concurrently, so max over shards,
  /// plus the merge's extra rounds.
  int64_t rounds = 0;
  std::vector<ShardReport> shards;
  MergeStats merge;
  int shards_dead = 0;
  int restarts_total = 0;
  int stragglers = 0;
};

}  // namespace crowdsky::dist
