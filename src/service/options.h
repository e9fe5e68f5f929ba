// Configuration and report types of the multi-query crowd service.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "obs/observer.h"
#include "service/hit_packer.h"

namespace crowdsky::service {

/// One query submitted to the service: a dataset plus the full per-query
/// engine configuration (algorithm, oracle, seed, governor, ...). The
/// dataset must outlive RunService. `options.wrap_oracle` and
/// `options.durability` must be unset: a resumed run's round profile
/// holds its journal-replayed rounds, which the service would bill again.
/// `options.round_callback` is honoured, but from the service's epoch
/// replay rather than the engine run: once per round with the query's
/// round count, on the caller's thread, and every call of epoch e before
/// any call of epoch e+1.
struct ServiceQuery {
  const Dataset* dataset = nullptr;
  EngineOptions options;
  /// Display label for reports and spans ("q3" when empty).
  std::string label;
};

/// Service-level knobs (per-query knobs live in ServiceQuery::options).
struct ServiceOptions {
  /// Queries that share each epoch: at most this many queries' rounds are
  /// packed together, and a queued query joins only when one leaves.
  int max_concurrent = 4;
  /// Submissions beyond max_concurrent wait in an admission queue of this
  /// length; once it is full, further submissions are *rejected* in
  /// submission order (their QueryOutcome carries a BudgetExhausted
  /// status and no result). Negative = unbounded queue, never reject.
  int max_queue = -1;
  /// When positive, a service-wide dollar budget divided evenly across
  /// admitted queries: each CrowdSky-family query's governor dollar cap is
  /// tightened to min(its own cap, slice). Baseline/unary queries do not
  /// support governing and keep their configured options.
  double total_budget_usd = 0.0;
  /// Run the service.* invariant audit over the packing ledger after every
  /// run and fail the report on violation.
  bool audit = false;
  /// Service-level observability (per-query obs stays per-query). With
  /// kCounters the service.* counter catalog is collected; kFull adds
  /// wall-clock spans per query and per run.
  obs::ObsLevel obs_level = obs::ObsLevel::kDisabled;
};

/// What happened to one submitted query. Outcomes are indexed by query id
/// == position in the submission vector, independent of completion order.
struct QueryOutcome {
  int query_id = -1;
  std::string label;
  /// False iff the admission queue overflowed (status explains).
  bool admitted = false;
  /// OK iff the engine run succeeded; rejected or failed queries carry
  /// the reason here and a default-constructed result.
  Status status;
  EngineResult result;
  /// The governor dollar cap this query ran under after budget slicing
  /// (0 = no cap applied).
  double budget_slice_usd = 0.0;
  /// Paid question slots this query contributed to packed HITs: its
  /// Σ questions_per_round when the run succeeded, 0 when it failed.
  int64_t slots = 0;
  /// HITs this query's rounds would have cost in isolation.
  int64_t isolated_hits = 0;
};

/// The service-wide packing ledger: what the shared HITs cost versus what
/// the same questions would have cost as isolated per-query rounds.
struct PackingLedger {
  int64_t epochs = 0;         ///< epochs that carried questions
  int64_t slots = 0;          ///< total paid question slots dispatched
  int64_t packed_hits = 0;    ///< HITs actually posted (shared)
  int64_t isolated_hits = 0;  ///< Σ per-query per-round ⌈·⌉ HITs
  double cost_packed_usd = 0.0;
  double cost_isolated_usd = 0.0;
  /// cost_isolated_usd - cost_packed_usd (≥ 0 by the ceiling inequality).
  double cost_saved_usd = 0.0;
};

/// Output of one RunService call.
struct ServiceReport {
  /// One outcome per submitted query, by submission index.
  std::vector<QueryOutcome> queries;
  PackingLedger packing;
  /// Every closed (epoch, pack class) span — the audit trail behind the
  /// ledger totals.
  std::vector<EpochClassSpan> spans;
  int completed = 0;  ///< queries that ran to an OK EngineResult
  int failed = 0;     ///< admitted queries whose engine run failed
  int rejected = 0;   ///< queries turned away at admission
  /// Service-level observability dump (empty at kDisabled), same shape as
  /// EngineResult::ObsInfo counters/gauges: sorted by name.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

}  // namespace crowdsky::service
