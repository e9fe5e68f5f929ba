#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/service_audit.h"
#include "common/macros.h"
#include "core/engine.h"
#include "obs/observer.h"
#include "service/hit_packer.h"

namespace crowdsky::service {
namespace {

bool IsCrowdSkyFamily(Algorithm algorithm) {
  return algorithm == Algorithm::kCrowdSkySerial ||
         algorithm == Algorithm::kParallelDSet ||
         algorithm == Algorithm::kParallelSL;
}

std::size_t Idx(int i) { return static_cast<std::size_t>(i); }

/// The query's configured label, or "q<id>".
std::string QueryLabel(const ServiceQuery& query, int id) {
  if (!query.label.empty()) return query.label;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "q%d", id);
  return buf;
}

/// The pricing a query's questions are packed (and its engine run is
/// billed) under: the configured cost model with ω folded in, exactly as
/// the engine computes EngineResult::cost_usd.
AmtCostModel EffectivePricing(const EngineOptions& options) {
  AmtCostModel pricing = options.cost_model;
  pricing.workers_per_question = options.workers_per_question;
  return pricing;
}

/// \brief The scheduler behind one RunService call.
///
/// Every admitted query runs to completion, one after another on the
/// caller's thread, and the epochs are then replayed from the results. A
/// query bills exactly its questions_per_round, one round per epoch, so
/// the packing ledger depends only on the round profiles and the
/// admission order: an active list is seeded with the first
/// max_concurrent queries; in each epoch every active query registers its
/// next round's slots, then the epoch closes. A query leaves at the epoch
/// after its last round, and the head of the queue joins that same epoch.
/// A failed query has no result and so an empty profile: it frees its
/// place at once and bills nothing.
class Scheduler {
 public:
  Scheduler(const std::vector<ServiceQuery>& queries,
            const ServiceOptions& options, obs::RunObserver* observer)
      : queries_(queries), options_(options), observer_(observer) {}
  CROWDSKY_DISALLOW_COPY(Scheduler);

  Status Run(ServiceReport* report);

 private:
  void RunQuery(int query_id, QueryOutcome* outcome);
  void ReplayEpochs(const std::vector<int>& admitted,
                    const ServiceReport& report);
  void FillLedger(ServiceReport* report);
  Status AuditRun(const ServiceReport& report);

  const std::vector<ServiceQuery>& queries_;
  const ServiceOptions& options_;
  obs::RunObserver* observer_;  // null at ObsLevel::kDisabled

  double budget_slice_usd_ = 0.0;
  HitPacker packer_;
  int admitted_total_ = 0;
  int completed_ = 0;
  int failed_ = 0;
  int rejected_ = 0;
};

void Scheduler::RunQuery(int query_id, QueryOutcome* outcome) {
  EngineOptions options = queries_[Idx(query_id)].options;
  if (budget_slice_usd_ > 0.0 && IsCrowdSkyFamily(options.algorithm)) {
    const double own_cap = options.governor.max_cost_usd;
    options.governor.max_cost_usd =
        own_cap > 0.0 ? std::min(own_cap, budget_slice_usd_)
                      : budget_slice_usd_;
    outcome->budget_slice_usd = options.governor.max_cost_usd;
  }
  // The query's own callback fires from the epoch replay, in epoch order.
  options.round_callback = nullptr;

  auto span = obs::SpanIf(observer_, "service.query");
  Result<EngineResult> run = RunSkylineQuery(*queries_[Idx(query_id)].dataset,
                                             options);
  span.End();
  outcome->admitted = true;
  if (run.ok()) {
    outcome->result = std::move(run).ValueOrDie();
    outcome->status = Status::OK();
    ++completed_;
  } else {
    outcome->status = run.status();
    ++failed_;
  }
}

void Scheduler::ReplayEpochs(const std::vector<int>& admitted,
                             const ServiceReport& report) {
  // A failed query keeps a default result: its profile is empty.
  const auto rounds = [&](int query_id) -> const std::vector<int64_t>& {
    return report.queries[Idx(query_id)].result.algo.questions_per_round;
  };
  struct Active {
    int query_id;
    size_t round;  // next round to bill
  };
  std::vector<Active> active;
  size_t next = 0;
  while (true) {
    // Leavers free their places and the queue head joins this same epoch;
    // a joiner with no rounds leaves again at once.
    std::erase_if(active, [&](const Active& a) {
      return a.round == rounds(a.query_id).size();
    });
    while (static_cast<int>(active.size()) < options_.max_concurrent &&
           next < admitted.size()) {
      const int query_id = admitted[next++];
      if (!rounds(query_id).empty()) active.push_back({query_id, 0});
    }
    if (active.empty()) break;
    for (Active& a : active) {
      const EngineOptions& options = queries_[Idx(a.query_id)].options;
      packer_.RegisterSlot(a.query_id, EffectivePricing(options),
                           rounds(a.query_id)[a.round]);
      ++a.round;
      if (options.round_callback) {
        options.round_callback(static_cast<int64_t>(a.round));
      }
    }
    packer_.CloseEpoch();
  }
}

Status Scheduler::Run(ServiceReport* report) {
  const int n = static_cast<int>(queries_.size());
  report->queries.resize(Idx(n));
  for (int i = 0; i < n; ++i) {
    QueryOutcome& outcome = report->queries[Idx(i)];
    outcome.query_id = i;
    outcome.label = QueryLabel(queries_[Idx(i)], i);
  }

  // The first max_concurrent queries start at once and the next max_queue
  // wait their turn; the rest are turned away in submission order.
  std::vector<int> admitted;
  for (int i = 0; i < n; ++i) {
    if (i < options_.max_concurrent || options_.max_queue < 0 ||
        i - options_.max_concurrent < options_.max_queue) {
      admitted.push_back(i);
    } else {
      report->queries[Idx(i)].status = Status::BudgetExhausted(
          "service admission queue full (max_concurrent=" +
          std::to_string(options_.max_concurrent) +
          ", max_queue=" + std::to_string(options_.max_queue) + ")");
      ++rejected_;
    }
  }
  admitted_total_ = static_cast<int>(admitted.size());
  if (options_.total_budget_usd > 0.0 && admitted_total_ > 0) {
    budget_slice_usd_ = options_.total_budget_usd / admitted_total_;
  }

  auto run_span = obs::SpanIf(observer_, "service.run");
  for (const int id : admitted) RunQuery(id, &report->queries[Idx(id)]);
  ReplayEpochs(admitted, *report);
  run_span.End();

  FillLedger(report);
  if (options_.audit) CROWDSKY_RETURN_NOT_OK(AuditRun(*report));
  return Status::OK();
}

void Scheduler::FillLedger(ServiceReport* report) {
  PackingLedger& ledger = report->packing;
  ledger.epochs = packer_.epochs();
  ledger.slots = packer_.slots_total();
  ledger.packed_hits = packer_.packed_hits();
  ledger.isolated_hits = packer_.isolated_hits();
  ledger.cost_packed_usd = packer_.packed_cost_usd();
  ledger.cost_isolated_usd = packer_.isolated_cost_usd();
  ledger.cost_saved_usd = ledger.cost_isolated_usd - ledger.cost_packed_usd;
  report->spans = packer_.spans();
  report->completed = completed_;
  report->failed = failed_;
  report->rejected = rejected_;

  for (QueryOutcome& outcome : report->queries) {
    outcome.slots = packer_.slots_for_query(outcome.query_id);
    if (outcome.admitted && outcome.status.ok()) {
      outcome.isolated_hits =
          EffectivePricing(queries_[Idx(outcome.query_id)].options)
              .PackedHitCount(outcome.result.algo.questions_per_round);
    }
  }

  if (observer_ != nullptr) {
    obs::MetricRegistry& metrics = observer_->metrics();
    metrics.SetCounter("service.queries_submitted",
                       static_cast<int64_t>(report->queries.size()));
    metrics.SetCounter("service.queries_admitted", admitted_total_);
    metrics.SetCounter("service.queries_rejected", rejected_);
    metrics.SetCounter("service.queries_completed", completed_);
    metrics.SetCounter("service.queries_failed", failed_);
    metrics.SetCounter("service.epochs", ledger.epochs);
    metrics.SetCounter("service.slots", ledger.slots);
    metrics.SetCounter("service.packed_hits", ledger.packed_hits);
    metrics.SetCounter("service.isolated_hits", ledger.isolated_hits);
    metrics.SetGauge("service.cost_packed_usd", ledger.cost_packed_usd);
    metrics.SetGauge("service.cost_isolated_usd", ledger.cost_isolated_usd);
    metrics.SetGauge("service.cost_saved_usd", ledger.cost_saved_usd);
    report->counters = metrics.CounterSamples();
    report->gauges = metrics.GaugeSamples();
  }
}

Status Scheduler::AuditRun(const ServiceReport& report) {
  audit::ServicePackingSnapshot snapshot;
  for (const QueryOutcome& outcome : report.queries) {
    if (!outcome.admitted) {
      CROWDSKY_CHECK_MSG(outcome.slots == 0,
                         "rejected query reached the packer");
      continue;
    }
    if (!outcome.status.ok()) continue;  // failed: an empty profile
    audit::ServicePackingSnapshot::Query query;
    query.query_id = outcome.query_id;
    query.cost_model = EffectivePricing(queries_[Idx(outcome.query_id)].options);
    query.questions_per_round = outcome.result.algo.questions_per_round;
    query.reported_cost_usd = outcome.result.cost_usd;
    query.slots = outcome.slots;
    snapshot.queries.push_back(std::move(query));
  }
  for (const EpochClassSpan& span : report.spans) {
    audit::ServicePackingSnapshot::EpochSpan out;
    out.epoch = span.epoch;
    out.pricing = span.pricing;
    out.query_slots = span.query_slots;
    out.slots = span.slots;
    out.packed_hits = span.packed_hits;
    out.isolated_hits = span.isolated_hits;
    snapshot.spans.push_back(std::move(out));
  }
  snapshot.epochs = report.packing.epochs;
  snapshot.slots = report.packing.slots;
  snapshot.packed_hits = report.packing.packed_hits;
  snapshot.isolated_hits = report.packing.isolated_hits;
  snapshot.cost_packed_usd = report.packing.cost_packed_usd;
  snapshot.cost_isolated_usd = report.packing.cost_isolated_usd;
  snapshot.cost_saved_usd = report.packing.cost_saved_usd;

  audit::AuditReport audit_report;
  audit::AuditServicePacking(snapshot, &audit_report);
  if (!audit_report.ok()) {
    return Status::FailedPrecondition("service audit failed: " +
                                      audit_report.ToString());
  }
  return Status::OK();
}

Status ValidateService(const std::vector<ServiceQuery>& queries,
                       const ServiceOptions& options) {
  if (options.max_concurrent < 1) {
    return Status::InvalidArgument("max_concurrent must be at least 1");
  }
  if (options.total_budget_usd < 0.0) {
    return Status::InvalidArgument("total_budget_usd must be >= 0");
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string tag = "query " + std::to_string(i) + ": ";
    if (queries[i].dataset == nullptr) {
      return Status::InvalidArgument(tag + "dataset must not be null");
    }
    if (queries[i].options.wrap_oracle) {
      return Status::InvalidArgument(
          tag + "wrap_oracle is not supported under the service: every "
                "billed round must be asked of the query's own oracle");
    }
    if (!queries[i].options.durability.dir.empty()) {
      return Status::InvalidArgument(
          tag + "durability is not supported under the service: a resumed "
                "run's questions_per_round holds its journal-replayed "
                "rounds, which the epoch replay would bill again");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ServiceReport> RunService(const std::vector<ServiceQuery>& queries,
                                 const ServiceOptions& options) {
  CROWDSKY_RETURN_NOT_OK(ValidateService(queries, options));
  std::unique_ptr<obs::RunObserver> observer;
  if (options.obs_level != obs::ObsLevel::kDisabled) {
    observer = std::make_unique<obs::RunObserver>(options.obs_level);
  }
  ServiceReport report;
  Scheduler scheduler(queries, options, observer.get());
  CROWDSKY_RETURN_NOT_OK(scheduler.Run(&report));
  return report;
}

}  // namespace crowdsky::service
