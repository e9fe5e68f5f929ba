#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/service_audit.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "crowd/oracle.h"
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
/// Epoch barrier protocol: every *active* query contributes exactly one
/// closed crowd round per epoch. A driver arriving at the barrier (from
/// the engine's round_callback) blocks until the epoch closes; the epoch
/// closes when every active query has either arrived or finished. A
/// finishing query therefore counts as an arrival — epoch E cannot close
/// while a query that will finish during E is still running — which makes
/// the epoch at which each query finishes (and hence each admission from
/// the queue, and hence the entire packing ledger) a pure function of the
/// submission list, independent of thread timing.
class Scheduler {
 public:
  Scheduler(const std::vector<ServiceQuery>& queries,
            const ServiceOptions& options, obs::RunObserver* observer)
      : queries_(queries), options_(options), observer_(observer) {}
  CROWDSKY_DISALLOW_COPY(Scheduler);

  Status Run(ServiceReport* report);

  // Dispatch-wrapper callbacks, invoked synchronously from query driver
  // threads on every paid question.
  void RegisterSlot(int query_id, const AmtCostModel& pricing) {
    MutexLock lock(mutex_);
    packer_.RegisterSlot(query_id, pricing);
  }
  void RouteAnswer(int query_id) {
    MutexLock lock(mutex_);
    packer_.RouteAnswer(query_id);
  }

  /// Round-callback hook: the calling query closed one crowd round.
  void ArriveAtRoundBarrier();

 private:
  /// Thread body of one admitted query.
  void RunQuery(int query_id);
  void FinishQuery(int query_id, Result<EngineResult> run);
  void AdmitLocked(int query_id) CROWDSKY_REQUIRES(mutex_);
  void CloseEpochLocked() CROWDSKY_REQUIRES(mutex_);

  void FillLedger(ServiceReport* report);
  Status AuditRun(const ServiceReport& report);

  const std::vector<ServiceQuery>& queries_;
  const ServiceOptions& options_;
  obs::RunObserver* observer_;  // null at ObsLevel::kDisabled

  /// Written before any thread is spawned, immutable afterwards.
  double budget_slice_usd_ = 0.0;
  int admitted_total_ = 0;
  ServiceReport* report_ = nullptr;

  Mutex mutex_;
  CondVar cv_;
  HitPacker packer_ CROWDSKY_GUARDED_BY(mutex_);
  std::deque<int> queue_ CROWDSKY_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ CROWDSKY_GUARDED_BY(mutex_);
  int64_t epoch_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int active_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int arrived_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int finished_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int completed_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int failed_ CROWDSKY_GUARDED_BY(mutex_) = 0;
  int rejected_ CROWDSKY_GUARDED_BY(mutex_) = 0;
};

/// \brief Transparent per-query dispatch wrapper (EngineOptions::
/// wrap_oracle contract): forwards every call to the query's own oracle
/// unchanged and synchronously, mirrors its stats, and reports each paid
/// question to the scheduler as a HIT slot plus a routed answer. It holds
/// no answer state of its own, so it cannot change what the query
/// computes — only what the service knows about it.
class PackedDispatchOracle : public CrowdOracle {
 public:
  PackedDispatchOracle(std::unique_ptr<CrowdOracle> inner,
                       Scheduler* scheduler, int query_id,
                       const AmtCostModel& pricing)
      : inner_(std::move(inner)),
        scheduler_(scheduler),
        query_id_(query_id),
        pricing_(pricing) {}

  Answer AnswerPair(const PairQuestion& q, const AskContext& ctx) override {
    // Paid attempts go through AnswerPairOutcome (the CrowdSession
    // contract); plain AnswerPair stays a transparent forward for any
    // other caller.
    const Answer answer = inner_->AnswerPair(q, ctx);
    stats_ = inner_->stats();
    return answer;
  }

  PairOutcome AnswerPairOutcome(const PairQuestion& q,
                                const AskContext& ctx) override {
    scheduler_->RegisterSlot(query_id_, pricing_);
    PairOutcome outcome = inner_->AnswerPairOutcome(q, ctx);
    stats_ = inner_->stats();
    scheduler_->RouteAnswer(query_id_);
    return outcome;
  }

  double AnswerUnary(int id, int attr, const AskContext& ctx) override {
    scheduler_->RegisterSlot(query_id_, pricing_);
    const double value = inner_->AnswerUnary(id, attr, ctx);
    stats_ = inner_->stats();
    scheduler_->RouteAnswer(query_id_);
    return value;
  }

  const FaultInjector* fault_injector() const override {
    return inner_->fault_injector();
  }

 private:
  std::unique_ptr<CrowdOracle> inner_;
  Scheduler* scheduler_;
  int query_id_;
  AmtCostModel pricing_;
};

void Scheduler::ArriveAtRoundBarrier() {
  MutexLock lock(mutex_);
  const int64_t my_epoch = epoch_;
  ++arrived_;
  if (arrived_ == active_) {
    CloseEpochLocked();
  } else {
    while (epoch_ == my_epoch) cv_.Wait(mutex_);
  }
}

void Scheduler::CloseEpochLocked() {
  packer_.CloseEpoch();
  arrived_ = 0;
  ++epoch_;
  cv_.NotifyAll();
}

void Scheduler::AdmitLocked(int query_id) {
  ++active_;
  report_->queries[Idx(query_id)].admitted = true;
  threads_.emplace_back(&Scheduler::RunQuery, this, query_id);
}

void Scheduler::RunQuery(int query_id) {
  const ServiceQuery& query = queries_[Idx(query_id)];
  QueryOutcome& outcome = report_->queries[Idx(query_id)];

  EngineOptions options = query.options;
  const AmtCostModel pricing = EffectivePricing(options);
  if (budget_slice_usd_ > 0.0 && IsCrowdSkyFamily(options.algorithm)) {
    const double own_cap = options.governor.max_cost_usd;
    options.governor.max_cost_usd =
        own_cap > 0.0 ? std::min(own_cap, budget_slice_usd_)
                      : budget_slice_usd_;
    outcome.budget_slice_usd = options.governor.max_cost_usd;
  }
  options.wrap_oracle = [this, query_id,
                         pricing](std::unique_ptr<CrowdOracle> inner)
      -> std::unique_ptr<CrowdOracle> {
    return std::make_unique<PackedDispatchOracle>(std::move(inner), this,
                                                  query_id, pricing);
  };
  const std::function<void(int64_t)> user_callback =
      query.options.round_callback;
  options.round_callback = [this, user_callback](int64_t rounds) {
    if (user_callback) user_callback(rounds);
    ArriveAtRoundBarrier();
  };

  auto span = obs::SpanIf(observer_, "service.query");
  Result<EngineResult> run = RunSkylineQuery(*query.dataset, options);
  span.End();
  FinishQuery(query_id, std::move(run));
}

void Scheduler::FinishQuery(int query_id, Result<EngineResult> run) {
  MutexLock lock(mutex_);
  QueryOutcome& outcome = report_->queries[Idx(query_id)];
  if (run.ok()) {
    outcome.result = std::move(run).ValueOrDie();
    outcome.status = Status::OK();
    // Every paid question of the run was packed, one slot per attempt:
    // the per-round ledger and the packer must agree exactly.
    int64_t asked = 0;
    for (const int64_t q : outcome.result.algo.questions_per_round) {
      asked += q;
    }
    CROWDSKY_CHECK_MSG(packer_.slots_for_query(query_id) == asked,
                       "service packer lost or invented question slots");
    ++completed_;
  } else {
    outcome.status = run.status();
    ++failed_;
  }
  --active_;
  ++finished_;
  if (!queue_.empty()) {
    const int next = queue_.front();
    queue_.pop_front();
    AdmitLocked(next);
  }
  // This finish may have been the arrival the open epoch was waiting for.
  if (active_ > 0 && arrived_ == active_) CloseEpochLocked();
  cv_.NotifyAll();
}

Status Scheduler::Run(ServiceReport* report) {
  report_ = report;
  const int n = static_cast<int>(queries_.size());
  report->queries.resize(Idx(n));
  for (int i = 0; i < n; ++i) {
    QueryOutcome& outcome = report->queries[Idx(i)];
    outcome.query_id = i;
    outcome.label = QueryLabel(queries_[Idx(i)], i);
  }

  auto run_span = obs::SpanIf(observer_, "service.run");
  {
    MutexLock lock(mutex_);
    const int admit_now = std::min(options_.max_concurrent, n);
    for (int i = admit_now; i < n; ++i) {
      if (options_.max_queue < 0 ||
          static_cast<int>(queue_.size()) < options_.max_queue) {
        queue_.push_back(i);
      } else {
        report->queries[Idx(i)].status = Status::BudgetExhausted(
            "service admission queue full (max_concurrent=" +
            std::to_string(options_.max_concurrent) +
            ", max_queue=" + std::to_string(options_.max_queue) + ")");
        ++rejected_;
      }
    }
    // Every non-rejected query is eventually admitted (each finish drains
    // the queue head), so the budget denominator is known up front.
    admitted_total_ = n - rejected_;
    if (options_.total_budget_usd > 0.0 && admitted_total_ > 0) {
      budget_slice_usd_ = options_.total_budget_usd / admitted_total_;
    }
    for (int i = 0; i < admit_now; ++i) AdmitLocked(i);
    while (finished_ < admitted_total_) cv_.Wait(mutex_);
    // Drivers close their final round at the barrier before returning, so
    // the packer is normally flush; a query that died mid-round must not
    // strand its siblings' open slots.
    if (packer_.open_epoch_nonempty()) CloseEpochLocked();
    for (std::thread& thread : threads_) thread.join();
  }
  run_span.End();

  FillLedger(report);
  if (options_.audit) CROWDSKY_RETURN_NOT_OK(AuditRun(*report));
  return Status::OK();
}

void Scheduler::FillLedger(ServiceReport* report) {
  MutexLock lock(mutex_);
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
    if (!outcome.status.ok()) continue;  // failed at validation, no slots
    audit::ServicePackingSnapshot::Query query;
    query.query_id = outcome.query_id;
    query.cost_model = EffectivePricing(queries_[Idx(outcome.query_id)].options);
    query.questions_per_round = outcome.result.algo.questions_per_round;
    query.reported_cost_usd = outcome.result.cost_usd;
    query.slots = outcome.slots;
    query.routed_answers = [&] {
      MutexLock lock(mutex_);
      return packer_.routed_for_query(outcome.query_id);
    }();
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
          tag + "wrap_oracle is owned by the service dispatch path");
    }
    if (!queries[i].options.durability.dir.empty()) {
      return Status::InvalidArgument(
          tag + "durability is not supported under the service: a journal "
                "resume re-drives the oracle and would register phantom "
                "HIT slots through the dispatch wrapper");
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
