#include "core/engine.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <type_traits>
#include <utility>

#include "algo/baseline_sort.h"
#include "algo/crowdsky_algorithm.h"
#include "algo/parallel_dset.h"
#include "algo/parallel_sl.h"
#include "algo/unary.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/options_schema.h"
#include "crowd/oracle.h"
#include "crowd/session.h"
#include "crowd/voting.h"
#include "obs/observer.h"
#include "persist/recovery.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {
namespace {

/// Order-sensitive SplitMix64 chain for the run-configuration fingerprint.
struct Fingerprinter {
  uint64_t hash = 0xcbf29ce484222325ULL;

  void Add(uint64_t v) {
    uint64_t state = hash ^ v;
    hash = SplitMix64(&state);
  }
  void AddI(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void AddF(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void AddB(bool v) { Add(v ? 1 : 0); }
  /// One listed option field: doubles by bit pattern, every integral or
  /// enum field as its int64 value.
  template <class T>
  void AddField(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      AddF(v);
    } else {
      AddI(static_cast<int64_t>(v));
    }
  }
};

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kBaselineSort:
      return "Baseline";
    case Algorithm::kBitonicSort:
      return "Bitonic";
    case Algorithm::kCrowdSkySerial:
      return "CrowdSky";
    case Algorithm::kParallelDSet:
      return "ParallelDSet";
    case Algorithm::kParallelSL:
      return "ParallelSL";
    case Algorithm::kUnary:
      return "Unary";
  }
  return "?";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (const Algorithm a :
       {Algorithm::kBaselineSort, Algorithm::kBitonicSort,
        Algorithm::kCrowdSkySerial, Algorithm::kParallelDSet,
        Algorithm::kParallelSL, Algorithm::kUnary}) {
    if (name == AlgorithmName(a)) return a;
  }
  return Status::InvalidArgument("unknown algorithm name '" + name + "'");
}

uint64_t RunFingerprint(const Dataset& dataset,
                        const EngineOptions& options) {
  Fingerprinter fp;
  // Dataset: shape and every value (crowd values are the hidden ground
  // truth the oracle answers from, so they are part of the run identity).
  fp.AddI(dataset.size());
  fp.AddI(dataset.schema().num_known());
  fp.AddI(dataset.schema().num_crowd());
  for (const Tuple& t : dataset.tuples()) {
    for (const double v : t.values) fp.AddF(v);
  }
  // Everything that shapes the question/answer stream (see
  // core/options_schema.h for the list and what stays out of it).
  VisitEngineOptions(options, [&fp](const char*, const auto& v,
                                    OptionClass cls) {
    if (cls == OptionClass::kStream) fp.AddField(v);
  });
  if (options.crowdsky.known_crowd_values != nullptr) {
    for (const DynamicBitset& mask : *options.crowdsky.known_crowd_values) {
      fp.AddI(static_cast<int64_t>(mask.size()));
      for (size_t i = 0; i < mask.size(); ++i) fp.AddB(mask.Test(i));
    }
  }
  // Imported answers pre-resolve pairs and therefore shape the question
  // stream — a resume with a different import set would diverge.
  fp.AddI(static_cast<int64_t>(options.imported_answers.size()));
  for (const ImportedAnswer& a : options.imported_answers) {
    fp.AddI(a.attr);
    fp.AddI(a.u);
    fp.AddI(a.v);
    fp.AddI(static_cast<int>(a.answer));
  }
  return fp.hash;
}

Result<EngineResult> RunSkylineQuery(const Dataset& dataset,
                                     const EngineOptions& options) {
  if (dataset.schema().num_crowd() == 0) {
    return Status::InvalidArgument(
        "dataset has no crowd attribute; use a machine-only skyline "
        "algorithm instead");
  }
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.workers_per_question < 1 ||
      options.workers_per_question % 2 == 0) {
    return Status::InvalidArgument(
        "workers_per_question must be positive and odd");
  }
  if (options.dynamic_voting && options.workers_per_question < 3) {
    return Status::InvalidArgument(
        "dynamic voting needs at least 3 base workers");
  }
  if (options.max_questions < 0) {
    return Status::InvalidArgument("max_questions must be non-negative");
  }
  const bool crowdsky_family =
      options.algorithm == Algorithm::kCrowdSkySerial ||
      options.algorithm == Algorithm::kParallelDSet ||
      options.algorithm == Algorithm::kParallelSL;
  if (options.max_questions > 0 && !crowdsky_family) {
    return Status::InvalidArgument(
        "question budgets are only supported by the CrowdSky-family "
        "algorithms (the sort baselines and the unary method need their "
        "full question sets)");
  }
  if (options.governor.max_rounds < 0 || options.governor.max_cost_usd < 0 ||
      options.governor.stall_rounds < 0 ||
      options.governor.deadline_seconds < 0) {
    return Status::InvalidArgument("governor limits must be non-negative");
  }
  if (options.governor.deadline_seconds > 0 &&
      !options.governor.allow_wall_clock) {
    return Status::InvalidArgument(
        "governor.deadline_seconds requires governor.allow_wall_clock: a "
        "wall-clock deadline makes the run nondeterministic");
  }
  if (options.governor.enabled() && !crowdsky_family) {
    return Status::InvalidArgument(
        "the run governor is only supported by the CrowdSky-family "
        "algorithms (the sort baselines and the unary method have no "
        "degraded path for a run stopped early)");
  }
  if (!options.imported_answers.empty() && !crowdsky_family) {
    return Status::InvalidArgument(
        "imported answers are only supported by the CrowdSky-family "
        "algorithms (the sort baselines and the unary method drive their "
        "own fixed question sets)");
  }
  for (const ImportedAnswer& a : options.imported_answers) {
    if (a.attr < 0 || a.attr >= dataset.schema().num_crowd() || a.u < 0 ||
        a.v < 0 || a.u >= dataset.size() || a.v >= dataset.size() ||
        a.u == a.v) {
      return Status::InvalidArgument(
          "imported answer references an attribute or tuple outside the "
          "dataset");
    }
  }
  if (options.durability.checkpoint_every_rounds != 0) {
    return Status::InvalidArgument(
        "durability.checkpoint_every_rounds must be 0: checkpoints are "
        "gone, and the answer journal is the only durability record");
  }
  if (options.durability.resume && options.durability.dir.empty()) {
    return Status::InvalidArgument(
        "durability.resume requires durability.dir");
  }
  if (options.wrap_oracle && options.durability.resume) {
    return Status::InvalidArgument(
        "wrap_oracle cannot be combined with durability.resume: journal "
        "recovery re-drives the oracle to restore its random streams, and "
        "a dispatch wrapper would observe those replayed attempts as if "
        "they were new paid questions");
  }
  if (!options.obs.trace_path.empty() &&
      options.obs.level != obs::ObsLevel::kFull) {
    return Status::InvalidArgument(
        "obs.trace_path requires obs.level = kFull (tracing)");
  }
  if (!options.obs.metrics_path.empty() &&
      options.obs.level == obs::ObsLevel::kDisabled) {
    return Status::InvalidArgument(
        "obs.metrics_path requires obs.level = kCounters or kFull");
  }
  if (options.marketplace.faults.enabled()) {
    if (options.oracle != OracleKind::kMarketplace) {
      return Status::InvalidArgument(
          "fault injection requires the marketplace oracle");
    }
    if (!crowdsky_family) {
      return Status::InvalidArgument(
          "fault injection is only supported by the CrowdSky-family "
          "algorithms (the sort baselines and the unary method have no "
          "degraded path for an unresolved question)");
    }
  }

  // The observer (and the "run" span) covers setup, the driver, and the
  // post-run accounting. Pool counters are scraped as deltas against this
  // baseline because the global pool outlives individual runs.
  std::unique_ptr<obs::RunObserver> observer;
  if (options.obs.level != obs::ObsLevel::kDisabled) {
    observer = std::make_unique<obs::RunObserver>(options.obs.level);
  }
  const ThreadPool::StatsSnapshot pool_baseline =
      ThreadPool::Global().stats();
  obs::TraceSpan run_span = obs::SpanIf(observer.get(), "run");

  obs::TraceSpan structure_span =
      obs::SpanIf(observer.get(), "setup.dominance_structure");
  // Only ParallelSL's scheduler reads c(t) and the layers; the auditor
  // checks them only where they were built.
  const DominanceStructure structure(
      PreferenceMatrix::FromKnown(dataset),
      options.algorithm == Algorithm::kParallelSL ? Reduction::kBuild
                                                  : Reduction::kSkip);
  structure_span.End();

  obs::TraceSpan oracle_span = obs::SpanIf(observer.get(), "setup.oracle");
  std::unique_ptr<CrowdOracle> oracle;
  if (options.oracle == OracleKind::kPerfect) {
    oracle = std::make_unique<PerfectOracle>(dataset);
  } else {
    Rng rng(options.seed);
    const VotingPolicy voting =
        options.dynamic_voting
            ? VotingPolicy::MakeDynamic(options.workers_per_question,
                                        structure, &rng)
            : VotingPolicy::MakeStatic(options.workers_per_question);
    if (options.oracle == OracleKind::kMarketplace) {
      MarketplaceOptions market = options.marketplace;
      market.seed = rng.Next();
      oracle =
          std::make_unique<CrowdMarketplace>(dataset, market, voting);
    } else {
      oracle = std::make_unique<SimulatedCrowd>(dataset, options.worker,
                                                voting, rng.Next());
    }
  }
  oracle_span.End();
  if (options.wrap_oracle) {
    oracle = options.wrap_oracle(std::move(oracle));
    CROWDSKY_CHECK_MSG(oracle != nullptr,
                       "wrap_oracle must return the wrapped oracle");
  }
  CrowdSession session(oracle.get());
  if (options.max_questions > 0) {
    session.SetQuestionBudget(options.max_questions);
  }
  session.SetRetryPolicy(options.retry);
  if (observer != nullptr) session.AttachObserver(observer.get());
  // The governor meters with the engine's effective pricing (ω folded in)
  // and reserves each question's full retry chain before funding it. It
  // must see every round, so it too attaches before any restore: a
  // resumed run's cost ledger covers the whole run, not just the part
  // after the crash.
  std::unique_ptr<RunGovernor> governor;
  if (options.governor.enabled()) {
    AmtCostModel pricing = options.cost_model;
    pricing.workers_per_question = options.workers_per_question;
    governor = std::make_unique<RunGovernor>(options.governor, pricing,
                                             options.retry.max_retries);
    session.AttachGovernor(governor.get());
  }

  EngineResult result;
  CrowdSkyOptions crowdsky = options.crowdsky;
  crowdsky.obs = observer.get();
  std::unique_ptr<persist::JournalWriter> journal;
  const EngineOptions::DurabilityOptions& durability = options.durability;
  if (!durability.dir.empty()) {
    result.durability.enabled = true;
    std::error_code ec;
    std::filesystem::create_directories(durability.dir, ec);
    if (ec) {
      return Status::IOError("cannot create durability directory '" +
                             durability.dir + "': " + ec.message());
    }
    const uint64_t fingerprint = RunFingerprint(dataset, options);
    if (durability.resume) {
      // Queues the journal as session credits (and restores the oracle's
      // random streams) before the algorithm runs.
      CROWDSKY_ASSIGN_OR_RETURN(
          persist::ResumeOutcome recovered,
          persist::PrepareResume(durability.dir, fingerprint,
                                 durability.sync, oracle.get(), &session));
      // A governed resume must at least fund the replay: journal credits
      // bypass the governor's gate (they spend no new money), so a cap
      // below the already-journaled cost would end the run with
      // cost_spent > cap — the one inequality the governor exists to
      // prevent. Refuse up front instead. The open tail counts at its
      // current size: it re-closes as a round no smaller than this.
      if (governor != nullptr && options.governor.max_cost_usd > 0) {
        std::vector<int64_t> replay_rounds = recovered.round_questions;
        if (recovered.open_tail_questions > 0) {
          replay_rounds.push_back(recovered.open_tail_questions);
        }
        const double replay_cost =
            governor->cost_model().Cost(replay_rounds);
        if (replay_cost > options.governor.max_cost_usd + 1e-9) {
          return Status::FailedPrecondition(
              "the journaled run already cost $" +
              std::to_string(replay_cost) +
              ", above the governor's dollar cap of $" +
              std::to_string(options.governor.max_cost_usd) +
              "; resume with a cap covering the replay (or 0 = uncapped)");
        }
      }
      journal = std::move(recovered.writer);
      result.durability.resumed = true;
      result.durability.recovered_torn_tail = recovered.recovered_torn_tail;
      result.durability.truncated_termination =
          recovered.truncated_termination;
    } else {
      CROWDSKY_ASSIGN_OR_RETURN(
          journal, persist::JournalWriter::Create(
                       persist::JournalPath(durability.dir), fingerprint,
                       durability.sync));
      session.AttachJournal(journal.get());
      // A checkpoint file that an older build left in the directory must
      // not outlive the journal it described.
      std::filesystem::remove(persist::CheckpointPath(durability.dir), ec);
    }
  }

  // Seed imported answers only now: the durability restore above requires
  // a fresh session, and a seeded pair must never be journaled (it was
  // paid for elsewhere), so seeding follows both the restore and the
  // journal attach. Seeded entries answer cache lookups for free.
  for (const ImportedAnswer& a : options.imported_answers) {
    session.SeedAnswer(a.attr, a.u, a.v, a.answer);
  }
  if (options.round_callback) {
    session.SetRoundCallback(options.round_callback);
  }

  obs::TraceSpan algo_span = obs::SpanIf(observer.get(), "algorithm");
  switch (options.algorithm) {
    case Algorithm::kBaselineSort:
      result.algo = RunBaselineSort(dataset, &session);
      break;
    case Algorithm::kBitonicSort:
      result.algo = RunBitonicBaseline(dataset, &session);
      break;
    case Algorithm::kCrowdSkySerial:
      result.algo = RunCrowdSky(dataset, structure, &session, crowdsky);
      break;
    case Algorithm::kParallelDSet:
      result.algo =
          RunParallelDSet(dataset, structure, &session, crowdsky);
      break;
    case Algorithm::kParallelSL:
      result.algo = RunParallelSL(dataset, structure, &session, crowdsky);
      break;
    case Algorithm::kUnary:
      result.algo = RunUnary(dataset, &session);
      break;
  }
  algo_span.End();

  if (journal != nullptr) {
    CROWDSKY_CHECK_MSG(
        session.credits_remaining() == 0,
        "resumed run finished without consuming every journaled answer — "
        "the re-execution diverged from the original run");
    // A governed stop leaves its marker as the journal's final record
    // (the revocable epilogue PrepareResume truncates when the run is
    // later extended under a larger budget). The driver has wound down:
    // no open round, every credit consumed — exactly the quiescent shape
    // JournalTermination requires.
    if (governor != nullptr && governor->stopped()) {
      session.JournalTermination(result.algo.termination);
    }
    CROWDSKY_RETURN_NOT_OK(journal->Sync());
    result.durability.replayed_pair_attempts =
        session.replayed_pair_attempts();
    result.durability.replayed_unary_questions =
        session.replayed_unary_questions();
    result.durability.journal_records = journal->records_total();
    result.durability.new_records = journal->records_appended();
  }

  if (options.export_answers) {
    for (const auto& [question, answer] : session.CachedAnswers()) {
      result.exported_answers.push_back(ImportedAnswer{
          question.attr, question.first, question.second, answer});
    }
  }

  result.skyline_labels.reserve(result.algo.skyline.size());
  for (const int id : result.algo.skyline) {
    result.skyline_labels.push_back(dataset.tuple(id).label);
  }
  result.accuracy = EvaluateNewSkylineAccuracy(
      dataset, result.algo.skyline, structure.known_skyline());
  AmtCostModel cost = options.cost_model;
  cost.workers_per_question = options.workers_per_question;
  result.cost_usd = cost.Cost(result.algo.questions_per_round);

  if (observer != nullptr) {
    // Publish the whole metric catalog from the run's ledgers: the
    // session's stats, per-round history and replay counts, the oracle and
    // cost-model aggregates, the journal writer's and the governor's own
    // ledgers, and the (nondeterministic) thread-pool deltas since the run
    // started. Nothing was counted live, so this is the only write.
    obs::MetricRegistry& metrics = observer->metrics();
    const SessionStats& s = session.stats();
    metrics.SetCounter("crowdsky.pair_attempts", s.questions);
    metrics.SetCounter("crowdsky.cache_hits", s.cache_hits);
    metrics.SetCounter("crowdsky.rounds", s.rounds);
    metrics.SetCounter("crowdsky.unary_questions", s.unary_questions);
    metrics.SetCounter("crowdsky.retries", s.retries);
    metrics.SetCounter("crowdsky.degraded_quorum", s.degraded_quorum);
    metrics.SetCounter("crowdsky.failed_attempts", s.failed_attempts);
    metrics.SetCounter("crowdsky.unresolved_questions",
                       s.unresolved_questions);
    metrics.SetCounter("crowdsky.backoff_rounds", s.backoff_rounds);
    metrics.SetCounter("crowdsky.worker_answers",
                       session.oracle_stats().worker_answers);
    metrics.SetCounter("crowdsky.free_lookups", result.algo.free_lookups);
    metrics.SetCounter("crowdsky.hits_paid",
                       cost.Hits(result.algo.questions_per_round));
    metrics.SetHistogram("crowdsky.round_questions",
                         session.questions_per_round());
    metrics.SetGauge("crowdsky.cost_usd", result.cost_usd);
    metrics.SetCounter("journal.records_appended",
                       journal != nullptr ? journal->records_appended() : 0);
    metrics.SetCounter("journal.replayed_pair_attempts",
                       session.replayed_pair_attempts());
    metrics.SetCounter("journal.replayed_unary_questions",
                       session.replayed_unary_questions());
    if (journal != nullptr) {
      metrics.SetCounter("journal.records_total", journal->records_total());
      metrics.SetCounter("journal.bytes_appended", journal->bytes_appended());
      metrics.SetCounter("journal.fsyncs", journal->fsyncs());
    }
    if (governor != nullptr) {
      metrics.SetCounter("governor.rounds_observed", governor->rounds_closed());
      metrics.SetCounter("governor.hits_funded", governor->hits_closed());
      metrics.SetCounter("governor.denied_questions",
                         governor->denied_questions());
      metrics.SetCounter("governor.stops", governor->stopped() ? 1 : 0);
      metrics.SetGauge("governor.cost_spent_usd", governor->cost_spent_usd());
      metrics.SetGauge("governor.cost_cap_usd", governor->cost_cap_usd());
    }
    const ThreadPool::StatsSnapshot pool = ThreadPool::Global().stats();
    metrics.SetCounter("pool.tasks_submitted",
                       pool.tasks_submitted - pool_baseline.tasks_submitted);
    metrics.SetCounter("pool.tasks_executed",
                       pool.tasks_executed - pool_baseline.tasks_executed);
    metrics.SetCounter("pool.steals", pool.steals - pool_baseline.steals);
    metrics.SetCounter("pool.parallel_fors",
                       pool.parallel_fors - pool_baseline.parallel_fors);
    metrics.SetGauge("pool.max_queue_depth",
                     static_cast<double>(pool.max_queue_depth));

    run_span.End();
    result.obs.enabled = true;
    result.obs.tracing = observer->tracing_enabled();
    result.obs.counters = metrics.CounterSamples();
    result.obs.gauges = metrics.GaugeSamples();
    result.obs.trace_events = observer->trace().event_count();
    if (!options.obs.metrics_path.empty()) {
      CROWDSKY_RETURN_NOT_OK(
          obs::WritePrometheusText(options.obs.metrics_path, metrics));
    }
    if (!options.obs.trace_path.empty()) {
      CROWDSKY_RETURN_NOT_OK(
          obs::WriteChromeTrace(options.obs.trace_path, observer->trace()));
    }
  }
  return result;
}

}  // namespace crowdsky
