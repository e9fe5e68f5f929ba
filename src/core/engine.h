// Public entry point of the CrowdSky library.
//
// Typical use:
//   Dataset data = ...;                       // crowd attrs hold ground truth
//   EngineOptions opts;
//   opts.algorithm = Algorithm::kParallelSL;
//   opts.worker.p_correct = 0.8;
//   Result<EngineResult> r = RunSkylineQuery(data, opts);
//
// The engine builds the dominance structure, wires a (simulated) crowd
// oracle with the selected voting policy through a cached session, runs
// the requested algorithm, and reports the skyline together with monetary
// cost, latency (rounds) and accuracy.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/metrics.h"
#include "algo/run_result.h"
#include "common/result.h"
#include "core/governor.h"
#include "crowd/cost_model.h"
#include "crowd/marketplace.h"
#include "crowd/question.h"
#include "crowd/worker_model.h"
#include "data/dataset.h"
#include "obs/observer.h"
#include "persist/journal.h"

namespace crowdsky {

/// The crowd-enabled skyline algorithms shipped by this library.
enum class Algorithm {
  kBaselineSort,   ///< tournament-sort baseline (Section 3 / Figures 6-9)
  kBitonicSort,    ///< bitonic-network baseline (extension)
  kCrowdSkySerial, ///< Algorithm 1, one question per round
  kParallelDSet,   ///< Section 4.1 partitioning
  kParallelSL,     ///< Algorithm 2, skyline layers (recommended default)
  kUnary,          ///< unary-question method of [12] (accuracy comparison)
};

/// Stable display name ("Baseline", "CrowdSky", ...).
const char* AlgorithmName(Algorithm a);

/// Inverse of AlgorithmName (exact match); fails on unknown names. Used by
/// out-of-process callers (shard children) that receive the algorithm as a
/// spec-file string.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// A resolved crowd answer carried into a run from outside — e.g. a shard's
/// exported answers seeding the distributed merge so cross-shard validation
/// only pays for pairs no shard has already resolved. Tuple ids refer to
/// the dataset *this* run sees.
struct ImportedAnswer {
  int attr = 0;
  int u = -1;
  int v = -1;
  Answer answer = Answer::kEqual;
};

/// Which oracle answers the questions.
enum class OracleKind {
  kPerfect,      ///< always-correct answers (cost/latency experiments)
  kSimulated,    ///< Bernoulli workers + majority voting (accuracy experiments)
  kMarketplace,  ///< persistent worker pool with qualification (Section 6.2)
};

/// Everything configurable about one engine run.
struct EngineOptions {
  Algorithm algorithm = Algorithm::kParallelSL;
  CrowdSkyOptions crowdsky;

  OracleKind oracle = OracleKind::kSimulated;
  WorkerModel worker;
  /// ω: base number of workers per question (positive odd).
  int workers_per_question = 5;
  /// Use the dynamic (query-dependent) voting of Section 5.
  bool dynamic_voting = false;
  uint64_t seed = 42;

  /// Hard cap on paid questions (0 = unlimited). Supported by the
  /// CrowdSky-family algorithms, which then return a best-effort skyline —
  /// undecided tuples stay in the result and are counted in
  /// AlgoResult::incomplete_tuples (the fixed-budget setting of [12]).
  int64_t max_questions = 0;

  /// Platform configuration used when `oracle` is kMarketplace (its
  /// population model; `worker` above is ignored in that case, and the
  /// marketplace pool is seeded from `seed`). Fault injection
  /// (marketplace.faults) requires kMarketplace and a CrowdSky-family
  /// algorithm — the sort baselines and the unary method have no degraded
  /// path for an unresolved question.
  MarketplaceOptions marketplace;

  /// How the session retries failed question attempts (no-ops unless the
  /// oracle can fail, i.e. a marketplace with a fault plan).
  RetryPolicy retry;

  AmtCostModel cost_model;

  /// Answers resolved elsewhere (another shard, a previous run over the
  /// same ground truth) seeded into the session cache before the algorithm
  /// starts. Seeded pairs are answered for free; only unseeded pairs reach
  /// the oracle. CrowdSky-family only, and part of the run fingerprint —
  /// imports shape the question stream, so a resume must import the same
  /// set. Entries must be mutually consistent (no contradicting duplicates).
  std::vector<ImportedAnswer> imported_answers;

  /// Invoked after every closed crowd round with the total rounds closed so
  /// far. Out-of-process progress reporting hook (shard heartbeats); the
  /// multi-query service calls a query's callback from its epoch replay
  /// instead of passing it to the engine. Must not touch the session.
  /// Excluded from the fingerprint.
  std::function<void(int64_t)> round_callback;

  /// Oracle observation seam: when set, the engine hands the oracle it
  /// just built to this hook and talks to the returned wrapper instead.
  /// The wrapper must be *transparent* — forward every call to the inner
  /// oracle unchanged, in order, and mirror its stats — so the run stays
  /// bit-identical to an unwrapped run; it may additionally observe or
  /// time each paid attempt. Excluded from the fingerprint for the same
  /// reason round_callback is: pure observation.
  std::function<std::unique_ptr<CrowdOracle>(std::unique_ptr<CrowdOracle>)>
      wrap_oracle;

  /// Fill EngineResult::exported_answers with every resolved pair answer in
  /// the session cache (canonical orientation, sorted). Off by default: the
  /// export is O(answers) extra copying nobody reads in a plain run. Purely
  /// observational, so excluded from the fingerprint.
  bool export_answers = false;

  /// Run governor (src/core/governor.h): round cap, dollar cap on the
  /// paper's cost formula, stall watchdog, cooperative cancellation, and
  /// an opt-in wall-clock deadline. Default-constructed = disabled, and
  /// the run is byte-identical to an ungoverned engine. Only the
  /// CrowdSky-family algorithms support governing (they are the ones with
  /// a degraded path for unfinished work). Deliberately excluded from the
  /// run fingerprint: a capped run must be resumable under a larger cap.
  GovernorOptions governor;

  /// Crash safety (src/persist): with a journal directory set, every
  /// resolved crowd answer is written to an append-only, checksummed
  /// journal before the algorithm acts on it. A killed run resumes with
  /// `resume = true`: the driver re-executes from the start, already-paid
  /// questions replay from the journal (nothing is re-paid), and the final
  /// result is bit-identical to an uninterrupted run.
  struct DurabilityOptions {
    /// Directory for journal.bin. Empty = durability off.
    std::string dir;
    /// Resume from the journal already in `dir` (fails if none exists or
    /// it was written by a different configuration); false starts fresh,
    /// truncating any previous journal in the directory.
    bool resume = false;
    /// Per-record durability (flush survives process death — enough for
    /// the kill-point tests; fsync also survives machine crashes).
    persist::SyncMode sync = persist::SyncMode::kFlush;
    /// Inert: must be 0 (RunSkylineQuery refuses any other value), since
    /// the journal is the only durability record. Kept only because
    /// perfbench/perfbench.cc still sets it.
    int checkpoint_every_rounds = 0;
  };
  DurabilityOptions durability;

  /// Observability (src/obs). Off by default: with level kDisabled no
  /// observer exists, every instrumented path reduces to a null check, and
  /// the run is bit-identical to an un-instrumented engine. kCounters
  /// publishes the deterministic metric catalog from the run's ledgers
  /// when the run ends (see DESIGN.md); kFull adds wall-clock TraceSpans. Counter values never feed back into the
  /// computation, so enabling observability cannot change any
  /// deterministic output either.
  struct ObsOptions {
    obs::ObsLevel level = obs::ObsLevel::kDisabled;
    /// Write a Chrome trace-event JSON (chrome://tracing, Perfetto) here
    /// at the end of the run. Requires level kFull.
    std::string trace_path;
    /// Write a Prometheus text-format metrics dump here at the end of the
    /// run. Requires level kCounters or kFull.
    std::string metrics_path;
  };
  ObsOptions obs;
};

/// Output of one engine run.
struct EngineResult {
  AlgoResult algo;
  /// Labels of the skyline tuples (empty strings when unlabeled).
  std::vector<std::string> skyline_labels;
  /// Accuracy vs the hidden ground truth.
  AccuracyMetrics accuracy;
  /// Monetary cost under the configured AMT model.
  double cost_usd = 0.0;

  /// Every resolved pair answer in the session cache at the end of the run
  /// (canonical orientation, sorted by attr/first/second; includes seeded
  /// imports). Empty unless EngineOptions::export_answers — the feed for a
  /// distributed merge that must not re-pay a shard's questions.
  std::vector<ImportedAnswer> exported_answers;

  /// What the durability subsystem did during this run (all-default when
  /// EngineOptions::durability.dir was empty).
  struct DurabilityInfo {
    bool enabled = false;
    bool resumed = false;
    /// Always false. Kept only because perfbench/perfbench.cc still reads
    /// it.
    bool used_checkpoint = false;
    /// The crash left a half-written record that recovery truncated.
    bool recovered_torn_tail = false;
    /// The journal ended in a governor-termination epilogue that recovery
    /// truncated so this run could extend the partial result.
    bool truncated_termination = false;
    /// Paid pair attempts / unary questions answered from the journal
    /// instead of the oracle (0 on a fresh run).
    int64_t replayed_pair_attempts = 0;
    int64_t replayed_unary_questions = 0;
    /// Records in the journal when the run finished / appended by it.
    int64_t journal_records = 0;
    int64_t new_records = 0;
  };
  DurabilityInfo durability;

  /// What the observability layer recorded (all-default when
  /// EngineOptions::obs.level was kDisabled). `counters` and `gauges` are
  /// sorted by name; histograms appear flattened as `<name>_count` /
  /// `<name>_sum` counter samples. The `crowdsky.*` and `journal.*`
  /// counters are deterministic (the invariant auditor proves them equal
  /// to the session/journal ledgers when auditing is on); `pool.*` values
  /// and `trace_events` depend on scheduling and wall clock.
  struct ObsInfo {
    bool enabled = false;
    bool tracing = false;
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    int64_t trace_events = 0;

    /// The value of one counter sample, or -1 if absent (no counter in
    /// the catalog can legitimately be negative).
    int64_t CounterOr(const std::string& name, int64_t missing = -1) const {
      for (const auto& [n, v] : counters) {
        if (n == name) return v;
      }
      return missing;
    }
  };
  ObsInfo obs;
};

/// The run-configuration fingerprint stamped into journals: a stable hash
/// of the dataset contents, the stream fields of VisitEngineOptions
/// (core/options_schema.h), the known-crowd masks and the imported
/// answers. Policy fields (audit flag, durability knobs,
/// cost model, governor caps) are left out, so a resume may e.g. turn
/// auditing on or raise a cap to extend a terminated run. A resume whose
/// fingerprint differs from the journal's is refused.
uint64_t RunFingerprint(const Dataset& dataset, const EngineOptions& options);

/// Runs a crowd-enabled skyline query. Fails on invalid options (no crowd
/// attribute, even worker count, ...).
Result<EngineResult> RunSkylineQuery(const Dataset& dataset,
                                     const EngineOptions& options = {});

}  // namespace crowdsky
