// End-to-end benchmark of the CrowdSky library.
//
//   crowdsky_perfbench --workload <large_query|service_packed|capped_resume>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--threads <k>] [--smoke] [--work-dir <dir>]
//
// Drives the library only through its public API. A run sets up a seeded
// query set (generate -> CSV -> read back -> references -> warm-up), then
// replays it in a closed loop for --seconds: one client, whose next
// request leaves only after the previous one returned. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it replays the same set
// with timers at the public boundaries of every layer and reports the
// per-layer metrics instead. Lines starting with '#' are the run header;
// the last line of standard output is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/crowdsky.h"
#include "persist/recovery.h"
#include "service/service.h"
#include "skyline/dominance_kernels.h"

namespace {

using crowdsky::Algorithm;
using crowdsky::AmtCostModel;
using crowdsky::CrowdOracle;
using crowdsky::DataDistribution;
using crowdsky::Dataset;
using crowdsky::EngineOptions;
using crowdsky::EngineResult;
using crowdsky::OracleKind;
using crowdsky::Result;
using crowdsky::Rng;
using crowdsky::ThreadPool;
namespace service = crowdsky::service;
namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int threads = 0;  // 0 = the workload's own pool size
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: crowdsky_perfbench --workload "
               "<large_query|service_packed|capped_resume> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <k>] [--smoke] "
               "[--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--threads") {
      args.threads = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kLargeQuery, kServicePacked, kCappedResume };

struct Workload {
  Kind kind;
  int n_lo;
  int n_hi;
  /// Queries in the seeded set, a multiple of `period`.
  int queries;
  /// Length of the driver x distribution (x oracle) rotation; sizes are
  /// stratified within each rotation cell, so every seed draws the same
  /// spread of sizes per cell and no two size clusters form.
  int period;
  int pool_threads;
};

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

Workload MakeWorkload(const Args& args) {
  Workload w{};
  const int large_threads = std::min(4, Nproc());
  if (args.workload == "large_query") {
    w = {Kind::kLargeQuery, 2000, 4000, 144, 12, large_threads};
  } else if (args.workload == "service_packed") {
    w = {Kind::kServicePacked, 200, 800, 300, 6, 1};
  } else if (args.workload == "capped_resume") {
    w = {Kind::kCappedResume, 600, 1200, 288, 6, 1};
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.smoke) {
    w.n_lo /= 10;
    w.n_hi /= 10;
    w.queries = w.period;
  }
  if (args.threads > 0) w.pool_threads = args.threads;
  return w;
}

/// checkpoint_every_rounds of the timed capped_resume loop: journal-only
/// durability. Every checkpoint fdatasyncs the journal and the checkpoint
/// file whatever the sync mode, so the default cadence would time the
/// disk (README.md, "capped_resume and checkpoints").
constexpr int kJournalOnly = 0;
const int kDefaultCadence =
    EngineOptions::DurabilityOptions{}.checkpoint_every_rounds;

constexpr Algorithm kDrivers[3] = {Algorithm::kCrowdSkySerial,
                                   Algorithm::kParallelDSet,
                                   Algorithm::kParallelSL};

struct QuerySpec {
  int n = 0;
  DataDistribution distribution = DataDistribution::kIndependent;
  uint64_t data_seed = 0;
  EngineOptions options;
};

/// The seeded query set: a pure function of (workload, seed).
std::vector<QuerySpec> MakeSpecs(const Workload& w, uint64_t seed) {
  const uint64_t salt = static_cast<unsigned>(w.kind) + 1u;
  Rng rng(seed * uint64_t{0x9e3779b97f4a7c15} + salt);
  const int reps = w.queries / w.period;
  // Per cell, a random assignment of the size strata to repetitions.
  std::vector<std::vector<int>> strata(static_cast<size_t>(w.period));
  for (auto& s : strata) {
    s.resize(static_cast<size_t>(reps));
    std::iota(s.begin(), s.end(), 0);
    for (int i = reps - 1; i > 0; --i) {
      std::swap(s[static_cast<size_t>(i)],
                s[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
  }
  std::vector<QuerySpec> specs(static_cast<size_t>(w.queries));
  for (int i = 0; i < w.queries; ++i) {
    const int cell = i % w.period;
    const int stratum = strata[static_cast<size_t>(cell)]
                              [static_cast<size_t>(i / w.period)];
    QuerySpec& q = specs[static_cast<size_t>(i)];
    const double span = w.n_hi - w.n_lo;
    q.n = w.n_lo +
          static_cast<int>(span * (stratum + rng.NextDouble()) / reps);
    q.distribution = i % 2 == 0 ? DataDistribution::kIndependent
                                : DataDistribution::kAntiCorrelated;
    q.data_seed = rng.Next();
    EngineOptions& o = q.options;
    o.algorithm = kDrivers[i % 3];
    o.seed = rng.Next();
    o.workers_per_question = 5;
    o.worker.p_correct = 0.8;
    switch (w.kind) {
      case Kind::kLargeQuery:
        o.oracle = (i / 2) % 2 == 0 ? OracleKind::kPerfect
                                    : OracleKind::kSimulated;
        break;
      case Kind::kServicePacked:
        o.oracle = OracleKind::kMarketplace;
        o.marketplace.gold_questions = 10;
        o.marketplace.faults.transient_error_rate = 0.05;
        o.marketplace.faults.worker_no_show_rate = 0.10;
        o.marketplace.faults.straggler_rate = 0.05;
        o.marketplace.faults.hit_expiration_rate = 0.02;
        o.retry.max_retries = 3;
        o.obs.level = crowdsky::obs::ObsLevel::kCounters;
        break;
      case Kind::kCappedResume:
        o.oracle = OracleKind::kSimulated;
        break;
    }
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Layer timers at the public boundaries

/// Transparent oracle wrapper (the EngineOptions::wrap_oracle contract):
/// forwards every call unchanged, mirrors the inner stats, and adds the
/// time spent inside the wrapped oracle to `*busy_ms`.
class TimingOracle final : public CrowdOracle {
 public:
  TimingOracle(std::unique_ptr<CrowdOracle> inner, double* busy_ms)
      : inner_(std::move(inner)), busy_ms_(busy_ms) {}

  crowdsky::Answer AnswerPair(const crowdsky::PairQuestion& q,
                              const crowdsky::AskContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    const crowdsky::Answer answer = inner_->AnswerPair(q, ctx);
    *busy_ms_ += MsSince(t0);
    stats_ = inner_->stats();
    return answer;
  }

  crowdsky::PairOutcome AnswerPairOutcome(
      const crowdsky::PairQuestion& q,
      const crowdsky::AskContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    crowdsky::PairOutcome outcome = inner_->AnswerPairOutcome(q, ctx);
    *busy_ms_ += MsSince(t0);
    stats_ = inner_->stats();
    return outcome;
  }

  double AnswerUnary(int id, int attr,
                     const crowdsky::AskContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    const double value = inner_->AnswerUnary(id, attr, ctx);
    *busy_ms_ += MsSince(t0);
    stats_ = inner_->stats();
    return value;
  }

  const crowdsky::FaultInjector* fault_injector() const override {
    return inner_->fault_injector();
  }

 private:
  std::unique_ptr<CrowdOracle> inner_;
  double* busy_ms_;
};

/// One engine call split at the layer boundaries the benchmark can see:
/// the dominance-structure build and the ground-truth evaluation are
/// re-timed through their public entry points on the same input, the
/// oracle is timed inside the run by TimingOracle, and the driver (with
/// the CrowdSession and preference graphs) is the remainder.
struct EngineSplit {
  Clock::time_point start{};
  Clock::time_point end{};
  double total_ms = 0;
  double structure_ms = 0;
  double truth_ms = 0;
  double oracle_ms = 0;
  double driver_ms() const {
    return total_ms - structure_ms - truth_ms - oracle_ms;
  }
};

double TimeStructureBuild(const Dataset& dataset) {
  const Clock::time_point t0 = Clock::now();
  const crowdsky::DominanceStructure structure(
      crowdsky::PreferenceMatrix::FromKnown(dataset));
  const double ms = MsSince(t0);
  if (structure.size() != dataset.size()) std::abort();
  return ms;
}

double TimeTruthEval(const Dataset& dataset, const EngineResult& result) {
  const Clock::time_point t0 = Clock::now();
  const crowdsky::AccuracyMetrics acc =
      crowdsky::EvaluateNewSkylineAccuracy(dataset, result.algo.skyline);
  const double ms = MsSince(t0);
  if (acc.f1 != result.accuracy.f1) std::abort();
  return ms;
}

/// Runs `options` with a TimingOracle attached and fills `split`.
Result<EngineResult> RunSplit(const Dataset& dataset, EngineOptions options,
                              EngineSplit* split) {
  double oracle_ms = 0;
  options.wrap_oracle = [&oracle_ms](std::unique_ptr<CrowdOracle> inner)
      -> std::unique_ptr<CrowdOracle> {
    return std::make_unique<TimingOracle>(std::move(inner), &oracle_ms);
  };
  split->start = Clock::now();
  Result<EngineResult> run = crowdsky::RunSkylineQuery(dataset, options);
  split->end = Clock::now();
  split->total_ms = MsBetween(split->start, split->end);
  split->oracle_ms = oracle_ms;
  split->structure_ms = TimeStructureBuild(dataset);
  if (run.ok()) split->truth_ms = TimeTruthEval(dataset, run.ValueOrDie());
  return run;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Fixed CPU-bound probe: a dependent integer recurrence.
double CpuProbeMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = MsSince(t0);
  if (x == 0) std::abort();
  return ms;
}

/// Fixed memory-bound probe: strided sums over a 64 MiB buffer.
double MemProbeMs() {
  std::vector<uint64_t> buf(size_t{8} << 20, 1);
  const Clock::time_point t0 = Clock::now();
  uint64_t sum = 0;
  for (int pass = 0; pass < 32; ++pass) {
    for (size_t i = 0; i < buf.size(); i += 8) sum += buf[i];
  }
  const double ms = MsSince(t0);
  if (sum == 0) std::abort();
  return ms;
}

/// Every per-layer metric a traced run reports besides data.* and the
/// probes, in report order. A workload that does not exercise a layer
/// reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"skyline.structure_ms", "ms"},
      {"skyline.structure_share", "ratio"},
      {"skyline.truth_eval_ms", "ms"},
      {"common.pool_tasks", "count"},
      {"common.pool_steals", "count"},
      {"common.pool_parallel_fors", "count"},
      {"algo.driver_ms", "ms"},
      {"algo.driver_share", "ratio"},
      {"algo.free_lookups", "count"},
      {"crowd.oracle_ms", "ms"},
      {"crowd.oracle_share", "ratio"},
      {"crowd.worker_answers", "count"},
      {"crowd.retries", "count"},
      {"crowd.failed_attempts", "count"},
      {"crowd.useful_attempt_ratio", "ratio"},
      {"governor.incomplete_tuples", "count"},
      {"governor.denied_questions", "count"},
      {"governor.wind_down_ms", "ms"},
      {"governor.capped_skyline_f1", "ratio"},
      {"persist.journal_ms", "ms"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.journal_records", "count"},
      {"persist.journal_bytes", "bytes"},
      {"persist.checkpoint_bytes", "bytes"},
      {"persist.replayed_attempts", "count"},
      {"persist.checkpoint_used_share", "ratio"},
      {"persist.resume_ms_p50", "ms"},
      {"core.fingerprint_ms", "ms"},
      {"service.barrier_wait_ms", "ms"},
      {"service.barrier_wait_share", "ratio"},
      {"service.isolated_ms", "ms"},
      {"service.bookkeeping_ms", "ms"},
      {"service.epochs", "count"},
      {"service.packed_hits", "count"},
      {"service.isolated_hits", "count"},
      {"service.hit_saving_share", "ratio"},
      {"obs.counters_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  return catalog;
}

// ---------------------------------------------------------------------------
// Checks

bool SameOutput(const EngineResult& a, const EngineResult& b) {
  return a.algo.skyline == b.algo.skyline &&
         a.algo.questions_per_round == b.algo.questions_per_round;
}

/// The engine's pricing: the configured cost model with ω folded in.
bool CostMatchesLedger(const EngineResult& r, const EngineOptions& options) {
  AmtCostModel pricing = options.cost_model;
  pricing.workers_per_question = options.workers_per_question;
  return std::abs(r.cost_usd - pricing.Cost(r.algo.questions_per_round)) <
         1e-9;
}

int64_t PaidAttempts(const EngineResult& r) {
  return std::accumulate(r.algo.questions_per_round.begin(),
                         r.algo.questions_per_round.end(), int64_t{0});
}

// ---------------------------------------------------------------------------
// The benchmark

/// Deterministic per-query counters summed over the first pass.
struct Counters {
  int64_t free_lookups = 0;
  int64_t worker_answers = 0;
  int64_t retries = 0;
  int64_t failed_attempts = 0;
  int64_t resolved = 0;
  int64_t attempts = 0;
  void Add(const EngineResult& r) {
    free_lookups += r.algo.free_lookups;
    worker_answers += r.algo.worker_answers;
    retries += r.algo.retries;
    failed_attempts += r.algo.failed_attempts;
    resolved += r.algo.completeness.resolved_questions;
    attempts += PaidAttempts(r);
  }
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w) : args_(args), w_(w) {}

  int Main();

 private:
  struct Query {
    QuerySpec spec;
    std::unique_ptr<Dataset> dataset;
    /// Ground-truth skyline (large_query, PerfectOracle queries).
    std::vector<int> truth;
    /// Isolated reference (service_packed) or uncapped twin
    /// (capped_resume).
    EngineResult reference;
    double cap_usd = 0;
  };

  /// One setup repetition; returns its seconds.
  double Setup(Clock::time_point t0);
  void SetupReferences();
  void WarmUp();

  // Timed phases (untraced) and traced phases.
  void TimedLargeQuery();
  void TimedServicePacked();
  void TimedCappedResume();
  void TracedLargeQuery();
  void TracedServicePacked();
  void TracedCappedResume();

  /// The capped journaled run and its uncapped resume. The timed loop
  /// runs them journal-only (kJournalOnly); the traced run also measures
  /// the engine's default checkpoint cadence.
  EngineOptions CappedOptions(const Query& q, const std::string& dir,
                              int checkpoint_every_rounds) const;
  EngineOptions ResumeOptions(const Query& q, const std::string& dir,
                              int checkpoint_every_rounds) const;
  std::string QueryDir(int i) const {
    return work_dir_ + "/journal_" + std::to_string(i);
  }
  std::vector<service::ServiceQuery> Batch(int b,
                                           crowdsky::obs::ObsLevel level) const;
  service::ServiceOptions ServiceOpts(crowdsky::obs::ObsLevel level) const;

  /// Whether the phase may stop: time is up and every query (or batch)
  /// of the set ran at least once.
  bool Done(Clock::time_point start, bool whole_pass) const {
    return whole_pass && MsSince(start) >= 1000.0 * args_.seconds;
  }

  void Fail(const std::string& what) {
    ++failed_;
    if (failures_logged_++ < 10) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  void CheckEngine(int i, const Result<EngineResult>& run);
  void CheckService(int b, const Result<service::ServiceReport>& run);
  void CheckCapped(int i, const Result<EngineResult>& capped,
                   const Result<EngineResult>& resumed);

  void AddLayer(const std::string& name, double value) {
    layers_[name] = value;
  }
  void EmitEngineLayers();
  void EmitCounters(const Counters& c);

  const Args& args_;
  const Workload& w_;
  std::string work_dir_;
  std::vector<Query> queries_;

  // Setup-phase per-layer times (last repetition).
  double generate_ms_ = 0;
  double csv_ms_ = 0;

  // Timed-phase results.
  /// Latencies per query (per batch for service_packed), one entry per
  /// repetition; a percentile is taken over the per-item medians, so each
  /// query of the set weighs the same however often it repeated.
  std::vector<std::vector<double>> latency_ms_;
  double timed_wall_s_ = 0;
  int64_t completed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int failures_logged_ = 0;
  /// First-pass results, one per query: the source of the seed-determined
  /// metrics (questions, crowd_rounds, cost_usd, skyline_f1).
  std::vector<EngineResult> first_;
  double packed_cost_usd_ = 0;

  // Traced-phase results.
  std::vector<EngineSplit> splits_;
  /// Per-layer values by name; PerLayerCatalog() gives their units.
  std::map<std::string, double> layers_;
};

double Bench::Setup(Clock::time_point t0) {
  queries_.clear();
  const std::vector<QuerySpec> specs = MakeSpecs(w_, args_.seed);
  generate_ms_ = 0;
  csv_ms_ = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    Query q;
    q.spec = specs[i];
    crowdsky::GeneratorOptions gen;
    gen.cardinality = q.spec.n;
    gen.num_known = 4;
    gen.num_crowd = 1;
    gen.distribution = q.spec.distribution;
    gen.seed = q.spec.data_seed;
    Clock::time_point t = Clock::now();
    Result<Dataset> generated = crowdsky::GenerateDataset(gen);
    generate_ms_ += MsSince(t);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   generated.status().ToString().c_str());
      std::exit(1);
    }
    // The program sees its input through its own CSV reader.
    t = Clock::now();
    const std::string path = work_dir_ + "/q" + std::to_string(i) + ".csv";
    const crowdsky::Status written =
        crowdsky::WriteCsvFile(generated.ValueOrDie(), path);
    Result<Dataset> read = written.ok() ? crowdsky::ReadCsvFile(path)
                                        : Result<Dataset>(written);
    std::error_code ec;
    fs::remove(path, ec);
    csv_ms_ += MsSince(t);
    if (!read.ok()) {
      std::fprintf(stderr, "csv: %s\n", read.status().ToString().c_str());
      std::exit(1);
    }
    q.dataset = std::make_unique<Dataset>(std::move(read).ValueOrDie());
    queries_.push_back(std::move(q));
  }
  SetupReferences();
  WarmUp();
  return MsSince(t0) / 1000.0;
}

void Bench::SetupReferences() {
  for (size_t i = 0; i < queries_.size(); ++i) {
    Query& q = queries_[i];
    if (w_.kind == Kind::kLargeQuery) {
      if (q.spec.options.oracle == OracleKind::kPerfect) {
        q.truth = crowdsky::ComputeGroundTruthSkyline(*q.dataset);
      }
      continue;
    }
    // The isolated reference / uncapped non-durable twin.
    Result<EngineResult> run =
        crowdsky::RunSkylineQuery(*q.dataset, q.spec.options);
    if (!run.ok()) {
      std::fprintf(stderr, "reference run %zu: %s\n", i,
                   run.status().ToString().c_str());
      std::exit(1);
    }
    q.reference = std::move(run).ValueOrDie();
    q.cap_usd = q.reference.cost_usd / 2;
  }
}

void Bench::WarmUp() {
  switch (w_.kind) {
    case Kind::kLargeQuery:
      for (int i = 0; i < 3; ++i) {
        const Query& q = queries_[static_cast<size_t>(i)];
        (void)crowdsky::RunSkylineQuery(*q.dataset, q.spec.options);
      }
      break;
    case Kind::kServicePacked:
      // Batch 0 holds one query per driver.
      (void)service::RunService(
          Batch(0, crowdsky::obs::ObsLevel::kCounters),
          ServiceOpts(crowdsky::obs::ObsLevel::kCounters));
      break;
    case Kind::kCappedResume:
      for (int i = 0; i < 3; ++i) {
        const Query& q = queries_[static_cast<size_t>(i)];
        (void)crowdsky::RunSkylineQuery(
            *q.dataset, CappedOptions(q, QueryDir(i), kJournalOnly));
        (void)crowdsky::RunSkylineQuery(
            *q.dataset, ResumeOptions(q, QueryDir(i), kJournalOnly));
      }
      break;
  }
}

EngineOptions Bench::CappedOptions(const Query& q, const std::string& dir,
                                   int checkpoint_every_rounds) const {
  EngineOptions o = ResumeOptions(q, dir, checkpoint_every_rounds);
  o.durability.resume = false;
  o.governor.max_cost_usd = q.cap_usd;
  return o;
}

EngineOptions Bench::ResumeOptions(const Query& q, const std::string& dir,
                                   int checkpoint_every_rounds) const {
  EngineOptions o = q.spec.options;
  o.durability.dir = dir;
  o.durability.resume = true;
  o.durability.sync = crowdsky::persist::SyncMode::kFlush;
  o.durability.checkpoint_every_rounds = checkpoint_every_rounds;
  return o;
}

service::ServiceOptions Bench::ServiceOpts(
    crowdsky::obs::ObsLevel level) const {
  service::ServiceOptions o;
  o.max_concurrent = 3;
  o.obs_level = level;
  return o;
}

std::vector<service::ServiceQuery> Bench::Batch(
    int b, crowdsky::obs::ObsLevel level) const {
  std::vector<service::ServiceQuery> batch;
  for (int j = 0; j < 3; ++j) {
    const Query& q = queries_[static_cast<size_t>(3 * b + j)];
    service::ServiceQuery sq;
    sq.dataset = q.dataset.get();
    sq.options = q.spec.options;
    sq.options.obs.level = level;
    sq.label = "q" + std::to_string(3 * b + j);
    batch.push_back(std::move(sq));
  }
  return batch;
}

// ----- checks ---------------------------------------------------------------

void Bench::CheckEngine(int i, const Result<EngineResult>& run) {
  const Query& q = queries_[static_cast<size_t>(i)];
  const std::string tag = "query " + std::to_string(i);
  if (!run.ok()) return Fail(tag + ": " + run.status().ToString());
  const EngineResult& r = run.ValueOrDie();
  if (!CostMatchesLedger(r, q.spec.options)) {
    return Fail(tag + ": cost_usd does not match the AMT cost model");
  }
  if (!q.truth.empty() && r.algo.skyline != q.truth) {
    return Fail(tag + ": PerfectOracle skyline differs from ground truth");
  }
}

void Bench::CheckService(int b, const Result<service::ServiceReport>& run) {
  const std::string tag = "batch " + std::to_string(b);
  if (!run.ok()) {
    for (int j = 0; j < 3; ++j) Fail(tag + ": " + run.status().ToString());
    return;
  }
  const service::ServiceReport& rep = run.ValueOrDie();
  if (rep.packing.packed_hits > rep.packing.isolated_hits) {
    Fail(tag + ": packed_hits > isolated_hits");
  }
  for (int j = 0; j < 3; ++j) {
    const Query& q = queries_[static_cast<size_t>(3 * b + j)];
    const service::QueryOutcome& out = rep.queries[static_cast<size_t>(j)];
    const std::string qtag = tag + " query " + std::to_string(j);
    if (!out.admitted || !out.status.ok()) {
      Fail(qtag + ": rejected or failed: " + out.status.ToString());
    } else if (!SameOutput(out.result, q.reference)) {
      Fail(qtag + ": differs from its isolated reference");
    } else if (!CostMatchesLedger(out.result, q.spec.options)) {
      Fail(qtag + ": cost_usd does not match the AMT cost model");
    }
  }
}

void Bench::CheckCapped(int i, const Result<EngineResult>& capped,
                        const Result<EngineResult>& resumed) {
  const Query& q = queries_[static_cast<size_t>(i)];
  const std::string tag = "query " + std::to_string(i);
  if (!capped.ok()) return Fail(tag + " capped: " + capped.status().ToString());
  if (!resumed.ok()) {
    return Fail(tag + " resume: " + resumed.status().ToString());
  }
  const EngineResult& c = capped.ValueOrDie();
  const EngineResult& r = resumed.ValueOrDie();
  if (c.cost_usd > q.cap_usd + 1e-9) return Fail(tag + ": capped cost > cap");
  if (!CostMatchesLedger(c, q.spec.options) ||
      !CostMatchesLedger(r, q.spec.options)) {
    return Fail(tag + ": cost_usd does not match the AMT cost model");
  }
  if (!SameOutput(r, q.reference)) {
    return Fail(tag + ": resumed result differs from the uncapped twin");
  }
  if (r.durability.replayed_pair_attempts != PaidAttempts(c)) {
    return Fail(tag + ": replayed attempts != the capped run's paid attempts");
  }
}

// ----- timed phases ---------------------------------------------------------

void Bench::TimedLargeQuery() {
  const int n = static_cast<int>(queries_.size());
  first_.assign(static_cast<size_t>(n), EngineResult{});
  latency_ms_.assign(static_cast<size_t>(n), {});
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int i = k % n;
    const Query& q = queries_[static_cast<size_t>(i)];
    const Clock::time_point t0 = Clock::now();
    Result<EngineResult> run =
        crowdsky::RunSkylineQuery(*q.dataset, q.spec.options);
    latency_ms_[static_cast<size_t>(i)].push_back(MsSince(t0));
    ++attempted_;
    CheckEngine(i, run);
    if (run.ok()) {
      ++completed_;
      if (k < n) {
        first_[static_cast<size_t>(i)] = std::move(run).ValueOrDie();
      } else if (!SameOutput(run.ValueOrDie(),
                             first_[static_cast<size_t>(i)])) {
        Fail("query " + std::to_string(i) + ": not repeatable");
      }
    }
    if (Done(start, k + 1 >= n)) break;
  }
  timed_wall_s_ = MsSince(start) / 1000.0;
}

void Bench::TimedServicePacked() {
  const int batches = static_cast<int>(queries_.size()) / 3;
  first_.assign(queries_.size(), EngineResult{});
  latency_ms_.assign(static_cast<size_t>(batches), {});
  const auto level = crowdsky::obs::ObsLevel::kCounters;
  const service::ServiceOptions opts = ServiceOpts(level);
  std::vector<std::vector<service::ServiceQuery>> prepared;
  for (int b = 0; b < batches; ++b) prepared.push_back(Batch(b, level));
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int b = k % batches;
    const Clock::time_point t0 = Clock::now();
    Result<service::ServiceReport> run =
        service::RunService(prepared[static_cast<size_t>(b)], opts);
    latency_ms_[static_cast<size_t>(b)].push_back(MsSince(t0));
    attempted_ += 3;
    const int64_t failed_before = failed_;
    CheckService(b, run);
    if (run.ok()) {
      const service::ServiceReport& rep = run.ValueOrDie();
      completed_ += rep.completed;
      if (k < batches) {
        packed_cost_usd_ += rep.packing.cost_packed_usd;
        for (int j = 0; j < 3; ++j) {
          first_[static_cast<size_t>(3 * b + j)] =
              rep.queries[static_cast<size_t>(j)].result;
        }
      }
    }
    // A batch that failed any check counts its three queries as failed.
    if (failed_ > failed_before) failed_ = failed_before + 3;
    if (Done(start, k + 1 >= batches)) break;
  }
  timed_wall_s_ = MsSince(start) / 1000.0;
}

void Bench::TimedCappedResume() {
  const int n = static_cast<int>(queries_.size());
  first_.assign(static_cast<size_t>(n), EngineResult{});
  latency_ms_.assign(static_cast<size_t>(n), {});
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int i = k % n;
    const Query& q = queries_[static_cast<size_t>(i)];
    const EngineOptions capped_opts = CappedOptions(q, QueryDir(i),
                                                    kJournalOnly);
    const EngineOptions resume_opts = ResumeOptions(q, QueryDir(i),
                                                    kJournalOnly);
    const Clock::time_point t0 = Clock::now();
    Result<EngineResult> capped =
        crowdsky::RunSkylineQuery(*q.dataset, capped_opts);
    Result<EngineResult> resumed =
        crowdsky::RunSkylineQuery(*q.dataset, resume_opts);
    const Clock::time_point t2 = Clock::now();
    latency_ms_[static_cast<size_t>(i)].push_back(MsBetween(t0, t2));
    ++attempted_;
    const int64_t failed_before = failed_;
    CheckCapped(i, capped, resumed);
    if (failed_ == failed_before) {
      ++completed_;
      if (k < n) {
        first_[static_cast<size_t>(i)] = std::move(resumed).ValueOrDie();
      }
    }
    if (Done(start, k + 1 >= n)) break;
  }
  timed_wall_s_ = MsSince(start) / 1000.0;
}

// ----- traced phases --------------------------------------------------------

void Bench::EmitEngineLayers() {
  EngineSplit sum;
  for (const EngineSplit& s : splits_) {
    sum.total_ms += s.total_ms;
    sum.structure_ms += s.structure_ms;
    sum.truth_ms += s.truth_ms;
    sum.oracle_ms += s.oracle_ms;
  }
  const double calls = std::max<double>(1, static_cast<double>(splits_.size()));
  AddLayer("skyline.structure_ms", sum.structure_ms / calls);
  AddLayer("skyline.structure_share", Ratio(sum.structure_ms, sum.total_ms));
  AddLayer("skyline.truth_eval_ms", sum.truth_ms / calls);
  AddLayer("algo.driver_ms", sum.driver_ms() / calls);
  AddLayer("algo.driver_share", Ratio(sum.driver_ms(), sum.total_ms));
  AddLayer("crowd.oracle_ms", sum.oracle_ms / calls);
  AddLayer("crowd.oracle_share", Ratio(sum.oracle_ms, sum.total_ms));
  // Layer-sum check: the independently timed layers may not exceed the
  // engine total by more than the stated tolerance (the driver, timed as
  // the remainder, would otherwise come out negative).
  constexpr double kTolerance = 0.05;
  const double measured = sum.structure_ms + sum.truth_ms + sum.oracle_ms;
  std::printf("# layer_sum engine: structure+truth+oracle=%.3f ms of "
              "total=%.3f ms over %zu calls (tolerance %.0f%%)\n",
              measured, sum.total_ms, splits_.size(), kTolerance * 100);
  if (measured > sum.total_ms * (1 + kTolerance)) {
    Fail("layer times exceed the engine total beyond tolerance");
  }
}

void Bench::EmitCounters(const Counters& c) {
  AddLayer("algo.free_lookups", static_cast<double>(c.free_lookups));
  AddLayer("crowd.worker_answers", static_cast<double>(c.worker_answers));
  AddLayer("crowd.retries", static_cast<double>(c.retries));
  AddLayer("crowd.failed_attempts", static_cast<double>(c.failed_attempts));
  AddLayer("crowd.useful_attempt_ratio",
           Ratio(static_cast<double>(c.resolved),
                 static_cast<double>(c.attempts)));
}

struct PoolDelta {
  ThreadPool::StatsSnapshot before = ThreadPool::Global().stats();
  void AddTo(int64_t* tasks, int64_t* steals, int64_t* fors) const {
    const ThreadPool::StatsSnapshot after = ThreadPool::Global().stats();
    *tasks += after.tasks_executed - before.tasks_executed;
    *steals += after.steals - before.steals;
    *fors += after.parallel_fors - before.parallel_fors;
  }
};

void Bench::TracedLargeQuery() {
  const int n = static_cast<int>(queries_.size());
  double untraced_ms = 0, traced_ms = 0;
  int64_t tasks = 0, steals = 0, fors = 0;
  Counters counters;
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int i = k % n;
    const Query& q = queries_[static_cast<size_t>(i)];
    Clock::time_point t0 = Clock::now();
    (void)crowdsky::RunSkylineQuery(*q.dataset, q.spec.options);
    untraced_ms += MsSince(t0);
    EngineSplit split;
    const PoolDelta pool;
    Result<EngineResult> run = RunSplit(*q.dataset, q.spec.options, &split);
    ++attempted_;
    if (k < n) pool.AddTo(&tasks, &steals, &fors);
    traced_ms += split.total_ms;
    CheckEngine(i, run);
    if (run.ok() && k < n) counters.Add(run.ValueOrDie());
    splits_.push_back(split);
    if (Done(start, k + 1 >= n)) break;
  }
  EmitEngineLayers();
  AddLayer("common.pool_tasks", static_cast<double>(tasks));
  AddLayer("common.pool_steals", static_cast<double>(steals));
  AddLayer("common.pool_parallel_fors", static_cast<double>(fors));
  EmitCounters(counters);
  AddLayer("trace.overhead_share", Ratio(traced_ms, untraced_ms) - 1);
}

void Bench::TracedServicePacked() {
  const int batches = static_cast<int>(queries_.size()) / 3;
  using crowdsky::obs::ObsLevel;
  double untraced_ms = 0, traced_ms = 0, disabled_ms = 0, isolated_ms = 0;
  double wait_ms = 0, busy_ms = 0;
  int64_t traced_batches = 0, epochs = 0, packed_hits = 0, isolated_hits = 0;
  Counters counters;
  const service::ServiceOptions counted = ServiceOpts(ObsLevel::kCounters);
  const service::ServiceOptions plain = ServiceOpts(ObsLevel::kDisabled);
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int b = k % batches;
    // The workload's own batch, untraced and at kDisabled.
    std::vector<service::ServiceQuery> batch = Batch(b, ObsLevel::kCounters);
    Clock::time_point t0 = Clock::now();
    (void)service::RunService(batch, counted);
    untraced_ms += MsSince(t0);
    const std::vector<service::ServiceQuery> off =
        Batch(b, ObsLevel::kDisabled);
    t0 = Clock::now();
    (void)service::RunService(off, plain);
    disabled_ms += MsSince(t0);

    // Traced: every query stamps its arrivals at the epoch barrier.
    std::vector<std::vector<Clock::time_point>> arrivals(3);
    for (int j = 0; j < 3; ++j) {
      auto* mine = &arrivals[static_cast<size_t>(j)];
      mine->reserve(4096);
      batch[static_cast<size_t>(j)].options.round_callback =
          [mine](int64_t) { mine->push_back(Clock::now()); };
    }
    t0 = Clock::now();
    Result<service::ServiceReport> run = service::RunService(batch, counted);
    const double batch_ms = MsSince(t0);
    traced_ms += batch_ms;
    ++traced_batches;
    attempted_ += 3;
    CheckService(b, run);
    // An epoch closes at its last arrival; a query's wait is the close
    // time minus its own arrival, and its busy time runs from the
    // previous close to its next arrival.
    size_t max_rounds = 0;
    for (const auto& a : arrivals) max_rounds = std::max(max_rounds, a.size());
    Clock::time_point prev_close = t0;
    std::vector<Clock::time_point> released(3, t0);
    for (size_t e = 0; e < max_rounds; ++e) {
      Clock::time_point close = prev_close;
      for (const auto& a : arrivals) {
        if (e < a.size()) close = std::max(close, a[e]);
      }
      for (size_t j = 0; j < 3; ++j) {
        if (e >= arrivals[j].size()) continue;
        wait_ms += MsBetween(arrivals[j][e], close);
        busy_ms += MsBetween(released[j], arrivals[j][e]);
        released[j] = close;
      }
      prev_close = close;
    }
    // Isolated runs of the batch's queries, split into layers.
    for (int j = 0; j < 3; ++j) {
      const Query& q = queries_[static_cast<size_t>(3 * b + j)];
      EngineSplit split;
      Result<EngineResult> alone =
          RunSplit(*q.dataset, q.spec.options, &split);
      isolated_ms += split.total_ms;
      splits_.push_back(split);
      if (alone.ok() && k < batches) counters.Add(alone.ValueOrDie());
    }
    if (run.ok() && k < batches) {
      const service::PackingLedger& p = run.ValueOrDie().packing;
      epochs += p.epochs;
      packed_hits += p.packed_hits;
      isolated_hits += p.isolated_hits;
    }
    if (Done(start, k + 1 >= batches)) break;
  }
  const double nb = static_cast<double>(traced_batches);
  EmitEngineLayers();
  EmitCounters(counters);
  AddLayer("service.barrier_wait_ms", wait_ms / (3 * nb));
  AddLayer("service.barrier_wait_share", Ratio(wait_ms, 3 * traced_ms));
  AddLayer("service.isolated_ms", isolated_ms / nb);
  AddLayer("service.epochs", static_cast<double>(epochs));
  AddLayer("service.packed_hits", static_cast<double>(packed_hits));
  AddLayer("service.isolated_hits", static_cast<double>(isolated_hits));
  AddLayer("service.hit_saving_share",
           1 - Ratio(static_cast<double>(packed_hits),
                     static_cast<double>(isolated_hits)));
  AddLayer("obs.counters_ms", (untraced_ms - disabled_ms) / nb);
  AddLayer("trace.overhead_share", Ratio(traced_ms, untraced_ms) - 1);
  // What the queries' threads spent outside their own engine work and
  // outside the barrier wait: thread start, epoch closing and HIT packing.
  AddLayer("service.bookkeeping_ms", (busy_ms - isolated_ms) / (3 * nb));
  // Layer-sum check: the independently measured layers (each query's own
  // work, timed alone, and its barrier wait) may not exceed the time the
  // queries spent in the service by more than the stated tolerance.
  constexpr double kTolerance = 0.05;
  std::printf("# layer_sum service: isolated=%.3f ms + wait=%.3f ms of "
              "3 x batch total=%.3f ms (busy=%.3f ms; tolerance %.0f%%)\n",
              isolated_ms, wait_ms, 3 * traced_ms, busy_ms, kTolerance * 100);
  if (isolated_ms + wait_ms > 3 * traced_ms * (1 + kTolerance)) {
    Fail("service layer times exceed the service total beyond tolerance");
  }
}

void Bench::TracedCappedResume() {
  const int n = static_cast<int>(queries_.size());
  double untraced_ms = 0, traced_ms = 0, journal_ms = 0, twin_ms = 0;
  double checkpoint_extra_ms = 0, wind_down_ms = 0, fingerprint_ms = 0;
  std::vector<double> resume_ms;
  int64_t traced = 0, incomplete = 0, denied = 0, records = 0,
          journal_bytes = 0, checkpoint_bytes = 0, replayed = 0,
          checkpoint_samples = 0, checkpoint_resumes = 0, used_checkpoint = 0;
  double capped_f1 = 0;
  Counters counters;
  const Clock::time_point start = Clock::now();
  for (int k = 0;; ++k) {
    const int i = k % n;
    const Query& q = queries_[static_cast<size_t>(i)];
    const std::string dir = QueryDir(i);
    const EngineOptions resume_opts = ResumeOptions(q, dir, kJournalOnly);
    const bool first_pass = k < n;
    // Untraced query, exactly as timed.
    Clock::time_point t0 = Clock::now();
    (void)crowdsky::RunSkylineQuery(*q.dataset,
                                    CappedOptions(q, dir, kJournalOnly));
    (void)crowdsky::RunSkylineQuery(*q.dataset, resume_opts);
    const double pair_ms = MsSince(t0);
    untraced_ms += pair_ms;

    // Journal cost: a journaled uncapped run against its plain twin.
    t0 = Clock::now();
    (void)crowdsky::RunSkylineQuery(*q.dataset, q.spec.options);
    twin_ms += MsSince(t0);
    EngineOptions journaled = resume_opts;
    journaled.durability.resume = false;
    t0 = Clock::now();
    (void)crowdsky::RunSkylineQuery(*q.dataset, journaled);
    journal_ms += MsSince(t0);

    // Traced capped run: layer split plus the governor's wind-down tail.
    EngineOptions capped_opts = CappedOptions(q, dir, kJournalOnly);
    Clock::time_point last_round{};
    capped_opts.round_callback = [&last_round](int64_t) {
      last_round = Clock::now();
    };
    EngineSplit split;
    Result<EngineResult> capped = RunSplit(*q.dataset, capped_opts, &split);
    wind_down_ms += MsBetween(std::max(last_round, split.start), split.end);
    std::error_code ec;
    const auto jbytes = fs::file_size(crowdsky::persist::JournalPath(dir), ec);
    t0 = Clock::now();
    (void)crowdsky::RunFingerprint(*q.dataset, resume_opts);
    fingerprint_ms += MsSince(t0);
    t0 = Clock::now();
    Result<EngineResult> resumed =
        crowdsky::RunSkylineQuery(*q.dataset, resume_opts);
    resume_ms.push_back(MsSince(t0));
    traced_ms += split.total_ms + resume_ms.back();
    splits_.push_back(split);
    CheckCapped(i, capped, resumed);

    // The same query at the engine's default checkpoint cadence, on half
    // the set (every other repetition of each rotation cell), which keeps
    // a traced run's one pass short.
    if ((i / w_.period) % 2 == 0) {
      t0 = Clock::now();
      Result<EngineResult> ckpt_capped = crowdsky::RunSkylineQuery(
          *q.dataset, CappedOptions(q, dir, kDefaultCadence));
      const auto cbytes =
          fs::file_size(crowdsky::persist::CheckpointPath(dir), ec);
      Result<EngineResult> ckpt_resumed = crowdsky::RunSkylineQuery(
          *q.dataset, ResumeOptions(q, dir, kDefaultCadence));
      checkpoint_extra_ms += MsSince(t0) - pair_ms;
      ++checkpoint_samples;
      ++attempted_;
      CheckCapped(i, ckpt_capped, ckpt_resumed);
      if (first_pass && ckpt_resumed.ok()) {
        ++checkpoint_resumes;
        checkpoint_bytes += ec ? 0 : static_cast<int64_t>(cbytes);
        used_checkpoint +=
            ckpt_resumed.ValueOrDie().durability.used_checkpoint ? 1 : 0;
      }
    }
    ++traced;
    ++attempted_;

    if (first_pass && capped.ok() && resumed.ok()) {
      const EngineResult& c = capped.ValueOrDie();
      const EngineResult& r = resumed.ValueOrDie();
      counters.Add(r);
      incomplete += c.algo.incomplete_tuples;
      denied += c.algo.termination.denied_questions;
      capped_f1 += c.accuracy.f1;
      records += c.durability.journal_records;
      journal_bytes += static_cast<int64_t>(jbytes);
      replayed += r.durability.replayed_pair_attempts;
    }
    if (Done(start, k + 1 >= n)) break;
  }
  const double nq = static_cast<double>(traced);
  EmitEngineLayers();
  EmitCounters(counters);
  AddLayer("governor.incomplete_tuples", static_cast<double>(incomplete));
  AddLayer("governor.denied_questions", static_cast<double>(denied));
  AddLayer("governor.wind_down_ms", wind_down_ms / nq);
  AddLayer("governor.capped_skyline_f1", capped_f1 / n);
  AddLayer("persist.journal_ms", (journal_ms - twin_ms) / nq);
  AddLayer("persist.checkpoint_ms",
           Ratio(checkpoint_extra_ms, static_cast<double>(checkpoint_samples)));
  AddLayer("persist.journal_records", static_cast<double>(records));
  AddLayer("persist.journal_bytes", static_cast<double>(journal_bytes));
  AddLayer("persist.checkpoint_bytes", static_cast<double>(checkpoint_bytes));
  AddLayer("persist.replayed_attempts", static_cast<double>(replayed));
  AddLayer("persist.checkpoint_used_share",
           Ratio(static_cast<double>(used_checkpoint),
                 static_cast<double>(checkpoint_resumes)));
  AddLayer("persist.resume_ms_p50", Median(resume_ms));
  AddLayer("core.fingerprint_ms", fingerprint_ms / nq);
  AddLayer("trace.overhead_share", Ratio(traced_ms, untraced_ms) - 1);
}

// ----- driver ---------------------------------------------------------------

int Bench::Main() {
  const Clock::time_point process_start = Clock::now();
  work_dir_ = args_.work_dir + "/" + args_.workload + "_" +
              std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  fs::create_directories(work_dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir_.c_str(),
                 ec.message().c_str());
    return 1;
  }
  ThreadPool::SetGlobalThreads(w_.pool_threads);

  // Setup, several times; the median is setup_s. The first repetition
  // counts from process start.
  constexpr int kSetupRepeats = 3;
  std::vector<double> setup_s;
  std::vector<double> generate_ms, csv_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_s.push_back(Setup(r == 0 ? process_start : Clock::now()));
    generate_ms.push_back(generate_ms_);
    csv_ms.push_back(csv_ms_);
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0, args_.smoke ? 1 : 0);
  std::printf("# nproc=%d avx2=%d kernel=%s pool_threads=%d compiler=\"%s\" "
              "build_type=%s\n",
              Nproc(), crowdsky::CpuSupportsAvx2() ? 1 : 0,
              crowdsky::KernelBackendName(crowdsky::SelectedKernelBackend()),
              ThreadPool::Global().num_threads(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("# queries=%zu n=[%d,%d] setup_repeats=%d\n", queries_.size(),
              w_.n_lo, w_.n_hi, kSetupRepeats);

  std::vector<Metric> metrics;
  if (!args_.trace) {
    switch (w_.kind) {
      case Kind::kLargeQuery: TimedLargeQuery(); break;
      case Kind::kServicePacked: TimedServicePacked(); break;
      case Kind::kCappedResume: TimedCappedResume(); break;
    }
    const double rss = PeakRssMb();
    std::vector<double> per_item;
    size_t measurements = 0;
    for (const std::vector<double>& v : latency_ms_) {
      per_item.push_back(Median(v));
      measurements += v.size();
    }
    double questions = 0, rounds = 0, cost = 0, f1 = 0;
    for (const EngineResult& r : first_) {
      questions += static_cast<double>(r.algo.questions);
      rounds += static_cast<double>(r.algo.rounds);
      cost += r.cost_usd;
      f1 += r.accuracy.f1;
    }
    if (w_.kind == Kind::kServicePacked) cost = packed_cost_usd_;
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"queries_per_s", Ratio(static_cast<double>(completed_), timed_wall_s_),
         "1/s"},
        {"query_ms_p50", Percentile(per_item, 0.5), "ms"},
        {"query_ms_p90", Percentile(per_item, 0.9), "ms"},
        {"questions", questions, "count"},
        {"crowd_rounds", rounds, "count"},
        {"cost_usd", cost, "usd"},
        {"skyline_f1", f1 / static_cast<double>(first_.size()), "ratio"},
        {"peak_rss_mb", rss, "MB"},
    };
    std::printf("# samples query_ms_p50/p90: %zu %s (median of each over "
                "%zu timed runs) timed_wall_s=%.3f\n",
                per_item.size(),
                w_.kind == Kind::kServicePacked ? "batches" : "queries",
                measurements, timed_wall_s_);
    std::printf("# setup_s repeats:");
    for (const double s : setup_s) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    switch (w_.kind) {
      case Kind::kLargeQuery: TracedLargeQuery(); break;
      case Kind::kServicePacked: TracedServicePacked(); break;
      case Kind::kCappedResume: TracedCappedResume(); break;
    }
    metrics.push_back({"data.generate_ms", Median(generate_ms), "ms"});
    metrics.push_back({"data.csv_roundtrip_ms", Median(csv_ms), "ms"});
    // Every workload reports every layer; layers it does not exercise
    // read 0.
    for (const auto& [name, unit] : PerLayerCatalog()) {
      const auto it = layers_.find(name);
      metrics.push_back({name, it == layers_.end() ? 0.0 : it->second, unit});
      if (it != layers_.end()) layers_.erase(it);
    }
    if (!layers_.empty()) {
      std::fprintf(stderr, "layer %s is missing from the catalog\n",
                   layers_.begin()->first.c_str());
      return 1;
    }
  }

  // Diagnostics of the machine's phase, after the peak RSS was read.
  const double cpu_ms = CpuProbeMs();
  const double mem_ms = MemProbeMs();
  std::printf("# probe cpu_ms=%.3f mem_ms=%.3f\n", cpu_ms, mem_ms);
  if (args_.trace) {
    metrics.push_back({"probe.cpu_ms", cpu_ms, "ms"});
    metrics.push_back({"probe.mem_ms", mem_ms, "ms"});
  }

  fs::remove_all(work_dir_, ec);

  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload = MakeWorkload(args);
  Bench bench(args, workload);
  return bench.Main();
}
