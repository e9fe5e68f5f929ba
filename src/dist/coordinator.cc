#include "dist/coordinator.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/evaluator.h"
#include "audit/shard_audit.h"
#include "common/macros.h"
#include "common/random.h"
#include "core/engine.h"
#include "data/csv.h"
#include "dist/partition.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "persist/journal.h"
#include "persist/recovery.h"

namespace crowdsky::dist {
namespace {

std::string ShardDir(const std::string& run_dir, int shard) {
  return run_dir + "/shard_" + std::to_string(shard);
}

/// What a permanently dead shard's journal proves it paid for: the cost of
/// every closed round plus, when paid answers follow the last round
/// boundary, the open tail counted as one more round. Zero when the shard
/// died before journaling anything.
double JournaledCost(const std::string& shard_dir,
                     const AmtCostModel& pricing) {
  Result<persist::RecoveredJournal> recovered =
      persist::ReadJournal(persist::JournalPath(shard_dir));
  if (!recovered.ok()) return 0.0;
  std::vector<int64_t> rounds;
  int64_t open_tail = 0;
  for (const persist::JournalRecord& record :
       recovered.ValueOrDie().records) {
    switch (record.kind) {
      case persist::JournalRecord::Kind::kPairAsk:
        open_tail += static_cast<int64_t>(record.attempts.size());
        break;
      case persist::JournalRecord::Kind::kUnary:
        ++open_tail;
        break;
      case persist::JournalRecord::Kind::kRoundEnd:
        rounds.push_back(record.round_questions);
        open_tail = 0;
        break;
      case persist::JournalRecord::Kind::kTermination:
        break;
    }
  }
  if (open_tail > 0) rounds.push_back(open_tail);
  return pricing.Cost(rounds);
}

Status ValidateOptions(const Dataset& dataset, const DistOptions& options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.shards > dataset.size()) {
    return Status::InvalidArgument(
        "more shards than tuples: every shard needs a non-empty slice");
  }
  if (options.run_dir.empty()) {
    return Status::InvalidArgument("dist run_dir is required");
  }
  const Algorithm algo = options.engine.algorithm;
  if (algo != Algorithm::kCrowdSkySerial &&
      algo != Algorithm::kParallelDSet && algo != Algorithm::kParallelSL) {
    return Status::InvalidArgument(
        "sharded execution supports the CrowdSky-family algorithms only "
        "(the merge needs their best-effort/candidate semantics)");
  }
  if (!options.engine.durability.dir.empty()) {
    return Status::InvalidArgument(
        "engine.durability.dir is owned by the coordinator (per-shard "
        "directories under run_dir); leave it empty");
  }
  if (!options.engine.imported_answers.empty() ||
      options.engine.round_callback || options.engine.export_answers) {
    return Status::InvalidArgument(
        "engine.imported_answers / round_callback / export_answers are "
        "owned by the coordinator; leave them unset");
  }
  if (options.engine.wrap_oracle) {
    return Status::InvalidArgument(
        "engine.wrap_oracle does not cross the shard process boundary; "
        "leave it unset");
  }
  if (options.engine.governor.deadline_seconds > 0 ||
      options.engine.governor.cancel != nullptr) {
    return Status::InvalidArgument(
        "wall-clock deadlines and cancellation tokens do not cross the "
        "shard process boundary; use the supervisor's timeouts instead");
  }
  if (options.engine.crowdsky.known_crowd_values != nullptr) {
    return Status::InvalidArgument(
        "known_crowd_values does not serialize across the shard boundary");
  }
  if (options.engine.obs.level != obs::ObsLevel::kDisabled) {
    return Status::InvalidArgument(
        "per-shard observability is not plumbed through the shard "
        "protocol yet; run with obs disabled");
  }
  for (const ShardFaultInjection& fault : options.faults) {
    if (fault.shard < 0 || fault.shard >= options.shards) {
      return Status::InvalidArgument(
          "fault injection references shard " +
          std::to_string(fault.shard) + " of " +
          std::to_string(options.shards));
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t ShardSeed(uint64_t base_seed, int shard) {
  uint64_t state = base_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<uint64_t>(shard) + 1));
  return SplitMix64(&state);
}

Result<DistResult> RunShardedSkylineQuery(const Dataset& dataset,
                                          const DistOptions& options) {
  CROWDSKY_RETURN_NOT_OK(ValidateOptions(dataset, options));
  const int k = options.shards;

  std::error_code ec;
  std::filesystem::create_directories(options.run_dir, ec);
  if (ec) {
    return Status::IOError("cannot create run_dir '" + options.run_dir +
                           "': " + ec.message());
  }
  const std::string dataset_csv = options.run_dir + "/dataset.csv";
  if (!options.resume || !std::filesystem::exists(dataset_csv)) {
    CROWDSKY_RETURN_NOT_OK(WriteCsvFile(dataset, dataset_csv));
  }

  // Effective pricing (omega folded in), shared by every ledger below.
  AmtCostModel pricing = options.engine.cost_model;
  pricing.workers_per_question = options.engine.workers_per_question;

  // --- Launch & supervise the shard fleet --------------------------------
  std::vector<ShardLaunch> launches(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const std::string shard_dir = ShardDir(options.run_dir, i);
    std::filesystem::create_directories(shard_dir, ec);
    if (ec) {
      return Status::IOError("cannot create shard dir '" + shard_dir +
                             "': " + ec.message());
    }
    ShardSpec& spec = launches[static_cast<size_t>(i)].spec;
    spec.shard = i;
    spec.shards = k;
    spec.partition = options.partition;
    spec.dataset_csv = dataset_csv;
    spec.shard_dir = shard_dir;
    spec.engine = options.engine;
    spec.engine.seed = ShardSeed(options.engine.seed, i);
    spec.engine.durability.dir = shard_dir;
    spec.engine.durability.resume =
        options.resume &&
        std::filesystem::exists(persist::JournalPath(shard_dir));
    if (options.engine.governor.max_cost_usd > 0) {
      // Even dollar slices; what the shards leave unspent funds the merge.
      spec.engine.governor.max_cost_usd =
          options.engine.governor.max_cost_usd / k;
    }
    launches[static_cast<size_t>(i)].faults = options.faults;
  }
  std::string shard_exe = options.shard_exe;
  if (shard_exe.empty()) shard_exe = "/proc/self/exe";
  ShardSupervisor supervisor(options.supervisor, shard_exe);
  std::vector<ShardOutcome> outcomes;
  CROWDSKY_ASSIGN_OR_RETURN(outcomes, supervisor.Run(launches));

  // --- Collect shard results ---------------------------------------------
  DistResult result;
  result.shards.resize(static_cast<size_t>(k));
  std::vector<ShardResult> shard_results(static_cast<size_t>(k));
  int64_t max_shard_rounds = 0;
  for (int i = 0; i < k; ++i) {
    const size_t si = static_cast<size_t>(i);
    const std::string shard_dir = ShardDir(options.run_dir, i);
    ShardReport& report = result.shards[si];
    report.shard = i;
    report.restarts = outcomes[si].restarts;
    report.straggler = outcomes[si].straggler;
    report.tuple_ids =
        ShardTupleIds(dataset.size(), k, i, options.partition);
    result.restarts_total += outcomes[si].restarts;
    result.stragglers += outcomes[si].straggler ? 1 : 0;
    if (!outcomes[si].completed) {
      report.state = ShardReport::State::kDead;
      report.termination_reason = "dead";
      report.cost_lost_usd = JournaledCost(shard_dir, pricing);
      result.cost_lost_usd += report.cost_lost_usd;
      ++result.shards_dead;
      continue;
    }
    Result<std::string> text =
        ReadFileToString(shard_dir + "/result.txt");
    if (!text.ok()) return text.status();
    Result<ShardResult> parsed = DecodeShardResult(text.ValueOrDie());
    if (!parsed.ok()) return parsed.status();
    ShardResult& shard = shard_results[si];
    shard = std::move(parsed).ValueOrDie();
    if (!shard.ok) {
      // Not a crash: the shard ran and reported a configuration/engine
      // error. That poisons the whole run.
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) + " failed: " + shard.error);
    }
    report.state = ShardReport::State::kCompleted;
    report.candidates = shard.skyline;
    report.undetermined = shard.undetermined;
    report.questions = shard.questions;
    report.rounds = shard.rounds;
    report.questions_per_round = shard.questions_per_round;
    report.cost_usd = shard.cost_usd;
    report.replayed_pair_attempts = shard.replayed_pair_attempts;
    report.journal_records = shard.journal_records;
    report.resumed = shard.resumed;
    report.termination_reason = shard.termination_reason;
    result.total_questions += shard.questions;
    result.total_cost_usd += shard.cost_usd;
    max_shard_rounds = std::max(max_shard_rounds, shard.rounds);
  }
  result.total_cost_usd += result.cost_lost_usd;
  if (result.shards_dead == k) {
    return Status::FailedPrecondition(
        "every shard died; nothing to merge (see the shard journals under " +
        options.run_dir + ")");
  }

  // --- Bounded-round merge ------------------------------------------------
  std::vector<int> candidates;
  for (const ShardReport& report : result.shards) {
    candidates.insert(candidates.end(), report.candidates.begin(),
                      report.candidates.end());
  }
  std::sort(candidates.begin(), candidates.end());

  std::vector<int> merged_skyline;          // global ids
  std::vector<int> merge_undetermined;      // global ids
  std::vector<int64_t> merge_qpr;
  bool merge_budget_exhausted = false;
  bool merge_retries_exhausted = false;
  int64_t merge_resolved = 0;
  int64_t merge_unresolved = 0;
  if (k == 1) {
    // One shard's local skyline is the global skyline; no merge round.
    merged_skyline = candidates;
    merge_undetermined = result.shards[0].undetermined;
    merge_budget_exhausted = shard_results[0].budget_exhausted;
    merge_retries_exhausted = shard_results[0].retries_exhausted;
  } else {
    const Dataset merge_dataset = dataset.Project(candidates);
    // Global -> merge-local: position within the sorted candidate union.
    std::unordered_map<int, int> to_local;
    to_local.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      to_local[candidates[i]] = static_cast<int>(i);
    }
    EngineOptions merge_options = options.engine;
    merge_options.seed = ShardSeed(options.engine.seed, k);
    for (size_t si = 0; si < static_cast<size_t>(k); ++si) {
      for (const ImportedAnswer& a : shard_results[si].answers) {
        merge_options.imported_answers.push_back(ImportedAnswer{
            a.attr, to_local.at(a.u), to_local.at(a.v), a.answer});
      }
    }
    std::sort(merge_options.imported_answers.begin(),
              merge_options.imported_answers.end(),
              [](const ImportedAnswer& a, const ImportedAnswer& b) {
                if (a.attr != b.attr) return a.attr < b.attr;
                if (a.u != b.u) return a.u < b.u;
                return a.v < b.v;
              });
    const std::string merge_dir = options.run_dir + "/merge";
    merge_options.durability.dir = merge_dir;
    merge_options.durability.resume =
        options.resume &&
        std::filesystem::exists(persist::JournalPath(merge_dir));
    if (options.engine.governor.max_cost_usd > 0) {
      // The merge runs on whatever the cap has left. A fully spent cap
      // still needs a nonzero value here: 0 would mean "uncapped".
      const double remaining =
          options.engine.governor.max_cost_usd - result.total_cost_usd;
      merge_options.governor.max_cost_usd =
          std::max(remaining, pricing.reward_per_hit * 1e-6);
    }
    Result<EngineResult> merge_run =
        RunSkylineQuery(merge_dataset, merge_options);
    if (!merge_run.ok()) return merge_run.status();
    const EngineResult& merge = merge_run.ValueOrDie();
    for (const int local : merge.algo.skyline) {
      merged_skyline.push_back(candidates[static_cast<size_t>(local)]);
    }
    for (const int local : merge.algo.completeness.undetermined_tuples) {
      merge_undetermined.push_back(candidates[static_cast<size_t>(local)]);
    }
    merge_qpr = merge.algo.questions_per_round;
    merge_budget_exhausted = merge.algo.completeness.budget_exhausted;
    merge_retries_exhausted = merge.algo.completeness.retries_exhausted;
    merge_resolved = merge.algo.completeness.resolved_questions;
    merge_unresolved = merge.algo.completeness.unresolved_questions;
    result.merge.ran = true;
    result.merge.candidates = static_cast<int64_t>(candidates.size());
    result.merge.imported_answers =
        static_cast<int64_t>(merge_options.imported_answers.size());
    result.merge.questions = merge.algo.questions;
    result.merge.rounds = merge.algo.rounds;
    result.merge.cost_usd = merge.cost_usd;
    result.merge.resumed = merge.durability.resumed;
    result.total_questions += merge.algo.questions;
    result.total_cost_usd += merge.cost_usd;
  }

  // --- Aggregate result ---------------------------------------------------
  result.skyline = merged_skyline;
  result.rounds = max_shard_rounds + result.merge.rounds;
  result.skyline_labels.reserve(result.skyline.size());
  for (const int id : result.skyline) {
    result.skyline_labels.push_back(dataset.tuple(id).label);
  }

  CompletenessReport& completeness = result.completeness;
  completeness.undetermined_tuples = merge_undetermined;
  for (const ShardReport& report : result.shards) {
    if (report.state == ShardReport::State::kDead) {
      completeness.undetermined_tuples.insert(
          completeness.undetermined_tuples.end(), report.tuple_ids.begin(),
          report.tuple_ids.end());
    }
  }
  std::sort(completeness.undetermined_tuples.begin(),
            completeness.undetermined_tuples.end());
  completeness.complete = completeness.undetermined_tuples.empty() &&
                          result.shards_dead == 0;
  completeness.determined_tuples =
      dataset.size() -
      static_cast<int64_t>(completeness.undetermined_tuples.size());
  completeness.budget_exhausted = merge_budget_exhausted;
  completeness.retries_exhausted = merge_retries_exhausted;
  completeness.resolved_questions = merge_resolved;
  completeness.unresolved_questions = merge_unresolved;
  for (size_t si = 0; si < static_cast<size_t>(k); ++si) {
    completeness.resolved_questions += shard_results[si].resolved_questions;
    completeness.unresolved_questions +=
        shard_results[si].unresolved_questions;
    completeness.budget_exhausted |= shard_results[si].budget_exhausted;
    completeness.retries_exhausted |= shard_results[si].retries_exhausted;
  }
  result.accuracy = EvaluateNewSkylineAccuracy(dataset, result.skyline);

  // --- shard.* audit -------------------------------------------------------
  if (options.engine.crowdsky.audit) {
    audit::ShardMergeSnapshot snapshot;
    snapshot.num_tuples = dataset.size();
    for (const ShardReport& report : result.shards) {
      audit::ShardMergeSnapshot::Shard shard;
      shard.dead = report.state == ShardReport::State::kDead;
      shard.tuple_ids = report.tuple_ids;
      shard.candidates = report.candidates;
      shard.questions_per_round = report.questions_per_round;
      shard.questions = report.questions;
      shard.cost_usd = report.cost_usd;
      shard.cost_lost_usd = report.cost_lost_usd;
      snapshot.shards.push_back(std::move(shard));
    }
    snapshot.merged_skyline = result.skyline;
    snapshot.merge_questions_per_round = merge_qpr;
    snapshot.merge_questions = result.merge.questions;
    snapshot.merge_cost_usd = result.merge.cost_usd;
    snapshot.total_questions = result.total_questions;
    snapshot.total_cost_usd = result.total_cost_usd;
    snapshot.cost_cap_usd = options.engine.governor.max_cost_usd;
    snapshot.cost_model = pricing;
    snapshot.undetermined = completeness.undetermined_tuples;
    snapshot.complete = completeness.complete;
    audit::AuditReport report;
    audit::AuditShardMerge(snapshot, &report);
    CROWDSKY_CHECK_MSG(report.ok(), report.ToString().c_str());
  }
  return result;
}

}  // namespace crowdsky::dist
