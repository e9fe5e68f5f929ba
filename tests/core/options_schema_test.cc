// The options field list (core/options_schema.h) is the only place a
// shipped or fingerprinted EngineOptions field is named. These tests pin
// what the list produces (fingerprints and shard file bytes recorded from
// the hand-written lists it replaced, so journals and shard files stay
// compatible), check that every field is classified correctly, and fail
// when an options struct grows a field the list does not account for.
#include "core/options_schema.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "core/engine.h"
#include "dist/wire.h"

namespace crowdsky {
namespace {

// Six tuples over K1,K2 | C1,C2, with a tie on K1 and one on C2.
Dataset GoldenDataset() {
  return Dataset::Make(Schema::MakeSynthetic(2, 2),
                       {{1.0, 9.0, 0.5, 3.0},
                        {2.0, 8.0, 0.25, 3.0},
                        {2.0, 7.5, 1.75, -1.0},
                        {4.5, 1.0, 0.125, 6.0},
                        {5.0, 0.0, 2.0, 2.5},
                        {6.25, 3.5, -0.5, 4.0}})
      .ValueOrDie();
}

const std::vector<DynamicBitset>& GoldenMasks() {
  static const std::vector<DynamicBitset> masks = [] {
    std::vector<DynamicBitset> m(2, DynamicBitset(6));
    m[0].Set(0);
    m[0].Set(3);
    m[1].Set(1);
    m[1].Set(4);
    m[1].Set(5);
    return m;
  }();
  return masks;
}

EngineOptions MarketplaceWithFaults() {
  EngineOptions o;
  o.algorithm = Algorithm::kParallelDSet;
  o.oracle = OracleKind::kMarketplace;
  o.marketplace.pool_size = 60;
  o.marketplace.population.p_correct = 0.85;
  o.marketplace.population.p_stddev = 0.05;
  o.marketplace.population.spammer_fraction = 0.1;
  o.marketplace.population.unary_sigma = 0.25;
  o.marketplace.gold_questions = 4;
  o.marketplace.qualification_threshold = 0.75;
  o.marketplace.weighted_votes = true;
  o.marketplace.faults.transient_error_rate = 0.08;
  o.marketplace.faults.hit_expiration_rate = 0.04;
  o.marketplace.faults.hit_expiration_rounds = 3;
  o.marketplace.faults.worker_no_show_rate = 0.1;
  o.marketplace.faults.straggler_rate = 0.05;
  o.marketplace.faults.straggler_delay_rounds = 2;
  o.marketplace.seed = 7;
  o.retry.max_retries = 5;
  o.retry.backoff_base_rounds = 2;
  o.retry.max_backoff_rounds = 16;
  return o;
}

EngineOptions WithPruning(PruningConfig pruning) {
  EngineOptions o;
  o.algorithm = Algorithm::kCrowdSkySerial;
  o.crowdsky.pruning = pruning;
  return o;
}

EngineOptions WorkersAndVoting() {
  EngineOptions o;
  o.algorithm = Algorithm::kBaselineSort;
  o.oracle = OracleKind::kPerfect;
  o.worker.p_correct = 0.7;
  o.worker.p_stddev = 0.1;
  o.worker.spammer_fraction = 0.05;
  o.worker.unary_sigma = 0.2;
  o.workers_per_question = 7;
  o.dynamic_voting = true;
  o.seed = 0xfeedbeefcafeULL;
  o.max_questions = 99;
  o.crowdsky.contradiction_policy = ContradictionPolicy::kFail;
  o.crowdsky.multi_attr = MultiAttributeStrategy::kRoundRobin;
  return o;
}

EngineOptions WithImports() {
  EngineOptions o;
  o.imported_answers = {{0, 0, 3, Answer::kFirstPreferred},
                        {1, 2, 5, Answer::kSecondPreferred},
                        {1, 1, 4, Answer::kEqual}};
  return o;
}

EngineOptions WithKnownMasks() {
  EngineOptions o;
  o.algorithm = Algorithm::kParallelDSet;
  o.crowdsky.known_crowd_values = &GoldenMasks();
  return o;
}

struct GoldenCase {
  const char* name;
  EngineOptions options;
};

std::vector<GoldenCase> GoldenCases() {
  return {{"defaults", EngineOptions{}},
          {"marketplace_faults", MarketplaceWithFaults()},
          {"pruning_dset_exhaustive",
           WithPruning(PruningConfig::DSetExhaustive())},
          {"pruning_dset_only", WithPruning(PruningConfig::DSetOnly())},
          {"pruning_p1", WithPruning(PruningConfig::P1())},
          {"pruning_p1p2", WithPruning(PruningConfig::P1P2())},
          {"pruning_all", WithPruning(PruningConfig::All())},
          {"workers_and_voting", WorkersAndVoting()},
          {"imports", WithImports()},
          {"known_masks", WithKnownMasks()}};
}

// Every shipped field away from its default; the engine options reuse
// the marketplace case and add the policy fields.
dist::ShardSpec FullSpec() {
  dist::ShardSpec spec;
  spec.shard = 3;
  spec.shards = 8;
  spec.generation = 2;
  spec.partition = dist::PartitionScheme::kHash;
  spec.dataset_csv = "run/dataset.csv";
  spec.shard_dir = "run/shard_3";
  spec.heartbeat_fd = 17;
  EngineOptions& e = spec.engine;
  e = MarketplaceWithFaults();
  e.worker.p_correct = 0.8125;
  e.worker.p_stddev = 0.03125;
  e.worker.spammer_fraction = 0.01;
  e.worker.unary_sigma = 0.4;
  e.workers_per_question = 7;
  e.dynamic_voting = true;
  e.seed = 0xfeedbeefcafeULL;
  e.max_questions = 321;
  e.cost_model.reward_per_hit = 0.04;
  e.cost_model.workers_per_question = 7;
  e.cost_model.questions_per_hit = 4;
  e.governor.max_rounds = 11;
  e.governor.max_cost_usd = 1.5;
  e.governor.stall_rounds = 6;
  e.durability.resume = true;
  e.durability.sync = persist::SyncMode::kFsync;
  e.crowdsky.pruning = PruningConfig::P1();
  e.crowdsky.contradiction_policy = ContradictionPolicy::kFail;
  e.crowdsky.multi_attr = MultiAttributeStrategy::kRoundRobin;
  e.crowdsky.audit = true;
  spec.kill_at_round = 4;
  spec.kill_at_record = 9;
  spec.tear_bytes = 13;
  spec.hang_at_start = true;
  spec.hang_at_round = 6;
  spec.slow_start_ms = 250;
  return spec;
}

dist::ShardResult FullResult() {
  dist::ShardResult r;
  r.ok = true;
  r.skyline = {0, 4, 9};
  r.undetermined = {4};
  r.questions = 42;
  r.rounds = 7;
  r.questions_per_round = {10, 10, 10, 5, 3, 2, 2};
  r.free_lookups = 12;
  r.retries = 1;
  r.cost_usd = 0.34;
  r.incomplete_tuples = 1;
  r.resolved_questions = 41;
  r.unresolved_questions = 1;
  r.budget_exhausted = true;
  r.retries_exhausted = true;
  r.resumed = true;
  r.replayed_pair_attempts = 17;
  r.journal_records = 60;
  r.termination_reason = "dollar_cap";
  r.answers = {{0, 0, 4, Answer::kFirstPreferred},
               {1, 4, 9, Answer::kSecondPreferred}};
  return r;
}

// Recorded from the hand-written fingerprint this list replaced. A value
// that moves orphans every journal written before the change.
TEST(OptionsSchemaTest, FingerprintsMatchPinnedValues) {
  const std::vector<std::pair<const char*, uint64_t>> pinned = {
      {"defaults", 0x02bb47508da42e58ULL},
      {"marketplace_faults", 0x89c6a76faa7d1cfeULL},
      {"pruning_dset_exhaustive", 0xae30b3db19481c4dULL},
      {"pruning_dset_only", 0x9e571adcff9cd5a7ULL},
      {"pruning_p1", 0xdbe017e62fd184a3ULL},
      {"pruning_p1p2", 0x7753b9a69775fb6aULL},
      {"pruning_all", 0x73e412fcdaa74764ULL},
      {"workers_and_voting", 0x669f7ccf2757a826ULL},
      {"imports", 0x8b020da3038d9d5fULL},
      {"known_masks", 0xd136c4f359d337e3ULL},
  };
  const Dataset data = GoldenDataset();
  const std::vector<GoldenCase> cases = GoldenCases();
  ASSERT_EQ(cases.size(), pinned.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_STREQ(cases[i].name, pinned[i].first);
    EXPECT_EQ(RunFingerprint(data, cases[i].options), pinned[i].second)
        << cases[i].name;
  }
}

// Recorded from the hand-written codec this list replaced.
TEST(OptionsSchemaTest, ShardFilesMatchPinnedBytes) {
  const std::string spec = R"(format=crowdsky-shard-spec-v1
shard=3
shards=8
generation=2
partition=hash
dataset_csv=run/dataset.csv
shard_dir=run/shard_3
heartbeat_fd=17
algorithm=ParallelDSet
oracle=2
worker.p_correct=0.8125
worker.p_stddev=0.03125
worker.spammer_fraction=0.01
worker.unary_sigma=0.40000000000000002
workers_per_question=7
dynamic_voting=1
seed=280297064090366
max_questions=321
market.pool_size=60
market.p_correct=0.84999999999999998
market.p_stddev=0.050000000000000003
market.spammer_fraction=0.10000000000000001
market.unary_sigma=0.25
market.gold_questions=4
market.qualification_threshold=0.75
market.weighted_votes=1
faults.transient_error_rate=0.080000000000000002
faults.hit_expiration_rate=0.040000000000000001
faults.hit_expiration_rounds=3
faults.worker_no_show_rate=0.10000000000000001
faults.straggler_rate=0.050000000000000003
faults.straggler_delay_rounds=2
market.seed=7
retry.max_retries=5
retry.backoff_base_rounds=2
retry.max_backoff_rounds=16
cost.reward_per_hit=0.040000000000000001
cost.workers_per_question=7
cost.questions_per_hit=4
governor.max_rounds=11
governor.max_cost_usd=1.5
governor.stall_rounds=6
durability.resume=1
durability.sync=2
pruning.use_p1=1
pruning.use_p2=0
pruning.use_p3=0
pruning.use_completion_break=1
pruning.use_transitivity=0
contradiction_policy=1
multi_attr=1
audit=1
fault.kill_at_round=4
fault.kill_at_record=9
fault.tear_bytes=13
fault.hang_at_start=1
fault.hang_at_round=6
fault.slow_start_ms=250
)";
  const std::string result = R"(format=crowdsky-shard-result-v1
ok=1
skyline=0,4,9
undetermined=4
questions=42
rounds=7
questions_per_round=10,10,10,5,3,2,2
free_lookups=12
retries=1
cost_usd=0.34000000000000002
incomplete_tuples=1
resolved_questions=41
unresolved_questions=1
budget_exhausted=1
retries_exhausted=1
resumed=1
replayed_pair_attempts=17
journal_records=60
termination=dollar_cap
answers=0:0:4:0;1:4:9:1
)";
  EXPECT_EQ(dist::EncodeShardSpec(FullSpec()), spec);
  EXPECT_EQ(dist::EncodeShardResult(FullResult()), result);
  const Result<dist::ShardSpec> decoded_spec = dist::DecodeShardSpec(spec);
  ASSERT_TRUE(decoded_spec.ok()) << decoded_spec.status().ToString();
  EXPECT_EQ(dist::EncodeShardSpec(*decoded_spec), spec);
  const Result<dist::ShardResult> decoded_result =
      dist::DecodeShardResult(result);
  ASSERT_TRUE(decoded_result.ok()) << decoded_result.status().ToString();
  EXPECT_EQ(dist::EncodeShardResult(*decoded_result), result);
}

// --- per-field properties ---------------------------------------------------

/// Every listed field as raw bits (doubles by bit pattern), in list order.
std::vector<uint64_t> FieldBits(const EngineOptions& o) {
  std::vector<uint64_t> bits;
  VisitEngineOptions(o, [&bits](const char*, const auto& v, OptionClass) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_floating_point_v<T>) {
      uint64_t b = 0;
      std::memcpy(&b, &v, sizeof b);
      bits.push_back(b);
    } else {
      bits.push_back(static_cast<uint64_t>(v));
    }
  });
  return bits;
}

std::vector<OptionClass> FieldClasses() {
  std::vector<OptionClass> classes;
  EngineOptions o;
  VisitEngineOptions(o, [&classes](const char*, const auto&, OptionClass c) {
    classes.push_back(c);
  });
  return classes;
}

/// A copy of `base` with only the index-th listed field moved to another
/// valid value.
EngineOptions WithFieldChanged(const EngineOptions& base, size_t index) {
  EngineOptions o = base;
  size_t i = 0;
  VisitEngineOptions(o, [&](const char*, auto& v, OptionClass) {
    using T = std::decay_t<decltype(v)>;
    if (i++ != index) return;
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_same_v<T, Algorithm>) {
      v = v == Algorithm::kUnary ? Algorithm::kBitonicSort
                                 : Algorithm::kUnary;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>((static_cast<int>(v) + 1) % EnumeratorCount(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      v = v * 0.5 + 0.0625;
    } else {
      v = v + 3;
    }
  });
  return o;
}

TEST(OptionsSchemaTest, OnlyStreamFieldsMoveTheFingerprint) {
  const Dataset data = GoldenDataset();
  const EngineOptions base;
  const uint64_t base_fp = RunFingerprint(data, base);
  const std::vector<OptionClass> classes = FieldClasses();
  std::vector<const char*> names;
  VisitEngineOptions(base, [&names](const char* name, const auto&,
                                    OptionClass) { names.push_back(name); });
  for (size_t i = 0; i < classes.size(); ++i) {
    const EngineOptions changed = WithFieldChanged(base, i);
    ASSERT_NE(FieldBits(changed), FieldBits(base)) << names[i];
    if (classes[i] == OptionClass::kStream) {
      EXPECT_NE(RunFingerprint(data, changed), base_fp) << names[i];
    } else {
      EXPECT_EQ(RunFingerprint(data, changed), base_fp) << names[i];
    }
  }
}

TEST(OptionsSchemaTest, EveryListedFieldRoundTripsThroughTheShardSpec) {
  const size_t fields = FieldClasses().size();
  for (const EngineOptions& base :
       {EngineOptions{}, FullSpec().engine}) {
    for (size_t i = 0; i < fields; ++i) {
      dist::ShardSpec spec;
      spec.engine = WithFieldChanged(base, i);
      const Result<dist::ShardSpec> decoded =
          dist::DecodeShardSpec(dist::EncodeShardSpec(spec));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(FieldBits(decoded->engine), FieldBits(spec.engine))
          << "field " << i;
    }
  }
  // A seed with the top bit set ships as a negative int64 and comes back.
  dist::ShardSpec spec;
  spec.engine.seed = ~uint64_t{0};
  spec.engine.marketplace.seed = uint64_t{1} << 63;
  const Result<dist::ShardSpec> decoded =
      dist::DecodeShardSpec(dist::EncodeShardSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->engine.seed, spec.engine.seed);
  EXPECT_EQ(decoded->engine.marketplace.seed, spec.engine.marketplace.seed);
}

// --- the guard --------------------------------------------------------------

/// Converts to anything; counts an aggregate's members by how many of
/// these brace-initialise it.
struct AnyField {
  template <class T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <class T, class... Fields>
constexpr size_t Arity() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return Arity<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// Listed fields whose storage lies inside `s`.
template <class S>
size_t ListedWithin(const EngineOptions& o, const S& s) {
  const auto lo = reinterpret_cast<uintptr_t>(&s);
  size_t n = 0;
  VisitEngineOptions(o, [&](const char*, const auto& v, OptionClass) {
    const auto p = reinterpret_cast<uintptr_t>(&v);
    if (p >= lo && p < lo + sizeof(S)) ++n;
  });
  return n;
}

// Adding a field to EngineOptions or to one of its nested options structs
// fails here until the field gets a line in VisitEngineOptions or is named
// below as deliberately left out.
TEST(OptionsSchemaTest, EveryOptionsFieldIsListedOrExcluded) {
  const EngineOptions o;
  const auto excluded = [](std::initializer_list<const char*> names) {
    return names.size();
  };
  EXPECT_EQ(Arity<WorkerModel>(), ListedWithin(o, o.worker));
  EXPECT_EQ(Arity<WorkerModel>(), ListedWithin(o, o.marketplace.population));
  EXPECT_EQ(Arity<FaultPlan>(), ListedWithin(o, o.marketplace.faults));
  EXPECT_EQ(Arity<RetryPolicy>(), ListedWithin(o, o.retry));
  EXPECT_EQ(Arity<AmtCostModel>(), ListedWithin(o, o.cost_model));
  EXPECT_EQ(Arity<PruningConfig>(), ListedWithin(o, o.crowdsky.pruning));
  // Nested structs count as one member of their parent.
  EXPECT_EQ(Arity<MarketplaceOptions>(),
            ListedWithin(o, o.marketplace) -
                ListedWithin(o, o.marketplace.population) -
                ListedWithin(o, o.marketplace.faults) + 2);
  EXPECT_EQ(Arity<GovernorOptions>(),
            ListedWithin(o, o.governor) +
                excluded({"deadline_seconds", "allow_wall_clock", "cancel"}));
  EXPECT_EQ(Arity<EngineOptions::DurabilityOptions>(),
            ListedWithin(o, o.durability) +
                excluded({"dir", "checkpoint_every_rounds"}));
  EXPECT_EQ(Arity<EngineOptions::ObsOptions>(),
            excluded({"level", "trace_path", "metrics_path"}));
  EXPECT_EQ(Arity<CrowdSkyOptions>(),
            ListedWithin(o, o.crowdsky) -
                ListedWithin(o, o.crowdsky.pruning) + 1 +
                excluded({"known_crowd_values", "obs"}));
  const size_t nested = ListedWithin(o, o.worker) +
                        ListedWithin(o, o.marketplace) +
                        ListedWithin(o, o.retry) +
                        ListedWithin(o, o.cost_model) +
                        ListedWithin(o, o.governor) +
                        ListedWithin(o, o.durability) +
                        ListedWithin(o, o.crowdsky);
  EXPECT_EQ(Arity<EngineOptions>(),
            ListedWithin(o, o) - nested + 7 +
                excluded({"imported_answers", "round_callback", "wrap_oracle",
                          "export_answers", "obs"}));
}

}  // namespace
}  // namespace crowdsky
