#include "dist/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "testing/temp_dir.h"

namespace crowdsky::dist {
namespace {

TEST(WireTest, ShardSpecRoundTrip) {
  ShardSpec spec;
  spec.shard = 3;
  spec.shards = 8;
  spec.generation = 2;
  spec.partition = PartitionScheme::kHash;
  spec.dataset_csv = "/tmp/run/dataset.csv";
  spec.shard_dir = "/tmp/run/shard_3";
  spec.heartbeat_fd = 17;
  spec.engine.algorithm = Algorithm::kParallelDSet;
  spec.engine.oracle = OracleKind::kMarketplace;
  spec.engine.worker.p_correct = 0.8125;
  spec.engine.workers_per_question = 7;
  spec.engine.dynamic_voting = true;
  spec.engine.seed = 0xfeedbeef;
  spec.engine.max_questions = 321;
  spec.engine.marketplace.pool_size = 33;
  spec.engine.marketplace.population.p_correct = 0.75;
  spec.engine.marketplace.faults.transient_error_rate = 0.125;
  spec.engine.marketplace.faults.worker_no_show_rate = 0.0625;
  spec.engine.marketplace.seed = 99;
  spec.engine.retry.max_retries = 5;
  spec.engine.cost_model.reward_per_hit = 0.04;
  spec.engine.governor.max_rounds = 11;
  spec.engine.governor.max_cost_usd = 1.5;
  spec.engine.durability.resume = true;
  spec.engine.crowdsky.pruning.use_p2 = false;
  spec.engine.crowdsky.audit = true;
  spec.kill_at_round = 4;
  spec.kill_at_record = 9;
  spec.tear_bytes = 13;
  spec.hang_at_start = true;
  spec.hang_at_round = 6;
  spec.slow_start_ms = 250;

  const Result<ShardSpec> decoded = DecodeShardSpec(EncodeShardSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ShardSpec& d = decoded.ValueOrDie();
  EXPECT_EQ(d.shard, spec.shard);
  EXPECT_EQ(d.shards, spec.shards);
  EXPECT_EQ(d.generation, spec.generation);
  EXPECT_EQ(d.partition, spec.partition);
  EXPECT_EQ(d.dataset_csv, spec.dataset_csv);
  EXPECT_EQ(d.shard_dir, spec.shard_dir);
  EXPECT_EQ(d.heartbeat_fd, spec.heartbeat_fd);
  EXPECT_EQ(d.engine.algorithm, spec.engine.algorithm);
  EXPECT_EQ(d.engine.oracle, spec.engine.oracle);
  EXPECT_EQ(d.engine.worker.p_correct, spec.engine.worker.p_correct);
  EXPECT_EQ(d.engine.workers_per_question, spec.engine.workers_per_question);
  EXPECT_EQ(d.engine.dynamic_voting, spec.engine.dynamic_voting);
  EXPECT_EQ(d.engine.seed, spec.engine.seed);
  EXPECT_EQ(d.engine.max_questions, spec.engine.max_questions);
  EXPECT_EQ(d.engine.marketplace.pool_size, spec.engine.marketplace.pool_size);
  EXPECT_EQ(d.engine.marketplace.population.p_correct,
            spec.engine.marketplace.population.p_correct);
  EXPECT_EQ(d.engine.marketplace.faults.transient_error_rate,
            spec.engine.marketplace.faults.transient_error_rate);
  EXPECT_EQ(d.engine.marketplace.faults.worker_no_show_rate,
            spec.engine.marketplace.faults.worker_no_show_rate);
  EXPECT_EQ(d.engine.marketplace.seed, spec.engine.marketplace.seed);
  EXPECT_EQ(d.engine.retry.max_retries, spec.engine.retry.max_retries);
  EXPECT_EQ(d.engine.cost_model.reward_per_hit,
            spec.engine.cost_model.reward_per_hit);
  EXPECT_EQ(d.engine.governor.max_rounds, spec.engine.governor.max_rounds);
  EXPECT_EQ(d.engine.governor.max_cost_usd,
            spec.engine.governor.max_cost_usd);
  // The journal directory is derived from the shard dir, not transmitted.
  EXPECT_EQ(d.engine.durability.dir, spec.shard_dir);
  EXPECT_EQ(d.engine.durability.resume, spec.engine.durability.resume);
  EXPECT_EQ(d.engine.crowdsky.pruning.use_p2,
            spec.engine.crowdsky.pruning.use_p2);
  EXPECT_TRUE(d.engine.crowdsky.pruning.use_p1);
  EXPECT_EQ(d.engine.crowdsky.audit, spec.engine.crowdsky.audit);
  EXPECT_EQ(d.kill_at_round, spec.kill_at_round);
  EXPECT_EQ(d.kill_at_record, spec.kill_at_record);
  EXPECT_EQ(d.tear_bytes, spec.tear_bytes);
  EXPECT_EQ(d.hang_at_start, spec.hang_at_start);
  EXPECT_EQ(d.hang_at_round, spec.hang_at_round);
  EXPECT_EQ(d.slow_start_ms, spec.slow_start_ms);
}

TEST(WireTest, ShardResultRoundTrip) {
  ShardResult r;
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
  r.resumed = true;
  r.replayed_pair_attempts = 17;
  r.journal_records = 60;
  r.termination_reason = "dollar_cap";
  r.answers = {{0, 0, 4, Answer::kFirstPreferred},
               {1, 4, 9, Answer::kSecondPreferred},
               {1, 0, 9, Answer::kEqual}};

  const Result<ShardResult> decoded =
      DecodeShardResult(EncodeShardResult(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ShardResult& d = decoded.ValueOrDie();
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.skyline, r.skyline);
  EXPECT_EQ(d.undetermined, r.undetermined);
  EXPECT_EQ(d.questions, r.questions);
  EXPECT_EQ(d.rounds, r.rounds);
  EXPECT_EQ(d.questions_per_round, r.questions_per_round);
  EXPECT_EQ(d.free_lookups, r.free_lookups);
  EXPECT_EQ(d.retries, r.retries);
  EXPECT_EQ(d.cost_usd, r.cost_usd);
  EXPECT_EQ(d.incomplete_tuples, r.incomplete_tuples);
  EXPECT_EQ(d.resolved_questions, r.resolved_questions);
  EXPECT_EQ(d.unresolved_questions, r.unresolved_questions);
  EXPECT_EQ(d.budget_exhausted, r.budget_exhausted);
  EXPECT_EQ(d.retries_exhausted, r.retries_exhausted);
  EXPECT_EQ(d.resumed, r.resumed);
  EXPECT_EQ(d.replayed_pair_attempts, r.replayed_pair_attempts);
  EXPECT_EQ(d.journal_records, r.journal_records);
  EXPECT_EQ(d.termination_reason, r.termination_reason);
  ASSERT_EQ(d.answers.size(), r.answers.size());
  for (size_t i = 0; i < r.answers.size(); ++i) {
    EXPECT_EQ(d.answers[i].attr, r.answers[i].attr);
    EXPECT_EQ(d.answers[i].u, r.answers[i].u);
    EXPECT_EQ(d.answers[i].v, r.answers[i].v);
    EXPECT_EQ(d.answers[i].answer, r.answers[i].answer);
  }
}

TEST(WireTest, ErrorResultRoundTrip) {
  ShardResult r;
  r.ok = false;
  r.error = "engine failed:\nmulti-line detail";
  const Result<ShardResult> decoded =
      DecodeShardResult(EncodeShardResult(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.ValueOrDie().ok);
  EXPECT_EQ(decoded.ValueOrDie().error, "engine failed: multi-line detail");
}

TEST(WireTest, RejectsForeignAndCorruptInput) {
  EXPECT_FALSE(DecodeShardSpec("format=something-else\n").ok());
  EXPECT_FALSE(DecodeShardResult("").ok());
  ShardSpec spec;
  std::string text = EncodeShardSpec(spec);
  text += "seed=notanumber\n";
  EXPECT_FALSE(DecodeShardSpec(text).ok());
  ShardResult r;
  r.ok = true;
  std::string rtext = EncodeShardResult(r);
  rtext += "answers=1:2:3:9\n";
  EXPECT_FALSE(DecodeShardResult(rtext).ok());
}

TEST(WireTest, WriteFileAtomicLeavesNoTmpAndRoundTrips) {
  const std::string path = crowdsky::testing::FreshTempPath("wire.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "hello\nworld\n").ok());
  const Result<std::string> back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie(), "hello\nworld\n");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second");
  std::remove(path.c_str());
}

// PutF writes subnormals, and glibc's strtod flags them with ERANGE; the
// readers must still take them back bit-exactly.
TEST(WireTest, SubnormalDoublesRoundTrip) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 3;
  ShardResult r;
  r.ok = true;
  r.cost_usd = tiny;
  const Result<ShardResult> result = DecodeShardResult(EncodeShardResult(r));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>(result.ValueOrDie().cost_usd),
            std::bit_cast<uint64_t>(tiny));

  ShardSpec spec;
  spec.engine.worker.p_stddev = sub;
  const Result<ShardSpec> decoded = DecodeShardSpec(EncodeShardSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const double p_stddev = decoded.ValueOrDie().engine.worker.p_stddev;
  EXPECT_EQ(std::bit_cast<uint64_t>(p_stddev), std::bit_cast<uint64_t>(sub));

  // Underflow to zero and overflow are still refused.
  for (const char* bad : {"cost_usd=1e-400\n", "cost_usd=1e999\n"}) {
    EXPECT_FALSE(DecodeShardResult(EncodeShardResult(r) + bad).ok()) << bad;
  }
}

TEST(WireTest, ReadFileToStringRefusesDirectory) {
  const std::string dir = crowdsky::testing::FreshTempDir("wire_dir");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const Result<std::string> read = ReadFileToString(dir);
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();
  std::filesystem::remove_all(dir);
}

// --- decoder refusals ----------------------------------------------------

// `text` with its one occurrence of `from` replaced by `to`.
std::string ReplaceOnce(const std::string& text, const std::string& from,
                        const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
  std::string out = text;
  if (at != std::string::npos) out.replace(at, from.size(), to);
  return out;
}

ShardResult OkResult() {
  ShardResult r;
  r.ok = true;
  r.skyline = {0, 4};
  r.questions = 3;
  return r;
}

void ExpectRefused(const Result<ShardSpec>& spec, const std::string& what) {
  ASSERT_FALSE(spec.ok());
  EXPECT_TRUE(spec.status().IsIOError()) << spec.status().ToString();
  EXPECT_NE(spec.status().ToString().find("bad shard spec: " + what),
            std::string::npos)
      << spec.status().ToString();
}

void ExpectRefused(const Result<ShardResult>& result,
                   const std::string& what) {
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("bad shard result: " + what),
            std::string::npos)
      << result.status().ToString();
}

// A missing key used to fall back to a per-field default (market.seed to
// 0, where the struct default is 42).
TEST(WireTest, RefusesMissingKey) {
  const std::string spec = EncodeShardSpec(ShardSpec{});
  ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, "market.seed=42\n", "")),
                "missing key 'market.seed'");
  ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, "shards=1\n", "")),
                "missing key 'shards'");
  const std::string result = EncodeShardResult(OkResult());
  ExpectRefused(DecodeShardResult(ReplaceOnce(result, "questions=3\n", "")),
                "missing key 'questions'");
  ExpectRefused(DecodeShardResult("format=crowdsky-shard-result-v1\nok=0\n"),
                "missing key 'error'");
}

// A repeated key used to keep its last value; even an identical repeat
// is refused now.
TEST(WireTest, RefusesDuplicateKey) {
  const std::string spec = EncodeShardSpec(ShardSpec{});
  ExpectRefused(DecodeShardSpec(spec + "workers_per_question=5\n"),
                "duplicate key 'workers_per_question'");
  const std::string result = EncodeShardResult(OkResult());
  ExpectRefused(DecodeShardResult(result + "questions=3\n"),
                "duplicate key 'questions'");
}

// An integer that does not fit its field used to be truncated:
// 4294967301 ran as workers_per_question = 5.
TEST(WireTest, RefusesValueOutsideItsField) {
  const std::string spec = EncodeShardSpec(ShardSpec{});
  ExpectRefused(
      DecodeShardSpec(ReplaceOnce(spec, "\nworkers_per_question=5\n",
                                  "\nworkers_per_question=4294967301\n")),
      "bad value for 'workers_per_question'");
  ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, "shard=0\n",
                                            "shard=-2147483649\n")),
                "bad value for 'shard'");
  ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, "dynamic_voting=0\n",
                                            "dynamic_voting=2\n")),
                "bad value for 'dynamic_voting'");
  const std::string result = EncodeShardResult(OkResult());
  ExpectRefused(DecodeShardResult(ReplaceOnce(result, "skyline=0,4\n",
                                              "skyline=0,4294967300\n")),
                "bad value for 'skyline'");
  // Doubles that underflow to zero or overflow.
  for (const char* bad : {"cost_usd=1e-400\n", "cost_usd=1e999\n"}) {
    ExpectRefused(
        DecodeShardResult(ReplaceOnce(result, "cost_usd=0\n", bad)),
        "bad value for 'cost_usd'");
  }
}

// An enum value outside its enumerators used to be cast through:
// oracle=7 ran a simulated crowd.
TEST(WireTest, RefusesEnumOutsideItsEnumerators) {
  const std::string spec = EncodeShardSpec(ShardSpec{});
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"oracle=1", "oracle=7"},
           {"oracle=1", "oracle=-1"},
           {"contradiction_policy=0", "contradiction_policy=2"},
           {"multi_attr=0", "multi_attr=2"},
           {"durability.sync=1", "durability.sync=3"}}) {
    const std::string key = from.substr(0, from.find('='));
    ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, from + "\n", to + "\n")),
                  "bad value for '" + key + "'");
  }
  ExpectRefused(DecodeShardSpec(ReplaceOnce(spec, "algorithm=ParallelSL\n",
                                            "algorithm=Quantum\n")),
                "bad value for 'algorithm'");
}

TEST(WireTest, RefusesUnknownKey) {
  ExpectRefused(DecodeShardSpec(EncodeShardSpec(ShardSpec{}) + "omega=5\n"),
                "unknown key 'omega'");
  ExpectRefused(
      DecodeShardResult(EncodeShardResult(OkResult()) + "cost=1\n"),
      "unknown key 'cost'");
}

}  // namespace
}  // namespace crowdsky::dist
