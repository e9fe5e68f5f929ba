// Engine-level observability: the obs block on EngineResult, file exports,
// option validation, and the guarantee that turning observability on does
// not change any deterministic output.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/crowdsky.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

Dataset MakeData(int n, uint64_t seed) {
  GeneratorOptions gen;
  gen.cardinality = n;
  gen.num_known = 3;
  gen.num_crowd = 1;
  gen.seed = seed;
  return GenerateDataset(gen).ValueOrDie();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ObservabilityTest, DisabledByDefault) {
  const Dataset ds = MakeData(60, 3);
  const auto r = RunSkylineQuery(ds);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->obs.enabled);
  EXPECT_FALSE(r->obs.tracing);
  EXPECT_TRUE(r->obs.counters.empty());
  EXPECT_TRUE(r->obs.gauges.empty());
  EXPECT_EQ(r->obs.trace_events, 0);
  EXPECT_EQ(r->obs.CounterOr("crowdsky.rounds"), -1);
}

TEST(ObservabilityTest, EnablingObsDoesNotChangeDeterministicOutputs) {
  const Dataset ds = MakeData(100, 7);
  EngineOptions off;
  off.algorithm = Algorithm::kParallelSL;
  off.worker.p_correct = 0.9;
  off.seed = 11;
  EngineOptions counters = off;
  counters.obs.level = obs::ObsLevel::kCounters;
  EngineOptions full = off;
  full.obs.level = obs::ObsLevel::kFull;

  const auto a = RunSkylineQuery(ds, off);
  const auto b = RunSkylineQuery(ds, counters);
  const auto c = RunSkylineQuery(ds, full);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  for (const auto* r : {&*b, &*c}) {
    EXPECT_EQ(r->algo.skyline, a->algo.skyline);
    EXPECT_EQ(r->algo.questions, a->algo.questions);
    EXPECT_EQ(r->algo.rounds, a->algo.rounds);
    EXPECT_EQ(r->algo.questions_per_round, a->algo.questions_per_round);
    EXPECT_EQ(r->algo.worker_answers, a->algo.worker_answers);
    EXPECT_DOUBLE_EQ(r->cost_usd, a->cost_usd);
    EXPECT_EQ(r->accuracy.f1, a->accuracy.f1);
  }
  // The crowdsky.* counter values are themselves deterministic: both
  // observed runs saw the identical question stream. (pool.* counters are
  // scheduling-dependent, so they are excluded.)
  const auto deterministic = [](const EngineResult& r) {
    std::vector<std::pair<std::string, int64_t>> kept;
    for (const auto& sample : r.obs.counters) {
      if (sample.first.rfind("pool.", 0) != 0) kept.push_back(sample);
    }
    return kept;
  };
  EXPECT_EQ(deterministic(*b), deterministic(*c));
  // Tracing only happens at kFull, and a run records at least the run /
  // setup / algorithm spans.
  EXPECT_EQ(b->obs.trace_events, 0);
  EXPECT_GE(c->obs.trace_events, 4);
}

TEST(ObservabilityTest, CountersMirrorAlgoResult) {
  const Dataset ds = MakeData(90, 13);
  EngineOptions options;
  options.algorithm = Algorithm::kParallelDSet;
  options.obs.level = obs::ObsLevel::kCounters;
  options.crowdsky.audit = true;  // the ledgers themselves are audited
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok());
  const AlgoResult& a = r->algo;
  EXPECT_EQ(r->obs.CounterOr("crowdsky.rounds"), a.rounds);
  EXPECT_EQ(r->obs.CounterOr("crowdsky.round_questions_sum"), a.questions);
  EXPECT_EQ(r->obs.CounterOr("crowdsky.worker_answers"), a.worker_answers);
  EXPECT_EQ(r->obs.CounterOr("crowdsky.free_lookups"), a.free_lookups);
  EXPECT_EQ(r->obs.CounterOr("crowdsky.unary_questions"), 0);
  // pool.* counters exist but are scheduling-dependent; only presence is
  // guaranteed.
  EXPECT_GE(r->obs.CounterOr("pool.tasks_submitted"), 0);
}

TEST(ObservabilityTest, WritesTraceAndMetricsFiles) {
  const Dataset ds = MakeData(60, 17);
  EngineOptions options;
  options.obs.level = obs::ObsLevel::kFull;
  options.obs.trace_path = crowdsky::testing::FreshTempPath("trace.json");
  options.obs.metrics_path =
      crowdsky::testing::FreshTempPath("metrics.prom");
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->obs.tracing);

  const std::string trace = Slurp(options.obs.trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"algorithm\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"crowd.ask_pair\""), std::string::npos);

  const std::string prom = Slurp(options.obs.metrics_path);
  EXPECT_NE(prom.find("# TYPE crowdsky_rounds counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE crowdsky_round_questions histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE crowdsky_cost_usd gauge"), std::string::npos);
}

TEST(ObservabilityTest, RejectsPathsWithoutMatchingLevel) {
  const Dataset ds = MakeData(40, 19);
  EngineOptions trace_without_full;
  trace_without_full.obs.level = obs::ObsLevel::kCounters;
  trace_without_full.obs.trace_path = "/tmp/never-written.json";
  EXPECT_FALSE(RunSkylineQuery(ds, trace_without_full).ok());

  EngineOptions metrics_while_disabled;
  metrics_while_disabled.obs.metrics_path = "/tmp/never-written.prom";
  EXPECT_FALSE(RunSkylineQuery(ds, metrics_while_disabled).ok());
}

TEST(ObservabilityTest, ResumeCountsReplayedWork) {
  const Dataset ds = MakeData(80, 23);
  const std::string dir = crowdsky::testing::FreshTempDir("obs_resume");
  EngineOptions options;
  options.algorithm = Algorithm::kCrowdSkySerial;
  options.obs.level = obs::ObsLevel::kCounters;
  options.crowdsky.audit = true;
  options.durability.dir = dir;
  // Journal-only durability: the resume must replay every paid question.
  options.durability.checkpoint_every_rounds = 0;
  const auto fresh = RunSkylineQuery(ds, options);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->obs.CounterOr("journal.replayed_pair_attempts"), 0);
  EXPECT_EQ(fresh->obs.CounterOr("journal.records_appended"),
            fresh->durability.new_records);
  EXPECT_GT(fresh->durability.new_records, 0);

  options.durability.resume = true;
  const auto resumed = RunSkylineQuery(ds, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->algo.skyline, fresh->algo.skyline);
  EXPECT_EQ(resumed->obs.CounterOr("journal.replayed_pair_attempts"),
            resumed->durability.replayed_pair_attempts);
  EXPECT_GT(resumed->obs.CounterOr("journal.replayed_pair_attempts"), 0);
  // Nothing is re-paid on the resume, so no new journal records appear.
  EXPECT_EQ(resumed->obs.CounterOr("journal.records_appended"),
            resumed->durability.new_records);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace crowdsky
