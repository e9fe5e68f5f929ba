#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "testing/temp_dir.h"

namespace crowdsky::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  // SetCounter adds the counter on first use and overwrites it after.
  MetricRegistry reg;
  reg.SetCounter("crowdsky.rounds", 41);
  reg.SetCounter("crowdsky.rounds", 42);
  const auto samples = reg.CounterSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].first, "crowdsky.rounds");
  EXPECT_EQ(samples[0].second, 42);
}

TEST(GaugeTest, LastWriteWins) {
  MetricRegistry reg;
  reg.SetGauge("crowdsky.cost_usd", 3.25);
  reg.SetGauge("crowdsky.cost_usd", -1.5);
  const auto samples = reg.GaugeSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].second, -1.5);
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  // Past the last finite bound everything lands in the +Inf bucket.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 40),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountSumAndBuckets) {
  Histogram h;
  h.Observe(1);
  h.Observe(1);
  h.Observe(5);
  h.Observe(-7);  // clamped to 0
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 7);
  EXPECT_EQ(h.bucket(0), 3);  // 1, 1, 0
  EXPECT_EQ(h.bucket(3), 1);  // 5 -> le 8
}

TEST(MetricRegistryTest, SamplesAreSortedAndFlattenHistograms) {
  MetricRegistry reg;
  reg.SetCounter("b.counter", 2);
  reg.SetCounter("a.counter", 1);
  reg.SetHistogram("a.hist", {3, 5});
  const auto samples = reg.CounterSamples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].first, "a.counter");
  EXPECT_EQ(samples[1].first, "a.hist_count");
  EXPECT_EQ(samples[1].second, 2);
  EXPECT_EQ(samples[2].first, "a.hist_sum");
  EXPECT_EQ(samples[2].second, 8);
  EXPECT_EQ(samples[3].first, "b.counter");
}

TEST(MetricRegistryDeathTest, RejectsNameUnderAnotherKind) {
  MetricRegistry reg;
  reg.SetCounter("crowdsky.rounds", 1);
  EXPECT_DEATH(reg.SetGauge("crowdsky.rounds", 1.0), "another kind");
  EXPECT_DEATH(reg.SetHistogram("crowdsky.rounds", {1}), "another kind");
}

TEST(MetricRegistryTest, PrometheusTextFormat) {
  MetricRegistry reg;
  reg.SetCounter("crowdsky.pair_attempts", 7);
  reg.SetGauge("crowdsky.cost_usd", 1.25);
  reg.SetHistogram("crowdsky.round_questions", {1, 3});
  const std::string text = reg.PrometheusText();
  // Names sanitized to [a-zA-Z0-9_:], one TYPE line per metric.
  EXPECT_NE(text.find("# TYPE crowdsky_pair_attempts counter"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_pair_attempts 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdsky_cost_usd gauge"), std::string::npos);
  EXPECT_NE(text.find("crowdsky_cost_usd 1.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdsky_round_questions histogram"),
            std::string::npos);
  // Cumulative le buckets: the le="2" bucket holds both observations, and
  // the +Inf bucket equals the count.
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_sum 4"), std::string::npos);
}

TEST(MetricRegistryTest, PrometheusDumpIsDeterministic) {
  auto build = [] {
    auto reg = std::make_unique<MetricRegistry>();
    reg->SetCounter("z.last", 1);
    reg->SetCounter("a.first", 2);
    reg->SetGauge("m.gauge", 0.5);
    return reg;
  };
  EXPECT_EQ(build()->PrometheusText(), build()->PrometheusText());
}

TEST(MetricRegistryTest, WritePrometheusTextRoundTrips) {
  MetricRegistry reg;
  reg.SetCounter("crowdsky.rounds", 5);
  const std::string path =
      crowdsky::testing::FreshTempPath("metrics.prom");
  ASSERT_TRUE(WritePrometheusText(path, reg).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, reg.PrometheusText());
}

TEST(MetricRegistryTest, WritePrometheusTextFailsOnBadPath) {
  MetricRegistry reg;
  EXPECT_FALSE(
      WritePrometheusText("/nonexistent-dir/x/metrics.prom", reg).ok());
}

TEST(NullSafeHelpersTest, NoOpOnNull) {
  {
    TraceSpan span = SpanIf(nullptr, "ignored");  // must not crash
    span.AddArg("k", 1);
    span.End();
  }
  RunObserver obs(ObsLevel::kFull);
  {
    TraceSpan span = SpanIf(&obs, "work");
  }
  EXPECT_EQ(obs.trace().event_count(), 1);
}

TEST(RunObserverTest, CountersLevelCountsButDoesNotTrace) {
  RunObserver obs(ObsLevel::kCounters);
  EXPECT_TRUE(obs.counters_enabled());
  EXPECT_FALSE(obs.tracing_enabled());
  obs.metrics().SetCounter("crowdsky.rounds", 2);
  EXPECT_EQ(obs.metrics().CounterSamples().size(), 1u);
  {
    TraceSpan span = obs.Span("should.not.record");
  }
  EXPECT_EQ(obs.trace().event_count(), 0);
}

TEST(RunObserverTest, FullLevelTraces) {
  RunObserver obs(ObsLevel::kFull);
  EXPECT_TRUE(obs.tracing_enabled());
  {
    TraceSpan span = obs.Span("work");
  }
  EXPECT_EQ(obs.trace().event_count(), 1);
}

TEST(ObsLevelTest, Names) {
  EXPECT_STREQ(ObsLevelName(ObsLevel::kDisabled), "disabled");
  EXPECT_STREQ(ObsLevelName(ObsLevel::kCounters), "counters");
  EXPECT_STREQ(ObsLevelName(ObsLevel::kFull), "full");
}

}  // namespace
}  // namespace crowdsky::obs
