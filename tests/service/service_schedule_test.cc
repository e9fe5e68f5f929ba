// Schedule-perturbation property suite: the service's determinism
// contract says per-query results never depend on admission order, thread
// count or run repetition, and the packing ledger is a pure function of
// the submission list. Each property is checked under seeded shuffles and
// CROWDSKY_THREADS ∈ {1, 4}; the suite also runs under the TSan CI leg,
// where the engine's pool threads get race-checked with the service on.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "service/service_test_util.h"

namespace crowdsky::service {
namespace {

using crowdsky::service::testing::ExpectSameEngineResult;
using crowdsky::service::testing::MixedQueries;

ServiceOptions AuditedOptions() {
  ServiceOptions options;
  options.audit = true;
  options.obs_level = obs::ObsLevel::kCounters;
  return options;
}

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

class ServiceScheduleTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceScheduleTest, ResultsInvariantUnderSubmissionPermutation) {
  const int threads = GetParam();
  ScopedThreads scoped(threads);

  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(5, &datasets);

  // Baseline: submission order as constructed, generous concurrency.
  ServiceOptions options = AuditedOptions();
  options.max_concurrent = static_cast<int>(queries.size());
  const auto baseline = RunService(queries, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const uint64_t shuffle_seed :
       {uint64_t{0x1}, uint64_t{0x2a}, uint64_t{0x3cc}}) {
    const std::vector<size_t> perm =
        Permutation(queries.size(), shuffle_seed);
    std::vector<ServiceQuery> shuffled;
    for (const size_t p : perm) shuffled.push_back(queries[p]);

    const auto permuted = RunService(shuffled, options);
    ASSERT_TRUE(permuted.ok()) << permuted.status().ToString();

    // Per-query results are invariant: outcome at the new position is
    // bit-identical to the same query's outcome in the baseline order.
    for (size_t pos = 0; pos < perm.size(); ++pos) {
      const QueryOutcome& got = permuted->queries[pos];
      const QueryOutcome& want = baseline->queries[perm[pos]];
      EXPECT_EQ(got.label, want.label);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ExpectSameEngineResult(want.result, got.result,
                             "shuffle " + std::to_string(shuffle_seed) +
                                 " query " + got.label);
      EXPECT_EQ(got.slots, want.slots);
      EXPECT_EQ(got.isolated_hits, want.isolated_hits);
    }

    // With every query admitted up front, all epochs carry the same slot
    // multiset regardless of order: ledger totals are invariant too.
    EXPECT_EQ(permuted->packing.epochs, baseline->packing.epochs);
    EXPECT_EQ(permuted->packing.slots, baseline->packing.slots);
    EXPECT_EQ(permuted->packing.packed_hits, baseline->packing.packed_hits);
    EXPECT_EQ(permuted->packing.isolated_hits,
              baseline->packing.isolated_hits);
    EXPECT_DOUBLE_EQ(permuted->packing.cost_saved_usd,
                     baseline->packing.cost_saved_usd);
  }
}

TEST_P(ServiceScheduleTest, RepeatedRunsProduceIdenticalReports) {
  const int threads = GetParam();
  ScopedThreads scoped(threads);

  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(4, &datasets);
  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 2;  // queueing + mid-run admissions in play

  const auto first = RunService(queries, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto second = RunService(queries, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_EQ(first->queries.size(), second->queries.size());
  for (size_t i = 0; i < first->queries.size(); ++i) {
    ExpectSameEngineResult(first->queries[i].result,
                           second->queries[i].result,
                           "repeat query " + std::to_string(i));
    EXPECT_EQ(first->queries[i].slots, second->queries[i].slots);
  }

  // The whole audit trail is reproducible: same spans, byte for byte.
  ASSERT_EQ(first->spans.size(), second->spans.size());
  for (size_t s = 0; s < first->spans.size(); ++s) {
    EXPECT_EQ(first->spans[s].epoch, second->spans[s].epoch);
    EXPECT_EQ(first->spans[s].query_slots, second->spans[s].query_slots);
    EXPECT_EQ(first->spans[s].packed_hits, second->spans[s].packed_hits);
    EXPECT_EQ(first->spans[s].isolated_hits, second->spans[s].isolated_hits);
  }
  EXPECT_EQ(first->packing.epochs, second->packing.epochs);
  EXPECT_EQ(first->packing.packed_hits, second->packing.packed_hits);
  EXPECT_DOUBLE_EQ(first->packing.cost_saved_usd,
                   second->packing.cost_saved_usd);
  EXPECT_EQ(first->counters, second->counters);
}

TEST_P(ServiceScheduleTest, ThrottledAdmissionKeepsPerQueryResultsInvariant) {
  // With max_concurrent < n the epoch composition DOES depend on the
  // admission schedule — but per-query results still must not. Sweep the
  // concurrency knob and permute, pinning per-query bit-identity.
  const int threads = GetParam();
  ScopedThreads scoped(threads);

  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(4, &datasets);

  std::map<std::string, EngineResult> reference;
  for (const ServiceQuery& query : queries) {
    const auto r = RunSkylineQuery(*query.dataset, query.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.emplace(query.label, *r);
  }

  for (const int max_concurrent : {1, 2, 3}) {
    ServiceOptions options = AuditedOptions();
    options.max_concurrent = max_concurrent;
    std::vector<ServiceQuery> shuffled;
    for (const size_t p :
         Permutation(queries.size(),
                     uint64_t{0x77} + static_cast<uint64_t>(max_concurrent))) {
      shuffled.push_back(queries[p]);
    }
    const auto service = RunService(shuffled, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (const QueryOutcome& outcome : service->queries) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      ExpectSameEngineResult(reference.at(outcome.label), outcome.result,
                             "max_concurrent=" +
                                 std::to_string(max_concurrent) + " query " +
                                 outcome.label);
    }
    EXPECT_LE(service->packing.packed_hits, service->packing.isolated_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceScheduleTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "threads" + std::to_string(param_info.param);
                         });

TEST(ServiceScheduleCallbackTest, RoundCallbacksFollowTheEpochReplay) {
  // Each query's own round_callback fires once per round with that
  // query's round count, on the caller's thread, epoch by epoch: every
  // call of epoch e precedes every call of epoch e+1, and within an epoch
  // the active queries go in admission order. With one pack class there
  // is one span per epoch, so the expected sequence reads off the spans.
  std::vector<Dataset> datasets;
  std::vector<ServiceQuery> queries = MixedQueries(4, &datasets);
  using Call = std::tuple<int, int64_t, std::thread::id>;
  std::vector<Call> calls;
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].options.round_callback = [&calls, i](int64_t rounds) {
      calls.emplace_back(static_cast<int>(i), rounds,
                         std::this_thread::get_id());
    };
  }
  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 2;  // queued queries join mid-run
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<Call> expected;
  std::map<int, int64_t> rounds;
  int64_t last_epoch = -1;
  for (const EpochClassSpan& span : service->spans) {
    ASSERT_GT(span.epoch, last_epoch) << "one pack class, one span per epoch";
    last_epoch = span.epoch;
    for (const auto& [query_id, slots] : span.query_slots) {
      expected.emplace_back(query_id, ++rounds[query_id],
                            std::this_thread::get_id());
    }
  }
  EXPECT_EQ(calls, expected);
  for (const QueryOutcome& outcome : service->queries) {
    EXPECT_EQ(rounds[outcome.query_id], outcome.result.algo.rounds)
        << outcome.label;
  }
}

}  // namespace
}  // namespace crowdsky::service
