// Cross-subsystem composition: the service under fault plans, governor
// caps and cancellation. The property throughout is *blast-radius zero*:
// a capped, faulty or cancelled query degrades alone — its siblings in
// the same service run stay bit-identical to their isolated runs.
#include "service/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/service_test_util.h"
#include "testing/temp_dir.h"

namespace crowdsky::service {
namespace {

using crowdsky::service::testing::AddFaultPlan;
using crowdsky::service::testing::ExpectSameEngineResult;

ServiceOptions AuditedOptions() {
  ServiceOptions options;
  options.audit = true;
  options.obs_level = obs::ObsLevel::kCounters;
  return options;
}

Dataset MakeDataset(int cardinality, uint64_t seed, int num_crowd = 1) {
  GeneratorOptions gen;
  gen.cardinality = cardinality;
  gen.num_known = 2;
  gen.num_crowd = num_crowd;
  gen.seed = seed;
  return GenerateDataset(gen).ValueOrDie();
}

ServiceQuery HealthyQuery(const Dataset* dataset, Algorithm algorithm,
                          uint64_t seed, const std::string& label) {
  ServiceQuery query;
  query.dataset = dataset;
  query.options.algorithm = algorithm;
  query.options.oracle = OracleKind::kPerfect;
  query.options.seed = seed;
  query.options.export_answers = true;
  query.label = label;
  return query;
}

void ExpectSiblingsUnperturbed(const ServiceReport& report,
                               const std::vector<ServiceQuery>& queries,
                               const std::vector<size_t>& healthy) {
  for (const size_t i : healthy) {
    const QueryOutcome& outcome = report.queries[i];
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    const auto r = RunSkylineQuery(*queries[i].dataset, queries[i].options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameEngineResult(*r, outcome.result, "sibling " + outcome.label);
  }
}

TEST(ServiceChaosTest, FaultyQueryDegradesAlone) {
  // Query 1 runs on a faulty marketplace with no retries: attempts fail
  // and degrade for real. Queries 0 and 2 are clean perfect-oracle runs
  // and must come out exactly as if they had run alone.
  const Dataset d0 = MakeDataset(24, 0x10);
  const Dataset d1 = MakeDataset(30, 0x11, 2);
  const Dataset d2 = MakeDataset(26, 0x12);

  std::vector<ServiceQuery> queries;
  queries.push_back(HealthyQuery(&d0, Algorithm::kParallelSL, 7, "clean0"));
  ServiceQuery faulty =
      HealthyQuery(&d1, Algorithm::kCrowdSkySerial, 8, "faulty");
  AddFaultPlan(&faulty.options);
  faulty.options.retry.max_retries = 0;  // give up on first failure
  queries.push_back(faulty);
  queries.push_back(HealthyQuery(&d2, Algorithm::kParallelDSet, 9, "clean1"));

  const auto service = RunService(queries, AuditedOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;
  EXPECT_EQ(report.completed, 3);
  EXPECT_EQ(report.failed, 0);

  const QueryOutcome& hurt = report.queries[1];
  ASSERT_TRUE(hurt.status.ok()) << hurt.status.ToString();
  // The fault plan actually bit: failures happened (and with zero retries
  // anything unresolved stays unresolved).
  EXPECT_GT(hurt.result.algo.failed_attempts, 0);
  EXPECT_EQ(hurt.result.algo.retries, 0);

  ExpectSiblingsUnperturbed(report, queries, {0, 2});
}

TEST(ServiceChaosTest, GovernorCappedQueryDegradesAlone) {
  // Query 0 carries its own tight governor dollar cap and terminates on
  // kDollarCap; its sibling is uncapped and unperturbed. No service-wide
  // budget in play — the cap is the query's own configuration.
  const Dataset d0 = MakeDataset(32, 0x20);
  const Dataset d1 = MakeDataset(24, 0x21);

  std::vector<ServiceQuery> queries;
  ServiceQuery capped =
      HealthyQuery(&d0, Algorithm::kCrowdSkySerial, 3, "capped");
  capped.options.governor.max_cost_usd = 0.2;  // two HITs, then stop
  queries.push_back(capped);
  queries.push_back(HealthyQuery(&d1, Algorithm::kParallelSL, 4, "free"));

  const auto service = RunService(queries, AuditedOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;

  const QueryOutcome& hurt = report.queries[0];
  ASSERT_TRUE(hurt.status.ok()) << hurt.status.ToString();
  EXPECT_TRUE(hurt.result.algo.termination.governed);
  EXPECT_EQ(hurt.result.algo.termination.reason,
            TerminationReason::kDollarCap);
  EXPECT_LE(hurt.result.algo.termination.cost_spent_usd, 0.2);
  EXPECT_FALSE(hurt.result.algo.completeness.complete);

  ExpectSiblingsUnperturbed(report, queries, {1});

  // The packing ledger stays internally consistent with a partial
  // participant: the capped query's slots are exactly what it paid for.
  int64_t paid = 0;
  for (const int64_t q : hurt.result.algo.questions_per_round) paid += q;
  EXPECT_EQ(hurt.slots, paid);
}

TEST(ServiceChaosTest, PreCancelledQueryDoesNotPerturbSiblings) {
  // Query 1's cancellation token is flipped before submission: it stops
  // at its first governor checkpoint having bought nothing (or nearly
  // nothing), while both siblings run to their isolated results.
  const Dataset d0 = MakeDataset(22, 0x30);
  const Dataset d1 = MakeDataset(28, 0x31);
  const Dataset d2 = MakeDataset(25, 0x32);

  CancellationToken cancel;
  cancel.Cancel();

  std::vector<ServiceQuery> queries;
  queries.push_back(HealthyQuery(&d0, Algorithm::kParallelDSet, 5, "left"));
  ServiceQuery doomed =
      HealthyQuery(&d1, Algorithm::kParallelSL, 6, "cancelled");
  doomed.options.governor.cancel = &cancel;
  queries.push_back(doomed);
  queries.push_back(HealthyQuery(&d2, Algorithm::kCrowdSkySerial, 7, "right"));

  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 2;  // the cancelled slot frees up for "right"
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;

  const QueryOutcome& hurt = report.queries[1];
  ASSERT_TRUE(hurt.status.ok()) << hurt.status.ToString();
  EXPECT_EQ(hurt.result.algo.termination.reason,
            TerminationReason::kCancelled);
  EXPECT_EQ(hurt.result.algo.questions, 0);

  ExpectSiblingsUnperturbed(report, queries, {0, 2});
}

TEST(ServiceChaosTest, EverythingAtOnce) {
  // Fault plan × per-query governor cap × service budget slicing × a
  // bounded queue, all in one run, with the service auditor on. The run
  // must complete, the ledger must balance (the auditor proves it), and
  // the one clean uncapped query must still match its isolated result
  // under the same budget slice.
  const Dataset d0 = MakeDataset(26, 0x40);
  const Dataset d1 = MakeDataset(30, 0x41, 2);
  const Dataset d2 = MakeDataset(24, 0x42);
  const Dataset d3 = MakeDataset(28, 0x43);

  std::vector<ServiceQuery> queries;
  ServiceQuery faulty = HealthyQuery(&d0, Algorithm::kParallelSL, 1, "faulty");
  AddFaultPlan(&faulty.options);
  faulty.options.retry.max_retries = 1;
  queries.push_back(faulty);
  ServiceQuery capped =
      HealthyQuery(&d1, Algorithm::kCrowdSkySerial, 2, "capped");
  capped.options.governor.max_cost_usd = 0.3;
  queries.push_back(capped);
  queries.push_back(HealthyQuery(&d2, Algorithm::kParallelDSet, 3, "clean"));
  queries.push_back(HealthyQuery(&d3, Algorithm::kParallelSL, 4, "queued"));

  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 3;
  options.max_queue = 2;
  options.total_budget_usd = 4.0;  // $1 slice: loose for these sizes
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;

  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.rejected, 0);
  // The capped query's effective cap is min(own 0.3, slice 1.0) = 0.3.
  EXPECT_DOUBLE_EQ(report.queries[1].result.algo.termination.cost_cap_usd,
                   0.3);

  // Clean queries ran under the slice: compare against isolated runs with
  // the same cap applied by hand.
  for (const size_t i : {size_t{2}, size_t{3}}) {
    EngineOptions sliced = queries[i].options;
    sliced.governor.max_cost_usd = 1.0;
    const auto r = RunSkylineQuery(*queries[i].dataset, sliced);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameEngineResult(*r, report.queries[i].result,
                           "sliced sibling " + report.queries[i].label);
  }

  EXPECT_LE(report.packing.packed_hits, report.packing.isolated_hits);
  EXPECT_GE(report.packing.cost_saved_usd, -1e-9);
}

TEST(ServiceChaosTest, ExportFailureFailsOnlyItsQuery) {
  // Query 0 pays for every round and then fails to write its metrics
  // file. A failed query has no result to bill, so it must leave no slot
  // in the ledger; its siblings keep their isolated results and pack
  // exactly as if they had been submitted alone.
  const Dataset d0 = MakeDataset(120, 0x50);
  const Dataset d1 = MakeDataset(130, 0x51);
  const Dataset d2 = MakeDataset(140, 0x52);

  std::vector<ServiceQuery> queries;
  ServiceQuery broken =
      HealthyQuery(&d0, Algorithm::kCrowdSkySerial, 11, "broken");
  broken.options.obs.level = obs::ObsLevel::kCounters;
  broken.options.obs.metrics_path =
      crowdsky::testing::FreshTempDir("service_export") + "/metrics.prom";
  queries.push_back(broken);
  queries.push_back(HealthyQuery(&d1, Algorithm::kCrowdSkySerial, 12, "a"));
  queries.push_back(HealthyQuery(&d2, Algorithm::kCrowdSkySerial, 13, "b"));

  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 2;
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 1);
  const QueryOutcome& hurt = report.queries[0];
  EXPECT_TRUE(hurt.admitted);
  EXPECT_TRUE(hurt.status.IsIOError()) << hurt.status.ToString();
  EXPECT_EQ(hurt.slots, 0);
  EXPECT_EQ(hurt.isolated_hits, 0);

  ExpectSiblingsUnperturbed(report, queries, {1, 2});

  const auto alone = RunService({queries[1], queries[2]}, options);
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  const PackingLedger& got = report.packing;
  const PackingLedger& want = alone->packing;
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.slots, want.slots);
  EXPECT_EQ(got.packed_hits, want.packed_hits);
  EXPECT_EQ(got.isolated_hits, want.isolated_hits);
  EXPECT_DOUBLE_EQ(got.cost_packed_usd, want.cost_packed_usd);
  EXPECT_DOUBLE_EQ(got.cost_isolated_usd, want.cost_isolated_usd);
  EXPECT_LT(got.packed_hits, got.isolated_hits);
}

}  // namespace
}  // namespace crowdsky::service
