// Golden metric dumps.
//
// Every deterministic counter, gauge and histogram a run publishes is a
// view of a ledger the run keeps anyway (the session's stats and per-round
// history, the journal writer, the governor, the service packer). This
// table pins those views for each driver x obs level x run shape — a
// PerfectOracle run, a faulty marketplace run (retries, degraded quorum,
// unresolved questions), a governor-capped journaled run and its uncapped
// resume, and a capped run checkpointed every two rounds and its resume —
// plus one packed RunService batch. A change to how the metrics are
// published must reproduce every row bit for bit.
//
// Columns: the number and CRC32 of the counter and gauge samples under
// the deterministic prefixes, the CRC32 of the Prometheus text without the
// scheduling-dependent pool_ lines (this covers the histogram buckets),
// and crowdsky.free_lookups on its own, so a change to the free-lookup
// ledger moves exactly one column.
//
// A cell with no matching row fails and prints its actual row as a C++
// literal. After an intended change, delete the stale rows and paste the
// printed ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/crowdsky.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "persist/wire.h"
#include "service/service.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

struct GoldenRow {
  const char* cell;
  int64_t samples;       ///< counter + gauge samples under the prefixes
  uint32_t samples_crc;  ///< CRC32 of "name=value\n" for those samples
  uint32_t prom_crc;     ///< CRC32 of the Prometheus text minus pool_ lines
  int64_t free_lookups;  ///< crowdsky.free_lookups (summed for a batch)
};

// Pinned from the build whose session copied its ledgers into live
// counters; publishing them from the ledgers at scrape time reproduces
// every row. The free_lookups column was regenerated once a refused ask
// stopped counting as a free lookup.
const std::vector<GoldenRow> kGolden = {
    {"service/counters/packed3", 63, 2485296448u, 1900987623u, 520},
    {"CrowdSky/counters/perfect", 17, 602543338u, 624930874u, 310},
    {"CrowdSky/full/perfect", 17, 602543338u, 624930874u, 310},
    {"ParallelDSet/counters/perfect", 17, 946116714u, 2975972165u, 310},
    {"ParallelDSet/full/perfect", 17, 946116714u, 2975972165u, 310},
    {"ParallelSL/counters/perfect", 17, 3315986641u, 570933245u, 331},
    {"ParallelSL/full/perfect", 17, 3315986641u, 570933245u, 331},
    {"CrowdSky/counters/faulty", 17, 608462040u, 203106684u, 406},
    {"CrowdSky/full/faulty", 17, 608462040u, 203106684u, 406},
    {"ParallelDSet/counters/faulty", 17, 23021194u, 1260322642u, 559},
    {"ParallelDSet/full/faulty", 17, 23021194u, 1260322642u, 559},
    {"ParallelSL/counters/faulty", 17, 2694543766u, 3098842908u, 557},
    {"ParallelSL/full/faulty", 17, 2694543766u, 3098842908u, 557},
    {"CrowdSky/counters/capped", 26, 3726003307u, 2447967808u, 0},
    {"CrowdSky/counters/capped_resume", 20, 1124119915u, 2979669871u, 0},
    {"CrowdSky/full/capped", 26, 3726003307u, 2447967808u, 0},
    {"CrowdSky/full/capped_resume", 20, 1124119915u, 2979669871u, 0},
    {"ParallelDSet/counters/capped", 26, 3202849247u, 3757452411u, 0},
    {"ParallelDSet/counters/capped_resume", 20, 1638588820u, 1366833452u, 0},
    {"ParallelDSet/full/capped", 26, 3202849247u, 3757452411u, 0},
    {"ParallelDSet/full/capped_resume", 20, 1638588820u, 1366833452u, 0},
    {"ParallelSL/counters/capped", 26, 2893547749u, 2857157804u, 4},
    {"ParallelSL/counters/capped_resume", 20, 4021955542u, 56582072u, 8},
    {"ParallelSL/full/capped", 26, 2893547749u, 2857157804u, 4},
    {"ParallelSL/full/capped_resume", 20, 4021955542u, 56582072u, 8},
    {"CrowdSky/counters/ckpt", 26, 2857118567u, 1977499063u, 0},
    {"CrowdSky/counters/ckpt_resume", 20, 3987102705u, 2338688237u, 0},
    {"CrowdSky/full/ckpt", 26, 2857118567u, 1977499063u, 0},
    {"CrowdSky/full/ckpt_resume", 20, 3987102705u, 2338688237u, 0},
    {"ParallelDSet/counters/ckpt", 26, 3434449148u, 235696226u, 0},
    {"ParallelDSet/counters/ckpt_resume", 20, 2254019884u, 44459769u, 0},
    {"ParallelDSet/full/ckpt", 26, 3434449148u, 235696226u, 0},
    {"ParallelDSet/full/ckpt_resume", 20, 2254019884u, 44459769u, 0},
    {"ParallelSL/counters/ckpt", 26, 2893547749u, 2857157804u, 4},
    {"ParallelSL/counters/ckpt_resume", 20, 3551804173u, 3475556441u, 15},
    {"ParallelSL/full/ckpt", 26, 2893547749u, 2857157804u, 4},
    {"ParallelSL/full/ckpt_resume", 20, 3551804173u, 3475556441u, 15},
};

constexpr const char* kFreeLookups = "crowdsky.free_lookups";

bool Deterministic(const std::string& name) {
  if (name == kFreeLookups) return false;  // its own column
  for (const char* prefix :
       {"crowdsky.", "journal.", "governor.", "service."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Appends the deterministic samples as "name=value\n" lines.
void AppendSamples(
    const std::vector<std::pair<std::string, int64_t>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges,
    std::ostringstream* os, int64_t* count) {
  for (const auto& [name, value] : counters) {
    if (!Deterministic(name)) continue;
    *os << name << '=' << value << '\n';
    ++*count;
  }
  for (const auto& [name, value] : gauges) {
    if (!Deterministic(name)) continue;
    *os << name << '=' << std::setprecision(17) << value << '\n';
    ++*count;
  }
}

/// The Prometheus file without the pool_ metrics (thread-scheduling
/// dependent) and without the free-lookup metric (its own column).
std::string FilteredPrometheus(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string name =
        line.rfind("# TYPE ", 0) == 0 ? line.substr(7) : line;
    if (name.rfind("pool_", 0) == 0) continue;
    if (name.rfind("crowdsky_free_lookups", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string RowLiteral(const GoldenRow& r) {
  std::ostringstream os;
  os << "    {\"" << r.cell << "\", " << r.samples << ", " << r.samples_crc
     << "u, " << r.prom_crc << "u, " << r.free_lookups << "},";
  return os.str();
}

void ExpectGolden(const GoldenRow& actual) {
  const GoldenRow* want = nullptr;
  for (const GoldenRow& row : kGolden) {
    if (std::string(actual.cell) == row.cell) want = &row;
  }
  if (want == nullptr) {
    ADD_FAILURE() << "no golden row; actual:\n" << RowLiteral(actual);
    return;
  }
  EXPECT_EQ(actual.samples, want->samples);
  EXPECT_EQ(actual.samples_crc, want->samples_crc);
  EXPECT_EQ(actual.prom_crc, want->prom_crc);
  EXPECT_EQ(actual.free_lookups, want->free_lookups)
      << "actual:\n" << RowLiteral(actual);
}

/// One engine run's golden row, read from its result and metrics file.
GoldenRow EngineRow(const std::string& cell, const EngineResult& r,
                    const std::string& metrics_path) {
  std::ostringstream samples;
  int64_t count = 0;
  AppendSamples(r.obs.counters, r.obs.gauges, &samples, &count);
  return GoldenRow{cell.c_str(), count, persist::Crc32(samples.str()),
                   persist::Crc32(FilteredPrometheus(metrics_path)),
                   r.obs.CounterOr(kFreeLookups)};
}

Dataset MakeData(int num_crowd) {
  GeneratorOptions gen;
  gen.cardinality = 110;
  gen.num_known = 3;
  gen.num_crowd = num_crowd;
  gen.seed = 17;
  return GenerateDataset(gen).ValueOrDie();
}

using Param = std::tuple<Algorithm, obs::ObsLevel>;

class ObsGoldenTest : public ::testing::TestWithParam<Param> {
 protected:
  /// Runs `opt` with a fresh metrics file and checks the cell's row.
  EngineResult RunCell(const std::string& cell, const Dataset& ds,
                       EngineOptions opt) {
    SCOPED_TRACE(cell);
    opt.obs.level = std::get<1>(GetParam());
    opt.obs.metrics_path = testing::FreshTempPath("obs_golden.prom");
    const auto r = RunSkylineQuery(ds, opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return EngineResult{};
    ExpectGolden(EngineRow(cell, *r, opt.obs.metrics_path));
    return *r;
  }

  std::string Prefix() const {
    return std::string(AlgorithmName(std::get<0>(GetParam()))) + '/' +
           obs::ObsLevelName(std::get<1>(GetParam())) + '/';
  }

  EngineOptions Base() const {
    EngineOptions opt;
    opt.algorithm = std::get<0>(GetParam());
    opt.seed = 9;
    opt.crowdsky.audit = true;
    return opt;
  }
};

TEST_P(ObsGoldenTest, PerfectOracle) {
  EngineOptions opt = Base();
  opt.oracle = OracleKind::kPerfect;
  const EngineResult r = RunCell(Prefix() + "perfect", MakeData(2), opt);
  EXPECT_GT(r.algo.questions, 0);
}

TEST_P(ObsGoldenTest, FaultyMarketplace) {
  EngineOptions opt = Base();
  opt.oracle = OracleKind::kMarketplace;
  opt.marketplace.faults.transient_error_rate = 0.25;
  opt.marketplace.faults.worker_no_show_rate = 0.3;
  opt.retry.max_retries = 1;
  const EngineResult r = RunCell(Prefix() + "faulty", MakeData(2), opt);
  // The cell must reach every fault ledger, or it pins nothing about them.
  EXPECT_GT(r.algo.retries, 0);
  EXPECT_GT(r.algo.degraded_quorum, 0);
  EXPECT_GT(r.algo.completeness.unresolved_questions, 0);
}

TEST_P(ObsGoldenTest, CappedRunAndResume) {
  const Dataset ds = MakeData(1);
  EngineOptions opt = Base();
  opt.oracle = OracleKind::kMarketplace;
  opt.governor.max_cost_usd = 1.0;
  opt.durability.dir = testing::FreshTempDir("obs_golden");
  const EngineResult capped = RunCell(Prefix() + "capped", ds, opt);
  EXPECT_TRUE(capped.algo.termination.governed);
  EXPECT_GT(capped.algo.incomplete_tuples, 0);

  opt.governor.max_cost_usd = 0.0;
  opt.durability.resume = true;
  const EngineResult resumed = RunCell(Prefix() + "capped_resume", ds, opt);
  EXPECT_TRUE(resumed.durability.truncated_termination);
  EXPECT_EQ(resumed.algo.incomplete_tuples, 0);
}

// A capped run checkpointed every two rounds, cut where its final
// checkpoint ends (a crash just before the termination record), then
// resumed uncapped: the resume folds the checkpointed prefix and restores
// its cache hits. That checkpoint was taken after the stop, so it carries
// the capped run's undetermined tuples into the resume.
TEST_P(ObsGoldenTest, CheckpointedRunAndResume) {
  const Dataset ds = MakeData(1);
  EngineOptions opt = Base();
  opt.oracle = OracleKind::kMarketplace;
  opt.governor.max_cost_usd = 1.0;
  opt.durability.dir = testing::FreshTempDir("obs_golden");
  opt.durability.checkpoint_every_rounds = 2;
  const EngineResult capped = RunCell(Prefix() + "ckpt", ds, opt);
  EXPECT_TRUE(capped.algo.termination.governed);

  const auto checkpoint =
      persist::ReadCheckpoint(persist::CheckpointPath(opt.durability.dir));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  const std::string journal = persist::JournalPath(opt.durability.dir);
  const auto records = persist::ReadJournal(journal);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  int64_t bytes = records->valid_bytes;
  for (size_t i = static_cast<size_t>(checkpoint->journal_records);
       i < records->records.size(); ++i) {
    bytes -= static_cast<int64_t>(
        persist::EncodeRecord(records->records[i]).size());
  }
  ASSERT_TRUE(persist::TruncateJournal(journal, bytes).ok());

  opt.governor.max_cost_usd = 0.0;
  opt.durability.resume = true;
  const EngineResult resumed = RunCell(Prefix() + "ckpt_resume", ds, opt);
  EXPECT_TRUE(resumed.durability.used_checkpoint);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ObsGoldenTest,
    ::testing::Combine(::testing::Values(Algorithm::kCrowdSkySerial,
                                         Algorithm::kParallelDSet,
                                         Algorithm::kParallelSL),
                       ::testing::Values(obs::ObsLevel::kCounters,
                                         obs::ObsLevel::kFull)),
    [](const ::testing::TestParamInfo<Param>& p) {
      return std::string(AlgorithmName(std::get<0>(p.param))) + "_" +
             obs::ObsLevelName(std::get<1>(p.param));
    });

TEST(ObsGoldenServiceTest, PackedBatch) {
  std::vector<Dataset> data;
  for (const int num_crowd : {1, 2, 1}) data.push_back(MakeData(num_crowd));
  std::vector<service::ServiceQuery> batch;
  std::vector<std::string> metrics_paths;
  for (size_t i = 0; i < data.size(); ++i) {
    service::ServiceQuery q;
    q.dataset = &data[i];
    q.options.algorithm = i == 1 ? Algorithm::kParallelSL
                                 : Algorithm::kCrowdSkySerial;
    q.options.oracle = OracleKind::kMarketplace;
    q.options.seed = 21 + i;
    q.options.marketplace.faults.transient_error_rate = 0.1;
    q.options.obs.level = obs::ObsLevel::kCounters;
    q.options.obs.metrics_path = testing::FreshTempPath("obs_golden.prom");
    metrics_paths.push_back(q.options.obs.metrics_path);
    batch.push_back(std::move(q));
  }
  service::ServiceOptions options;
  options.max_concurrent = 3;
  options.obs_level = obs::ObsLevel::kCounters;
  options.audit = true;
  const auto report = service::RunService(batch, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->completed, 3);
  EXPECT_LT(report->packing.packed_hits, report->packing.isolated_hits);

  std::ostringstream samples;
  int64_t count = 0;
  AppendSamples(report->counters, report->gauges, &samples, &count);
  std::string prometheus;
  int64_t free_lookups = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const EngineResult& r = report->queries[i].result;
    AppendSamples(r.obs.counters, r.obs.gauges, &samples, &count);
    prometheus += FilteredPrometheus(metrics_paths[i]);
    free_lookups += r.obs.CounterOr(kFreeLookups);
  }
  ExpectGolden(GoldenRow{"service/counters/packed3", count,
                         persist::Crc32(samples.str()),
                         persist::Crc32(prometheus), free_lookups});
}

}  // namespace
}  // namespace crowdsky
