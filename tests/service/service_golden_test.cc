// Golden packing ledgers of the multi-query service.
//
// The packing ledger is a pure function of the submission list and the
// ServiceOptions: admission, queueing and rejection, budget slicing, and
// the epoch each round of each query rides. This table pins that function
// over a grid of scheduling knobs, so a change to how the service runs its
// queries must reproduce every row bit for bit.
//
// Grid: max_concurrent ∈ {1, 2, 3, 8} × max_queue ∈ {unbounded, 1} ×
// total_budget_usd ∈ {0, a slice tight enough to trip governor caps} ×
// pack classes ∈ {one (5 questions per HIT), two (5 and 3, alternating by
// query)}. Every cell submits the same seven queries — the three drivers
// in rotation, on the faulty marketplace of the perfbench service_packed
// workload — with the service auditor on.
//
// Columns: the ledger totals, the bits of both dollar totals, the CRC32
// of every span's (epoch, pricing, query_slots), and the CRC32 of every
// query's (admitted, status code, bits of budget_slice_usd, slots,
// isolated_hits).
//
// A cell with no matching row fails and prints its actual row as a C++
// literal. After an intended change, delete the stale rows and paste the
// printed ones.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/crowdsky.h"
#include "persist/wire.h"
#include "service/service.h"

namespace crowdsky::service {
namespace {

struct GoldenRow {
  const char* cell;
  int64_t epochs;
  int64_t slots;
  int64_t packed_hits;
  int64_t isolated_hits;
  uint64_t packed_usd_bits;
  uint64_t isolated_usd_bits;
  uint32_t spans_crc;    ///< CRC32 of (epoch, pricing, query_slots) per span
  uint32_t queries_crc;  ///< CRC32 of the per-query outcome fields
};

// Pinned from the build whose queries ran on one driver thread each and
// met at a condition-variable barrier between crowd rounds.
const std::vector<GoldenRow> kGolden = {
    {"c1_qinf_free_pack5", 299, 469, 309, 309, 0x403ee66666666690ull,
     0x403ee66666666690ull, 1607886226u, 2577782355u},
    {"c1_qinf_free_pack5and3", 299, 469, 322, 322, 0x40401999999999adull,
     0x40401999999999adull, 287162708u, 1574877259u},
    {"c1_qinf_tight_pack5", 65, 132, 70, 70, 0x401bfffffffffff9ull,
     0x401bfffffffffff9ull, 3526023917u, 463765334u},
    {"c1_qinf_tight_pack5and3", 60, 115, 67, 67, 0x401accccccccccc7ull,
     0x401accccccccccc7ull, 655277529u, 4188233234u},
    {"c1_q1_free_pack5", 71, 88, 71, 71, 0x401c66666666665cull,
     0x401c66666666665cull, 4234015498u, 1418228006u},
    {"c1_q1_free_pack5and3", 71, 88, 72, 72, 0x401cccccccccccc3ull,
     0x401cccccccccccc3ull, 2290634512u, 1027902763u},
    {"c1_q1_tight_pack5", 68, 85, 68, 68, 0x401b33333333332aull,
     0x401b33333333332aull, 1582884720u, 2162029649u},
    {"c1_q1_tight_pack5and3", 66, 83, 67, 67, 0x401accccccccccc5ull,
     0x401accccccccccc5ull, 4111477684u, 2903928444u},
    {"c2_qinf_free_pack5", 182, 469, 201, 309, 0x40341999999999a0ull,
     0x403ee66666666675ull, 1956793595u, 2577782355u},
    {"c2_qinf_free_pack5and3", 182, 469, 312, 322, 0x403f333333333356ull,
     0x40401999999999abull, 374835271u, 1574877259u},
    {"c2_qinf_tight_pack5", 37, 132, 46, 70, 0x4012666666666665ull,
     0x401bfffffffffffeull, 657715530u, 463765334u},
    {"c2_qinf_tight_pack5and3", 33, 115, 62, 67, 0x4018ccccccccccc9ull,
     0x401acccccccccccbull, 1876491835u, 4188233234u},
    {"c2_q1_free_pack5", 47, 141, 50, 88, 0x4013ffffffffffffull,
     0x402199999999999aull, 2231158881u, 1611954996u},
    {"c2_q1_free_pack5and3", 47, 141, 89, 89, 0x4021ccccccccccc6ull,
     0x4021ccccccccccc6ull, 370610043u, 1639043714u},
    {"c2_q1_tight_pack5", 37, 109, 40, 63, 0x4010000000000002ull,
     0x4019333333333331ull, 1847181007u, 650487386u},
    {"c2_q1_tight_pack5and3", 36, 108, 61, 62, 0x4018666666666663ull,
     0x4018cccccccccccaull, 2540453984u, 1955607123u},
    {"c3_qinf_free_pack5", 130, 469, 158, 309, 0x402f99999999998aull,
     0x403ee66666666681ull, 3608928685u, 2577782355u},
    {"c3_qinf_free_pack5and3", 130, 469, 250, 322, 0x403900000000001dull,
     0x40401999999999a6ull, 586100099u, 1574877259u},
    {"c3_qinf_tight_pack5", 27, 132, 40, 70, 0x4010000000000002ull,
     0x401bfffffffffffdull, 1433294444u, 463765334u},
    {"c3_qinf_tight_pack5and3", 24, 115, 52, 67, 0x4014ccccccccccc9ull,
     0x401accccccccccccull, 3327362261u, 4188233234u},
    {"c3_q1_free_pack5", 86, 218, 95, 160, 0x4022fffffffffff6ull,
     0x402ffffffffffff6ull, 2503334628u, 837429287u},
    {"c3_q1_free_pack5and3", 86, 218, 127, 161, 0x4029666666666657ull,
     0x4030199999999992ull, 17175889u, 746535920u},
    {"c3_q1_tight_pack5", 31, 112, 39, 68, 0x400f333333333337ull,
     0x401b33333333332cull, 2271144509u, 2765393569u},
    {"c3_q1_tight_pack5and3", 30, 110, 53, 66, 0x4015333333333330ull,
     0x401a666666666662ull, 2567029155u, 3974676062u},
    {"c8_qinf_free_pack5", 72, 469, 125, 309, 0x4028fffffffffff8ull,
     0x403ee66666666662ull, 3100242961u, 2577782355u},
    {"c8_qinf_free_pack5and3", 72, 469, 191, 322, 0x403319999999999dull,
     0x40401999999999a4ull, 2234800517u, 1574877259u},
    {"c8_qinf_tight_pack5", 10, 132, 29, 70, 0x4007333333333334ull,
     0x401c000000000000ull, 3117559833u, 463765334u},
    {"c8_qinf_tight_pack5and3", 10, 115, 35, 67, 0x400c000000000002ull,
     0x401accccccccccceull, 4077938916u, 4188233234u},
    {"c8_q1_free_pack5", 72, 469, 125, 309, 0x4028fffffffffff8ull,
     0x403ee66666666662ull, 3100242961u, 2577782355u},
    {"c8_q1_free_pack5and3", 72, 469, 191, 322, 0x403319999999999dull,
     0x40401999999999a4ull, 2234800517u, 1574877259u},
    {"c8_q1_tight_pack5", 10, 132, 29, 70, 0x4007333333333334ull,
     0x401c000000000000ull, 3117559833u, 463765334u},
    {"c8_q1_tight_pack5and3", 10, 115, 35, 67, 0x400c000000000002ull,
     0x401accccccccccceull, 4077938916u, 4188233234u},
};

constexpr int kQueries = 7;
/// Service-wide budget of the capped cells. Uncapped, these queries cost
/// $1.70-$7.20 each; the slice is $3.50 when two are admitted and $1 when
/// all seven are, so some or all of them stop at their dollar cap.
constexpr double kTightBudgetUsd = 7.0;

std::string RowLiteral(const GoldenRow& r) {
  std::ostringstream os;
  os << "    {\"" << r.cell << "\", " << r.epochs << ", " << r.slots << ", "
     << r.packed_hits << ", " << r.isolated_hits << ", 0x" << std::hex
     << r.packed_usd_bits << "ull,\n     0x" << r.isolated_usd_bits
     << "ull, " << std::dec << r.spans_crc << "u, " << r.queries_crc << "u},";
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
  EXPECT_EQ(actual.epochs, want->epochs);
  EXPECT_EQ(actual.slots, want->slots);
  EXPECT_EQ(actual.packed_hits, want->packed_hits);
  EXPECT_EQ(actual.isolated_hits, want->isolated_hits);
  EXPECT_EQ(actual.packed_usd_bits, want->packed_usd_bits);
  EXPECT_EQ(actual.isolated_usd_bits, want->isolated_usd_bits);
  EXPECT_EQ(actual.spans_crc, want->spans_crc);
  EXPECT_EQ(actual.queries_crc, want->queries_crc)
      << "actual:\n" << RowLiteral(actual);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

const std::vector<Dataset>& Datasets() {
  static const std::vector<Dataset> datasets = [] {
    std::vector<Dataset> out;
    for (int i = 0; i < kQueries; ++i) {
      GeneratorOptions gen;
      gen.cardinality = 30 + 6 * i;
      gen.num_known = 2;
      gen.num_crowd = 1;
      gen.distribution = i % 2 == 0 ? DataDistribution::kIndependent
                                    : DataDistribution::kAntiCorrelated;
      gen.seed = uint64_t{0x601d} + static_cast<uint64_t>(i) * 131;
      out.push_back(GenerateDataset(gen).ValueOrDie());
    }
    return out;
  }();
  return datasets;
}

/// Query i: driver i mod 3 on the faulty marketplace, priced at
/// `odd_qph` questions per HIT when i is odd and 5 otherwise.
std::vector<ServiceQuery> Submission(int odd_qph) {
  static constexpr Algorithm kDrivers[] = {Algorithm::kCrowdSkySerial,
                                           Algorithm::kParallelDSet,
                                           Algorithm::kParallelSL};
  std::vector<ServiceQuery> queries;
  for (int i = 0; i < kQueries; ++i) {
    ServiceQuery query;
    query.dataset = &Datasets()[static_cast<size_t>(i)];
    EngineOptions& o = query.options;
    o.algorithm = kDrivers[i % 3];
    o.seed = uint64_t{0x5eed} + static_cast<uint64_t>(i) * 7919;
    o.workers_per_question = 5;
    o.worker.p_correct = 0.8;
    o.oracle = OracleKind::kMarketplace;
    o.marketplace.gold_questions = 10;
    o.marketplace.faults.transient_error_rate = 0.05;
    o.marketplace.faults.worker_no_show_rate = 0.10;
    o.marketplace.faults.straggler_rate = 0.05;
    o.marketplace.faults.hit_expiration_rate = 0.02;
    o.retry.max_retries = 3;
    o.cost_model.questions_per_hit = i % 2 == 1 ? odd_qph : 5;
    queries.push_back(query);
  }
  return queries;
}

GoldenRow ReportRow(const std::string& cell, const ServiceReport& report) {
  std::ostringstream spans;
  for (const EpochClassSpan& span : report.spans) {
    spans << span.epoch << ' ' << Bits(span.pricing.reward_per_hit) << ' '
          << span.pricing.workers_per_question << ' '
          << span.pricing.questions_per_hit;
    for (const auto& [query_id, slots] : span.query_slots) {
      spans << ' ' << query_id << ':' << slots;
    }
    spans << '\n';
  }
  std::ostringstream queries;
  for (const QueryOutcome& q : report.queries) {
    queries << q.admitted << ' ' << static_cast<int>(q.status.code()) << ' '
            << Bits(q.budget_slice_usd) << ' ' << q.slots << ' '
            << q.isolated_hits << '\n';
  }
  const PackingLedger& p = report.packing;
  return GoldenRow{cell.c_str(),
                   p.epochs,
                   p.slots,
                   p.packed_hits,
                   p.isolated_hits,
                   Bits(p.cost_packed_usd),
                   Bits(p.cost_isolated_usd),
                   persist::Crc32(spans.str()),
                   persist::Crc32(queries.str())};
}

/// (max_concurrent, max_queue, total_budget_usd, odd-query questions/HIT)
using Cell = std::tuple<int, int, double, int>;

std::string CellName(const Cell& cell) {
  const auto& [max_concurrent, max_queue, budget, odd_qph] = cell;
  std::ostringstream name;
  name << 'c' << max_concurrent << "_q";
  if (max_queue < 0) {
    name << "inf";
  } else {
    name << max_queue;
  }
  name << (budget > 0.0 ? "_tight" : "_free") << "_pack5";
  if (odd_qph != 5) name << "and" << odd_qph;
  return name.str();
}

class ServiceGoldenTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ServiceGoldenTest, PackingLedger) {
  const auto& [max_concurrent, max_queue, budget, odd_qph] = GetParam();
  ServiceOptions options;
  options.max_concurrent = max_concurrent;
  options.max_queue = max_queue;
  options.total_budget_usd = budget;
  options.audit = true;
  const auto report = RunService(Submission(odd_qph), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed, 0);
  if (budget > 0.0) {
    // The slice must actually bind somewhere, or the cell pins nothing
    // the free cells do not.
    bool capped = false;
    for (const QueryOutcome& q : report->queries) {
      capped = capped || q.result.algo.termination.reason ==
                             TerminationReason::kDollarCap;
    }
    EXPECT_TRUE(capped);
  }
  ExpectGolden(ReportRow(CellName(GetParam()), *report));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServiceGoldenTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 8),
                       ::testing::Values(-1, 1),
                       ::testing::Values(0.0, kTightBudgetUsd),
                       ::testing::Values(5, 3)),
    [](const ::testing::TestParamInfo<Cell>& p) {
      return CellName(p.param);
    });

}  // namespace
}  // namespace crowdsky::service
