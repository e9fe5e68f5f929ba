// Kill-point replay harness: each CrowdSky driver runs as a real child
// process whose journal writer _Exit(137)s after a seeded number of
// durable records (CROWDSKY_JOURNAL_KILL_AFTER). The parent then resumes
// the run from the half-written directory and asserts the final skyline,
// paid-question count, round history, and cost are bit-identical to an
// uninterrupted run — with nothing re-paid and the invariant auditor's
// journal rules holding on the resumed half.
//
// This binary owns main(): with --crowdsky_child it IS the workload
// (re-exec'd via /proc/self/exe); otherwise it runs the gtest suite.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/engine.h"
#include "data/generator.h"
#include "testing/temp_dir.h"

namespace crowdsky {

// Not in the anonymous namespace: main() below re-enters here in child
// mode.
int RunChildMode(int argc, char** argv);

namespace {

constexpr uint64_t kOffsetSeed = 0xC0FFEE5EEDULL;
constexpr int kCardinality = 40;
constexpr int kKillExitCode = 137;

Algorithm AlgorithmFromName(const std::string& name) {
  if (name == "serial") return Algorithm::kCrowdSkySerial;
  if (name == "dset") return Algorithm::kParallelDSet;
  CROWDSKY_CHECK_MSG(name == "sl", "unknown child algorithm");
  return Algorithm::kParallelSL;
}

}  // namespace

// The child workload: one durable engine run that prints a single
// machine-parseable RESULT line and exits 0 (unless the kill hook fires
// first).
int RunChildMode(int argc, char** argv) {
  CROWDSKY_CHECK_MSG(argc == 7,
                     "--crowdsky_child <algo> <dir> <seed> <fault> <resume>");
  const std::string algo_name = argv[2];
  const std::string dir = argv[3];
  const uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  const double fault_rate = std::atof(argv[5]);
  const bool resume = std::atoi(argv[6]) != 0;

  GeneratorOptions gen;
  gen.cardinality = kCardinality;
  gen.num_known = 2;
  gen.num_crowd = 2;
  gen.seed = seed;
  const Dataset data = GenerateDataset(gen).ValueOrDie();

  EngineOptions opt;
  opt.algorithm = AlgorithmFromName(algo_name);
  opt.seed = seed * 2654435761u + 1;
  opt.crowdsky.audit = true;  // journal/ledger rules checked at the end
  opt.durability.dir = dir;
  opt.durability.resume = resume;
  opt.durability.sync = persist::SyncMode::kFlush;
  if (fault_rate > 0.0) {
    opt.oracle = OracleKind::kMarketplace;
    opt.marketplace.faults.transient_error_rate = fault_rate;
    opt.marketplace.faults.hit_expiration_rate = fault_rate / 2;
    opt.marketplace.faults.worker_no_show_rate = fault_rate;
    opt.marketplace.faults.straggler_rate = fault_rate / 2;
  }

  const auto r = RunSkylineQuery(data, opt);
  if (!r.ok()) {
    std::fprintf(stderr, "child run failed: %s\n",
                 r.status().ToString().c_str());
    return 3;
  }
  std::string skyline;
  for (const int t : r->algo.skyline) {
    if (!skyline.empty()) skyline += ',';
    skyline += std::to_string(t);
  }
  std::printf(
      "RESULT skyline=%s questions=%lld rounds=%lld retries=%lld "
      "free_lookups=%lld contradictions=%lld cost=%.17g replayed=%lld "
      "records=%lld torn=%d\n",
      skyline.c_str(), static_cast<long long>(r->algo.questions),
      static_cast<long long>(r->algo.rounds),
      static_cast<long long>(r->algo.retries),
      static_cast<long long>(r->algo.free_lookups),
      static_cast<long long>(r->algo.contradictions), r->cost_usd,
      static_cast<long long>(r->durability.replayed_pair_attempts),
      static_cast<long long>(r->durability.journal_records),
      r->durability.recovered_torn_tail ? 1 : 0);
  return 0;
}

namespace {

struct ChildRun {
  int exit_code = -1;          ///< WEXITSTATUS, or -signal when signalled
  std::map<std::string, std::string> result;  ///< parsed RESULT k=v pairs
  std::string output;
};

std::string ResultField(const ChildRun& run, const std::string& key) {
  const auto it = run.result.find(key);
  return it == run.result.end() ? std::string() : it->second;
}

ChildRun RunChild(const std::string& algo, const std::string& dir,
                  uint64_t seed, double fault_rate, bool resume,
                  long kill_after = 0, long kill_tear = 0) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  CROWDSKY_CHECK(len > 0);
  exe[len] = '\0';
  std::string cmd = "CROWDSKY_JOURNAL_KILL_AFTER=" +
                    std::to_string(kill_after) +
                    " CROWDSKY_JOURNAL_KILL_TEAR=" +
                    std::to_string(kill_tear) + " '" + std::string(exe) +
                    "' --crowdsky_child " + algo + " '" + dir + "' " +
                    std::to_string(seed) + " " + std::to_string(fault_rate) +
                    " " + (resume ? "1" : "0") + " 2>&1";
  ChildRun out;
  FILE* pipe = popen(cmd.c_str(), "r");
  CROWDSKY_CHECK(pipe != nullptr);
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    out.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.exit_code = -WTERMSIG(status);
  }
  const size_t pos = out.output.rfind("RESULT ");
  if (pos != std::string::npos) {
    const size_t end = out.output.find('\n', pos);
    std::istringstream line(out.output.substr(pos + 7, end - pos - 7));
    std::string token;
    while (line >> token) {
      const size_t eq = token.find('=');
      if (eq != std::string::npos) {
        out.result[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
  }
  return out;
}

// ctest runs each parameterized instance as its own process, in
// parallel; folding the running test's unique name into the directory
// keeps concurrent instances (e.g. sl vs sl_faulty, which share the
// algo string) from stomping each other's journals.
std::string FreshDir(const std::string& name) {
  return crowdsky::testing::FreshTempDir(name);
}

/// `count` distinct seeded kill offsets in [1, records - 1].
std::vector<long> SeededOffsets(uint64_t seed, long records, int count) {
  CROWDSKY_CHECK(records > count);
  uint64_t state = seed;
  std::set<long> offsets;
  while (static_cast<int>(offsets.size()) < count) {
    offsets.insert(1 + static_cast<long>(
                           SplitMix64(&state) %
                           static_cast<uint64_t>(records - 1)));
  }
  return {offsets.begin(), offsets.end()};
}

void ExpectSameResult(const ChildRun& base, const ChildRun& got) {
  for (const char* key : {"skyline", "questions", "rounds", "retries",
                          "free_lookups", "contradictions", "cost",
                          "records"}) {
    EXPECT_EQ(ResultField(got, key), ResultField(base, key)) << key;
  }
}

// The driver name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which ASLR changes on every build,
// and that value is part of the test name ctest discovers.
class KillPointTest
    : public ::testing::TestWithParam<std::pair<std::string, double>> {};

TEST_P(KillPointTest, SeededKillsResumeBitIdentically) {
  const auto [algo, fault_rate] = GetParam();
  const uint64_t seed = 5;
  const ChildRun baseline = RunChild(
      algo, FreshDir(std::string("kp_base_") + algo), seed, fault_rate,
      /*resume=*/false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const long records = std::atol(ResultField(baseline, "records").c_str());
  ASSERT_GT(records, 4) << baseline.output;

  for (const long offset : SeededOffsets(kOffsetSeed, records, 3)) {
    SCOPED_TRACE(std::string(algo) + ": kill after record " +
                 std::to_string(offset));
    const std::string dir =
        FreshDir(std::string("kp_") + algo + "_" + std::to_string(offset));
    const ChildRun killed = RunChild(algo, dir, seed, fault_rate,
                                     /*resume=*/false, offset);
    EXPECT_EQ(killed.exit_code, kKillExitCode) << killed.output;
    EXPECT_TRUE(killed.result.empty()) << "killed child printed a result";

    const ChildRun resumed =
        RunChild(algo, dir, seed, fault_rate, /*resume=*/true);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    ExpectSameResult(baseline, resumed);
    EXPECT_GT(std::atol(ResultField(resumed, "replayed").c_str()), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, KillPointTest,
    ::testing::Values(std::pair<std::string, double>{"serial", 0.0},
                      std::pair<std::string, double>{"dset", 0.0},
                      std::pair<std::string, double>{"sl", 0.0},
                      std::pair<std::string, double>{"sl", 0.08}),
    [](const ::testing::TestParamInfo<std::pair<std::string, double>>&
           param) {
      return param.param.first + (param.param.second > 0 ? "_faulty" : "");
    });

TEST(KillPointEdgeTest, DoubleKillStillConverges) {
  const uint64_t seed = 11;
  const ChildRun baseline =
      RunChild("dset", FreshDir("kp_double_base"), seed, 0.0, false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string dir = FreshDir("kp_double");
  const ChildRun first = RunChild("dset", dir, seed, 0.0, false,
                                  /*kill_after=*/4);
  EXPECT_EQ(first.exit_code, kKillExitCode) << first.output;
  // The resumed process is killed too — after it appends 3 *new* records.
  const ChildRun second = RunChild("dset", dir, seed, 0.0, true,
                                   /*kill_after=*/3);
  EXPECT_EQ(second.exit_code, kKillExitCode) << second.output;
  const ChildRun final_run = RunChild("dset", dir, seed, 0.0, true);
  ASSERT_EQ(final_run.exit_code, 0) << final_run.output;
  ExpectSameResult(baseline, final_run);
}

TEST(KillPointEdgeTest, TornInFlightRecordIsDiscardedOnResume) {
  const uint64_t seed = 17;
  const ChildRun baseline =
      RunChild("sl", FreshDir("kp_torn_base"), seed, 0.0, false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string dir = FreshDir("kp_torn");
  // Die with 23 garbage bytes of a half-written record on disk.
  const ChildRun killed = RunChild("sl", dir, seed, 0.0, false,
                                   /*kill_after=*/5, /*kill_tear=*/23);
  EXPECT_EQ(killed.exit_code, kKillExitCode) << killed.output;
  const ChildRun resumed = RunChild("sl", dir, seed, 0.0, true);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  ExpectSameResult(baseline, resumed);
  EXPECT_EQ(ResultField(resumed, "torn"), "1");
}

}  // namespace
}  // namespace crowdsky

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--crowdsky_child") == 0) {
    return crowdsky::RunChildMode(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
