// Cross-subsystem chaos suite: governor limits x fault plans x kill
// points x resume, across all three CrowdSky drivers.
//
// Each scenario runs the engine as a real child process (re-exec'd via
// /proc/self/exe, like tests/persist/kill_point_test.cc) with auditing on,
// so every invariant-auditor rule — cost_spent <= cap, reason/ledger
// consistency, journal epilogue placement — is enforced inside the
// workload itself; a violation crashes the child and fails the test. The
// parent then asserts the governed/killed/resumed runs converge to the
// uninterrupted baseline bit-for-bit, and that every scenario is exactly
// reproducible from its seed.
//
// This binary owns main(): with --crowdsky_child it IS the workload;
// otherwise it runs the gtest suite.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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
int RunChaosChildMode(int argc, char** argv);

namespace {

constexpr uint64_t kOffsetSeed = 0xBADC0DE5EEDULL;
constexpr int kCardinality = 40;
constexpr int kKillExitCode = 137;

Algorithm AlgorithmFromName(const std::string& name) {
  if (name == "serial") return Algorithm::kCrowdSkySerial;
  if (name == "dset") return Algorithm::kParallelDSet;
  CROWDSKY_CHECK_MSG(name == "sl", "unknown child algorithm");
  return Algorithm::kParallelSL;
}

}  // namespace

// The child workload: one durable, audited, optionally governed engine
// run that prints a single machine-parseable RESULT line.
int RunChaosChildMode(int argc, char** argv) {
  CROWDSKY_CHECK_MSG(
      argc == 9,
      "--crowdsky_child <algo> <dir> <seed> <fault> <resume> <cap> <rounds>");
  const std::string algo_name = argv[2];
  const std::string dir = argv[3];
  const uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  const double fault_rate = std::atof(argv[5]);
  const bool resume = std::atoi(argv[6]) != 0;
  const double max_cost_usd = std::atof(argv[7]);
  const int64_t max_rounds = std::atoll(argv[8]);

  GeneratorOptions gen;
  gen.cardinality = kCardinality;
  gen.num_known = 2;
  gen.num_crowd = 2;
  gen.seed = seed;
  const Dataset data = GenerateDataset(gen).ValueOrDie();

  EngineOptions opt;
  opt.algorithm = AlgorithmFromName(algo_name);
  opt.seed = seed * 2654435761u + 1;
  opt.crowdsky.audit = true;  // auditor violations crash the child
  opt.durability.dir = dir;
  opt.durability.resume = resume;
  opt.durability.sync = persist::SyncMode::kFlush;
  opt.durability.checkpoint_every_rounds = 3;
  opt.governor.max_cost_usd = max_cost_usd;
  opt.governor.max_rounds = max_rounds;
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
  const TerminationReport& term = r->algo.termination;
  std::printf(
      "RESULT skyline=%s questions=%lld rounds=%lld retries=%lld "
      "cost=%.17g spent=%.17g reason=%s denied=%lld incomplete=%lld "
      "replayed=%lld records=%lld term=%d\n",
      skyline.c_str(), static_cast<long long>(r->algo.questions),
      static_cast<long long>(r->algo.rounds),
      static_cast<long long>(r->algo.retries), r->cost_usd,
      term.cost_spent_usd, TerminationReasonName(term.reason),
      static_cast<long long>(term.denied_questions),
      static_cast<long long>(r->algo.incomplete_tuples),
      static_cast<long long>(r->durability.replayed_pair_attempts),
      static_cast<long long>(r->durability.journal_records),
      r->durability.truncated_termination ? 1 : 0);
  return 0;
}

namespace {

struct ChildRun {
  int exit_code = -1;          ///< WEXITSTATUS, or -signal when signalled
  std::map<std::string, std::string> result;  ///< parsed RESULT k=v pairs
  std::string output;
};

struct Limits {
  double cap = 0.0;      ///< governor dollar cap (0 = off)
  int64_t rounds = 0;    ///< governor round cap (0 = off)
};

std::string ResultField(const ChildRun& run, const std::string& key) {
  const auto it = run.result.find(key);
  return it == run.result.end() ? std::string() : it->second;
}

ChildRun RunChild(const std::string& algo, const std::string& dir,
                  uint64_t seed, double fault_rate, bool resume,
                  Limits limits = {}, long kill_after = 0) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  CROWDSKY_CHECK(len > 0);
  exe[len] = '\0';
  char cap[64];
  std::snprintf(cap, sizeof(cap), "%.17g", limits.cap);
  std::string cmd = "CROWDSKY_JOURNAL_KILL_AFTER=" +
                    std::to_string(kill_after) + " '" + std::string(exe) +
                    "' --crowdsky_child " + algo + " '" + dir + "' " +
                    std::to_string(seed) + " " + std::to_string(fault_rate) +
                    " " + (resume ? "1" : "0") + " " + cap + " " +
                    std::to_string(limits.rounds) + " 2>&1";
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
                          "cost", "reason", "incomplete"}) {
    EXPECT_EQ(ResultField(got, key), ResultField(base, key)) << key;
  }
}

// The driver name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which ASLR changes on every build,
// and that value is part of the test name ctest discovers.
class ChaosTest
    : public ::testing::TestWithParam<std::pair<std::string, double>> {};

// Dollar-capped run -> reproducibility repeat -> resume under an
// effectively unlimited cap -> bit-identical to the ungoverned baseline,
// with every capped-run question replayed from the journal.
TEST_P(ChaosTest, CappedRunExtendsToUngovernedBaseline) {
  const auto [algo, fault_rate] = GetParam();
  const uint64_t seed = 23;
  const ChildRun baseline = RunChild(
      algo, FreshDir(std::string("chaos_base_") + algo), seed, fault_rate,
      /*resume=*/false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  ASSERT_EQ(ResultField(baseline, "reason"), "completed");
  const double full_cost = std::atof(ResultField(baseline, "cost").c_str());
  const Limits cap{/*cap=*/0.5, /*rounds=*/0};
  ASSERT_GT(full_cost, cap.cap) << "cap would not bind";

  const std::string dir = FreshDir(std::string("chaos_cap_") + algo);
  const ChildRun capped =
      RunChild(algo, dir, seed, fault_rate, /*resume=*/false, cap);
  ASSERT_EQ(capped.exit_code, 0) << capped.output;
  EXPECT_EQ(ResultField(capped, "reason"), "dollar_cap");
  EXPECT_LE(std::atof(ResultField(capped, "spent").c_str()),
            cap.cap + 1e-9);
  EXPECT_GT(std::atoi(ResultField(capped, "incomplete").c_str()), 0);

  // Bit-exact reproducibility: the same seed and limits in a fresh
  // directory produce the same capped run, byte for byte.
  const ChildRun repeat = RunChild(
      algo, FreshDir(std::string("chaos_rep_") + algo), seed, fault_rate,
      /*resume=*/false, cap);
  ASSERT_EQ(repeat.exit_code, 0) << repeat.output;
  EXPECT_EQ(repeat.result, capped.result);

  const ChildRun resumed =
      RunChild(algo, dir, seed, fault_rate, /*resume=*/true);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(ResultField(resumed, "term"), "1")
      << "resume should truncate the termination epilogue";
  EXPECT_GT(std::atol(ResultField(resumed, "replayed").c_str()), 0);
  ExpectSameResult(baseline, resumed);
}

// A process kill inside a governed run: the journal ends mid-flight
// (possibly before the governor ever tripped), and a resume under a
// larger cap must still converge to the ungoverned baseline.
TEST_P(ChaosTest, KillInsideGovernedRunStillConverges) {
  const auto [algo, fault_rate] = GetParam();
  const uint64_t seed = 29;
  const ChildRun baseline = RunChild(
      algo, FreshDir(std::string("chaos_kb_") + algo), seed, fault_rate,
      /*resume=*/false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;

  const Limits cap{/*cap=*/0.5, /*rounds=*/0};
  const std::string probe_dir =
      FreshDir(std::string("chaos_kp_probe_") + algo);
  const ChildRun probe =
      RunChild(algo, probe_dir, seed, fault_rate, /*resume=*/false, cap);
  ASSERT_EQ(probe.exit_code, 0) << probe.output;
  const long records = std::atol(ResultField(probe, "records").c_str());
  ASSERT_GT(records, 3) << probe.output;

  for (const long offset : SeededOffsets(kOffsetSeed ^ seed, records, 2)) {
    SCOPED_TRACE(std::string(algo) + ": kill after record " +
                 std::to_string(offset));
    const std::string dir = FreshDir(std::string("chaos_kp_") + algo + "_" +
                                     std::to_string(offset));
    const ChildRun killed = RunChild(algo, dir, seed, fault_rate,
                                     /*resume=*/false, cap, offset);
    EXPECT_EQ(killed.exit_code, kKillExitCode) << killed.output;
    EXPECT_TRUE(killed.result.empty()) << "killed child printed a result";

    const ChildRun resumed =
        RunChild(algo, dir, seed, fault_rate, /*resume=*/true);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_GT(std::atol(ResultField(resumed, "replayed").c_str()), 0);
    ExpectSameResult(baseline, resumed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, ChaosTest,
    ::testing::Values(std::pair<std::string, double>{"serial", 0.0},
                      std::pair<std::string, double>{"dset", 0.06},
                      std::pair<std::string, double>{"sl", 0.0},
                      std::pair<std::string, double>{"sl", 0.06}),
    [](const ::testing::TestParamInfo<std::pair<std::string, double>>&
           param) {
      return param.param.first + (param.param.second > 0 ? "_faulty" : "");
    });

// Chained extensions: $0.30 -> stop -> $0.60 -> stop -> unlimited. Each
// resume truncates the previous termination epilogue, re-admits the
// journal, and spends only the delta; the last one matches the baseline.
TEST(ChaosEdgeTest, ChainedCapExtensionsConverge) {
  const uint64_t seed = 31;
  const ChildRun baseline =
      RunChild("serial", FreshDir("chaos_chain_base"), seed, 0.0, false);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;

  const std::string dir = FreshDir("chaos_chain");
  const ChildRun first = RunChild("serial", dir, seed, 0.0, /*resume=*/false,
                                  Limits{0.3, 0});
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(ResultField(first, "reason"), "dollar_cap");

  const ChildRun second = RunChild("serial", dir, seed, 0.0, /*resume=*/true,
                                   Limits{0.6, 0});
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_EQ(ResultField(second, "reason"), "dollar_cap");
  EXPECT_LE(std::atof(ResultField(second, "spent").c_str()), 0.6 + 1e-9);
  EXPECT_GT(std::atoll(ResultField(second, "questions").c_str()),
            std::atoll(ResultField(first, "questions").c_str()));

  const ChildRun last = RunChild("serial", dir, seed, 0.0, /*resume=*/true);
  ASSERT_EQ(last.exit_code, 0) << last.output;
  ExpectSameResult(baseline, last);
}

// Round caps across all three drivers under faults: the run stops at the
// cap with an audited partial result and resumes to the baseline.
TEST(ChaosEdgeTest, RoundCapAcrossDriversResumes) {
  const uint64_t seed = 37;
  for (const char* algo : {"serial", "dset", "sl"}) {
    SCOPED_TRACE(algo);
    const ChildRun baseline = RunChild(
        algo, FreshDir(std::string("chaos_rc_base_") + algo), seed, 0.05,
        /*resume=*/false);
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    ASSERT_GT(std::atoll(ResultField(baseline, "rounds").c_str()), 2);

    const std::string dir = FreshDir(std::string("chaos_rc_") + algo);
    const ChildRun capped = RunChild(algo, dir, seed, 0.05,
                                     /*resume=*/false, Limits{0.0, 2});
    ASSERT_EQ(capped.exit_code, 0) << capped.output;
    EXPECT_EQ(ResultField(capped, "reason"), "round_cap");
    EXPECT_EQ(ResultField(capped, "rounds"), "2");

    const ChildRun resumed =
        RunChild(algo, dir, seed, 0.05, /*resume=*/true);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    ExpectSameResult(baseline, resumed);
  }
}

// In-process scenario: a token cancelled before the run starts stops the
// engine before the first paid question, even with a faulty marketplace,
// and the auditor accepts the all-undecided partial result.
TEST(ChaosEdgeTest, PreCancelledFaultyRunDegradesGracefully) {
  GeneratorOptions gen;
  gen.cardinality = kCardinality;
  gen.num_known = 2;
  gen.num_crowd = 2;
  gen.seed = 41;
  const Dataset data = GenerateDataset(gen).ValueOrDie();

  CancellationToken token;
  token.Cancel();
  EngineOptions opt;
  opt.algorithm = Algorithm::kParallelSL;
  opt.crowdsky.audit = true;
  opt.oracle = OracleKind::kMarketplace;
  opt.marketplace.faults.transient_error_rate = 0.1;
  opt.governor.cancel = &token;
  const auto r = RunSkylineQuery(data, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algo.questions, 0);
  EXPECT_EQ(r->algo.termination.reason, TerminationReason::kCancelled);
  EXPECT_GT(r->algo.incomplete_tuples, 0);
}

}  // namespace
}  // namespace crowdsky

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--crowdsky_child") == 0) {
    return crowdsky::RunChaosChildMode(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
