// Durability sweep: what crash safety costs. Runs ParallelSL with the
// answer journal off / buffered / flush(write-per-record) / fsync and
// measures wall time, journal size and record count, then times the
// resume path (replaying a completed journal instead of re-asking the
// crowd). Per-record fsync dominates everything else, which is why
// kFlush — durable across process death, the kill-point tests' threat
// model — is the default. Emits BENCH_durability.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "core/crowdsky.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace crowdsky;  // NOLINT(google-build-using-namespace): bench mains read like paper pseudocode
  using namespace crowdsky::bench;  // NOLINT(google-build-using-namespace): bench mains read like paper pseudocode
  namespace fs = std::filesystem;
  JsonReportScope report("durability");
  const int runs = Runs();
  const int card = Scaled(200);
  std::printf(
      "Durability sweep: ParallelSL with the answer journal off vs on "
      "(n=%d, omega=5, %d runs per cell)\n",
      card, runs);

  const fs::path root =
      fs::temp_directory_path() / "crowdsky_durability_sweep";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);

  struct Mode {
    const char* name;
    bool durable;
    persist::SyncMode sync;
  };
  const Mode modes[] = {{"off", false, persist::SyncMode::kBuffered},
                        {"buffered", true, persist::SyncMode::kBuffered},
                        {"flush", true, persist::SyncMode::kFlush},
                        {"fsync", true, persist::SyncMode::kFsync}};

  Table table({"journal", "wall ms", "resume ms", "records", "bytes",
               "questions", "rounds", "cost"});
  table.PrintHeader();

  for (const Mode& mode : modes) {
    double wall_ms = 0, resume_ms = 0, records = 0, bytes = 0;
    double questions = 0, rounds = 0, replayed = 0, cost = 0;
    for (int run = 0; run < runs; ++run) {
      GeneratorOptions gen;
      gen.cardinality = card;
      gen.num_known = 2;
      gen.num_crowd = 2;
      gen.seed = 7100 + static_cast<uint64_t>(run) * 97;
      const Dataset ds = GenerateDataset(gen).ValueOrDie();

      const fs::path dir =
          root / (std::string(mode.name) + "_" + std::to_string(run));
      fs::create_directories(dir);

      EngineOptions opts;
      opts.algorithm = Algorithm::kParallelSL;
      opts.oracle = OracleKind::kSimulated;
      opts.seed = gen.seed * 31 + 7;
      if (mode.durable) {
        opts.durability.dir = dir.string();
        opts.durability.sync = mode.sync;
      }

      const auto fresh_start = std::chrono::steady_clock::now();
      const EngineResult r = RunSkylineQuery(ds, opts).ValueOrDie();
      wall_ms += MillisSince(fresh_start);
      questions += static_cast<double>(r.algo.questions);
      rounds += static_cast<double>(r.algo.rounds);
      cost += r.cost_usd;
      records += static_cast<double>(r.durability.journal_records);

      if (mode.durable) {
        bytes += static_cast<double>(
            fs::file_size(dir / "journal.bin", ec));
        // Resume over the completed journal: every paid question replays
        // from disk, none is re-paid — this times the recovery path.
        opts.durability.resume = true;
        const auto resume_start = std::chrono::steady_clock::now();
        const EngineResult again = RunSkylineQuery(ds, opts).ValueOrDie();
        resume_ms += MillisSince(resume_start);
        replayed +=
            static_cast<double>(again.durability.replayed_pair_attempts +
                                again.durability.replayed_unary_questions);
        if (again.durability.new_records != 0 ||
            again.cost_usd != r.cost_usd) {
          std::fprintf(stderr,
                       "durability_sweep: resume re-paid questions in mode "
                       "%s run %d\n",
                       mode.name, run);
          return 1;
        }
      }
    }
    const double d = runs;
    table.PrintCell(mode.name);
    table.PrintCell(wall_ms / d, 2);
    if (mode.durable) {
      table.PrintCell(resume_ms / d, 2);
    } else {
      table.PrintCell("-");
    }
    table.PrintCell(static_cast<int64_t>(records / d + 0.5));
    table.PrintCell(static_cast<int64_t>(bytes / d + 0.5));
    table.PrintCell(static_cast<int64_t>(questions / d + 0.5));
    table.PrintCell(static_cast<int64_t>(rounds / d + 0.5));
    table.PrintCell(cost / d, 2);
    table.EndRow();
    BenchReport::Get().AddCell(
        "durability", mode.name, "ParallelSL", 0,
        {{"wall_ms", wall_ms / d},
         {"resume_ms", mode.durable ? resume_ms / d : 0.0},
         {"journal_records", records / d},
         {"journal_bytes", bytes / d},
         {"replayed", replayed / d},
         {"questions", questions / d},
         {"rounds", rounds / d},
         {"cost", cost / d}});
  }

  fs::remove_all(root, ec);
  std::printf(
      "\n(The resume column replays the whole completed journal without "
      "asking the oracle; new_records stays 0, i.e. nothing is re-paid. "
      "kFlush is the default: it survives process death, which is the "
      "kill-point tests' crash model.)\n");
  return 0;
}
