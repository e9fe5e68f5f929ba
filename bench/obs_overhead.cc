// Observability overhead: what the obs layer costs when it is off,
// counting, and tracing. Runs ParallelSL over a mid-sized synthetic
// dataset at each ObsLevel and measures wall time plus the recorded
// counter/trace volume. The disabled level must be free (the span sites
// reduce to one null check), counters cost one end-of-run pass that
// publishes the run's ledgers into the registry (at most 2%), and full
// tracing buys the Chrome timeline for a modest wall-clock premium. Emits
// BENCH_observability.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
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
  JsonReportScope report("observability");
  const int runs = Runs();
  const int card = Scaled(400);
  std::printf(
      "Observability overhead: ParallelSL at each obs level (n=%d, "
      "%d runs per cell, %d threads)\n",
      card, runs, Threads());

  GeneratorOptions gen;
  gen.cardinality = card;
  gen.num_known = 3;
  gen.num_crowd = 2;
  gen.seed = 7;
  const Dataset ds = GenerateDataset(gen).ValueOrDie();

  const obs::ObsLevel levels[] = {obs::ObsLevel::kDisabled,
                                  obs::ObsLevel::kCounters,
                                  obs::ObsLevel::kFull};

  Table table({"level", "wall ms", "questions", "rounds", "counters",
               "trace events"});
  table.PrintHeader();

  for (const obs::ObsLevel level : levels) {
    double wall_ms = 0;
    int64_t questions = 0, rounds = 0, counters = 0, trace_events = 0;
    for (int run = 0; run < runs; ++run) {
      EngineOptions options;
      options.algorithm = Algorithm::kParallelSL;
      options.obs.level = level;
      const auto start = std::chrono::steady_clock::now();
      const auto r = RunSkylineQuery(ds, options);
      const double ms = MillisSince(start);
      r.status().CheckOK();
      wall_ms += ms;
      questions = r->algo.questions;
      rounds = r->algo.rounds;
      counters = static_cast<int64_t>(r->obs.counters.size());
      trace_events = r->obs.trace_events;
      BenchReport::Get().AddCell(
          "observability", std::string("n=") + std::to_string(card),
          obs::ObsLevelName(level), run,
          {{"wall_ms", ms},
           {"questions", static_cast<double>(r->algo.questions)},
           {"rounds", static_cast<double>(r->algo.rounds)},
           {"counters", static_cast<double>(counters)},
           {"trace_events", static_cast<double>(r->obs.trace_events)}});
    }
    table.PrintCell(obs::ObsLevelName(level));
    table.PrintCell(wall_ms / runs);
    table.PrintCell(questions);
    table.PrintCell(rounds);
    table.PrintCell(counters);
    table.PrintCell(trace_events);
    table.EndRow();
  }
  return 0;
}
