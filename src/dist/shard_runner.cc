#include "dist/shard_runner.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "core/engine.h"
#include "data/csv.h"
#include "dist/partition.h"
#include "dist/wire.h"

namespace crowdsky::dist {
namespace {

/// Coarse sleep built on nanosleep (signal-safe, no chrono clock read).
void SleepMs(int64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000L);
  nanosleep(&ts, nullptr);
}

/// Injected hang: stop making progress (and stop heartbeating) forever.
/// The supervisor's heartbeat timeout is the only way out.
[[noreturn]] void HangForever() {
  for (;;) SleepMs(1000);
}

/// Line-oriented heartbeat writer over the inherited pipe fd. Write errors
/// are ignored: a shard whose supervisor died keeps computing, and the
/// result file is the authoritative output channel anyway.
class Heartbeat {
 public:
  explicit Heartbeat(int fd) : fd_(fd) {}

  void Send(const std::string& line) {
    if (fd_ < 0) return;
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          write(fd_, framed.data() + off, framed.size() - off);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

 private:
  int fd_;
};

int FailWithResult(const std::string& shard_dir, const std::string& error) {
  ShardResult r;
  r.ok = false;
  r.error = error;
  // Best-effort: the nonzero exit code is the authoritative signal.
  const Status ignored =
      WriteFileAtomic(shard_dir + "/result.txt", EncodeShardResult(r));
  (void)ignored;
  std::fprintf(stderr, "crowdsky shard: %s\n", error.c_str());
  return 1;
}

}  // namespace

int RunShardChildMode(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s --crowdsky_shard <spec-file>\n",
                 argc > 0 ? argv[0] : "shard");
    return 2;
  }
  // The supervisor may close its read end between our writes; computing on
  // regardless beats dying on SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  Result<std::string> spec_text = ReadFileToString(argv[2]);
  if (!spec_text.ok()) {
    std::fprintf(stderr, "crowdsky shard: %s\n",
                 spec_text.status().ToString().c_str());
    return 2;
  }
  Result<ShardSpec> spec_or = DecodeShardSpec(spec_text.ValueOrDie());
  if (!spec_or.ok()) {
    std::fprintf(stderr, "crowdsky shard: %s\n",
                 spec_or.status().ToString().c_str());
    return 2;
  }
  const ShardSpec spec = std::move(spec_or).ValueOrDie();

  if (spec.slow_start_ms > 0) SleepMs(spec.slow_start_ms);
  if (spec.hang_at_start) HangForever();

  Heartbeat heartbeat(spec.heartbeat_fd);
  heartbeat.Send("HELLO shard=" + std::to_string(spec.shard) +
                 " gen=" + std::to_string(spec.generation));

  // Journal kill hooks are per-incarnation: arm or disarm them explicitly
  // so a restarted shard never inherits its predecessor's crash plan. The
  // setenv is safe: this is the child's main thread, RunShardChildMode runs
  // first thing in main(), and no other thread exists yet (the thread pool
  // starts lazily, inside the engine run below).
  if (spec.kill_at_record > 0) {
    setenv("CROWDSKY_JOURNAL_KILL_AFTER",
           std::to_string(spec.kill_at_record).c_str(), 1);
    if (spec.tear_bytes > 0) {
      setenv("CROWDSKY_JOURNAL_KILL_TEAR",
             std::to_string(spec.tear_bytes).c_str(), 1);
    } else {
      unsetenv("CROWDSKY_JOURNAL_KILL_TEAR");
    }
  } else {
    unsetenv("CROWDSKY_JOURNAL_KILL_AFTER");
    unsetenv("CROWDSKY_JOURNAL_KILL_TEAR");
  }

  Result<Dataset> dataset_or = ReadCsvFile(spec.dataset_csv);
  if (!dataset_or.ok()) {
    return FailWithResult(spec.shard_dir,
                          dataset_or.status().ToString());
  }
  const Dataset& dataset = dataset_or.ValueOrDie();
  const std::vector<int> tuple_ids = ShardTupleIds(
      dataset.size(), spec.shards, spec.shard, spec.partition);
  if (tuple_ids.empty()) {
    return FailWithResult(spec.shard_dir,
                          "shard owns no tuples (more shards than tuples?)");
  }
  const Dataset local = dataset.Project(tuple_ids);

  EngineOptions options = spec.engine;
  options.export_answers = true;
  options.round_callback = [&](int64_t rounds) {
    if (spec.kill_at_round > 0 && rounds >= spec.kill_at_round) {
      std::_Exit(137);
    }
    if (spec.hang_at_round >= 0 && rounds >= spec.hang_at_round) {
      HangForever();
    }
    heartbeat.Send("PROG rounds=" + std::to_string(rounds));
  };

  Result<EngineResult> run = RunSkylineQuery(local, options);
  if (!run.ok()) {
    return FailWithResult(spec.shard_dir, run.status().ToString());
  }
  const EngineResult& engine_result = run.ValueOrDie();

  ShardResult out;
  out.ok = true;
  // Local -> global id mapping: Project assigned local id i to tuple_ids[i]
  // (ascending), so orientation and canonical order survive the mapping.
  for (const int local_id : engine_result.algo.skyline) {
    out.skyline.push_back(tuple_ids[static_cast<size_t>(local_id)]);
  }
  for (const int local_id :
       engine_result.algo.completeness.undetermined_tuples) {
    out.undetermined.push_back(tuple_ids[static_cast<size_t>(local_id)]);
  }
  out.questions = engine_result.algo.questions;
  out.rounds = engine_result.algo.rounds;
  out.questions_per_round = engine_result.algo.questions_per_round;
  out.free_lookups = engine_result.algo.free_lookups;
  out.retries = engine_result.algo.retries;
  out.cost_usd = engine_result.cost_usd;
  out.incomplete_tuples = engine_result.algo.incomplete_tuples;
  out.resolved_questions =
      engine_result.algo.completeness.resolved_questions;
  out.unresolved_questions =
      engine_result.algo.completeness.unresolved_questions;
  out.budget_exhausted = engine_result.algo.completeness.budget_exhausted;
  out.retries_exhausted = engine_result.algo.completeness.retries_exhausted;
  out.resumed = engine_result.durability.resumed;
  out.used_checkpoint = engine_result.durability.used_checkpoint;
  out.replayed_pair_attempts =
      engine_result.durability.replayed_pair_attempts;
  out.journal_records = engine_result.durability.journal_records;
  out.termination_reason =
      TerminationReasonName(engine_result.algo.termination.reason);
  // Export only the answers the merge can use: pairs whose endpoints are
  // both candidates (the skyline already includes every undetermined
  // tuple, so it *is* the candidate set).
  std::unordered_set<int> candidate(engine_result.algo.skyline.begin(),
                                    engine_result.algo.skyline.end());
  for (const ImportedAnswer& a : engine_result.exported_answers) {
    if (candidate.count(a.u) == 0 || candidate.count(a.v) == 0) continue;
    out.answers.push_back(
        ImportedAnswer{a.attr, tuple_ids[static_cast<size_t>(a.u)],
                       tuple_ids[static_cast<size_t>(a.v)], a.answer});
  }

  const Status write =
      WriteFileAtomic(spec.shard_dir + "/result.txt",
                      EncodeShardResult(out));
  if (!write.ok()) {
    std::fprintf(stderr, "crowdsky shard: %s\n", write.ToString().c_str());
    return 1;
  }
  heartbeat.Send("DONE");
  return 0;
}

}  // namespace crowdsky::dist
