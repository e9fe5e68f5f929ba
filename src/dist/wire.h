// On-disk and on-pipe formats of the shard protocol.
//
// The coordinator hands each shard incarnation a *spec file* (key=value
// lines) naming the dataset CSV, the slice, the engine options and any
// injected faults; the shard writes heartbeat lines ("HELLO", "PROG
// rounds=N", "DONE") to an inherited pipe fd and, on success, an atomic
// *result file* (key=value lines, tmp+rename) with its candidates,
// accounting and exported answers in global tuple ids. Everything is
// line-oriented text so a torn write is detectable and a failed run
// debuggable with cat.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/options.h"

namespace crowdsky::dist {

/// Everything one shard incarnation needs to run. `engine` carries the
/// full per-shard engine configuration (durability dir already pointing
/// into the shard directory).
struct ShardSpec {
  int shard = 0;
  int shards = 1;
  int generation = 0;
  PartitionScheme partition = PartitionScheme::kRoundRobin;
  std::string dataset_csv;
  std::string shard_dir;
  /// Pipe fd (inherited across exec) for heartbeat lines; -1 = none.
  int heartbeat_fd = -1;
  EngineOptions engine;

  // Faults for this incarnation (all off by default).
  int64_t kill_at_round = 0;    ///< >0: _Exit(137) after N closed rounds
  int64_t kill_at_record = 0;   ///< >0: journal kill hook after N records
  int64_t tear_bytes = 0;       ///< with kill_at_record: torn-tail bytes
  bool hang_at_start = false;   ///< hang before HELLO
  int64_t hang_at_round = -1;   ///< >=0: stop heartbeating after N rounds
  int64_t slow_start_ms = 0;    ///< sleep before doing anything
};

/// What a completed shard wrote to its result file.
struct ShardResult {
  bool ok = false;
  std::string error;  ///< set when !ok
  std::vector<int> skyline;       ///< global ids
  std::vector<int> undetermined;  ///< global ids
  int64_t questions = 0;
  int64_t rounds = 0;
  std::vector<int64_t> questions_per_round;
  int64_t free_lookups = 0;
  int64_t retries = 0;
  double cost_usd = 0.0;
  int64_t incomplete_tuples = 0;
  int64_t resolved_questions = 0;
  int64_t unresolved_questions = 0;
  bool budget_exhausted = false;
  bool retries_exhausted = false;
  bool resumed = false;
  int64_t replayed_pair_attempts = 0;
  int64_t journal_records = 0;
  std::string termination_reason;
  /// Resolved answers among this shard's candidates, global ids,
  /// canonical orientation (attr:u:v:answer).
  std::vector<ImportedAnswer> answers;
};

/// The engine options travel under the keys of VisitEngineOptions
/// (core/options_schema.h). The decoders return IOError for a missing,
/// repeated or unknown key and for a value its field cannot hold (an
/// out-of-range integer or enum, a bool other than 0/1, an unknown name).
std::string EncodeShardSpec(const ShardSpec& spec);
Result<ShardSpec> DecodeShardSpec(const std::string& text);

std::string EncodeShardResult(const ShardResult& result);
Result<ShardResult> DecodeShardResult(const std::string& text);

/// Reads/writes a whole file. WriteFileAtomic goes through path.tmp +
/// rename so a reader never observes a half-written file.
Result<std::string> ReadFileToString(const std::string& path);
Status WriteFileAtomic(const std::string& path, const std::string& content);

}  // namespace crowdsky::dist
