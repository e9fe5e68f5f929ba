#include "dist/wire.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "common/string_util.h"
#include "persist/recovery.h"

namespace crowdsky::dist {
namespace {

// --- encoding helpers ----------------------------------------------------

void Put(std::string* out, const std::string& key, const std::string& v) {
  out->append(key);
  out->push_back('=');
  out->append(v);
  out->push_back('\n');
}

void PutI(std::string* out, const std::string& key, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  Put(out, key, buf);
}

void PutB(std::string* out, const std::string& key, bool v) {
  Put(out, key, v ? "1" : "0");
}

/// %.17g round-trips every finite double bit-exactly.
void PutF(std::string* out, const std::string& key, double v) {
  std::string text;
  AppendDouble(&text, v);
  Put(out, key, text);
}

void PutIds(std::string* out, const std::string& key,
            const std::vector<int>& ids) {
  std::string v;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) v.push_back(',');
    v.append(std::to_string(ids[i]));
  }
  Put(out, key, v);
}

void PutI64s(std::string* out, const std::string& key,
             const std::vector<int64_t>& vals) {
  std::string v;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) v.push_back(',');
    v.append(std::to_string(vals[i]));
  }
  Put(out, key, v);
}

// --- decoding helpers ----------------------------------------------------

/// Key -> value map plus typed accessors; the first parse error sticks.
class Fields {
 public:
  explicit Fields(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t eq = line.find('=');
      if (eq == std::string::npos) {
        Fail("line without '=': " + line);
        continue;
      }
      map_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }

  bool Has(const std::string& key) const { return map_.count(key) > 0; }

  std::string Str(const std::string& key, const std::string& fallback = "") {
    const auto it = map_.find(key);
    return it == map_.end() ? fallback : it->second;
  }

  int64_t Int(const std::string& key, int64_t fallback = 0) {
    const auto it = map_.find(key);
    if (it == map_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') {
      Fail("bad integer for '" + key + "': " + it->second);
      return fallback;
    }
    return v;
  }

  double Double(const std::string& key, double fallback = 0.0) {
    const auto it = map_.find(key);
    if (it == map_.end()) return fallback;
    // ParseDouble keeps the subnormals PutF writes; strtod's ERANGE on
    // them is not a failure.
    const Result<double> v = ParseDouble(it->second);
    if (!v.ok()) {
      Fail("bad double for '" + key + "': " + it->second);
      return fallback;
    }
    return *v;
  }

  bool Bool(const std::string& key, bool fallback = false) {
    return Int(key, fallback ? 1 : 0) != 0;
  }

  std::vector<int> Ids(const std::string& key) {
    std::vector<int> out;
    for (const int64_t v : Int64s(key)) out.push_back(static_cast<int>(v));
    return out;
  }

  std::vector<int64_t> Int64s(const std::string& key) {
    std::vector<int64_t> out;
    const std::string v = Str(key);
    if (v.empty()) return out;
    std::istringstream in(v);
    std::string item;
    while (std::getline(in, item, ',')) {
      errno = 0;
      char* end = nullptr;
      const long long x = std::strtoll(item.c_str(), &end, 10);
      if (errno != 0 || end == item.c_str() || *end != '\0') {
        Fail("bad integer list for '" + key + "': " + v);
        return out;
      }
      out.push_back(x);
    }
    return out;
  }

  void Fail(const std::string& detail) {
    if (error_.empty()) error_ = detail;
  }
  const std::string& error() const { return error_; }

 private:
  std::map<std::string, std::string> map_;
  std::string error_;
};

std::string EncodeAnswers(const std::vector<ImportedAnswer>& answers) {
  std::string v;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) v.push_back(';');
    v.append(std::to_string(answers[i].attr));
    v.push_back(':');
    v.append(std::to_string(answers[i].u));
    v.push_back(':');
    v.append(std::to_string(answers[i].v));
    v.push_back(':');
    v.append(std::to_string(static_cast<int>(answers[i].answer)));
  }
  return v;
}

Result<std::vector<ImportedAnswer>> DecodeAnswers(const std::string& text) {
  std::vector<ImportedAnswer> out;
  if (text.empty()) return out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ';')) {
    ImportedAnswer a;
    int code = 0;
    if (std::sscanf(item.c_str(), "%d:%d:%d:%d", &a.attr, &a.u, &a.v,
                    &code) != 4 ||
        code < 0 || code > 2) {
      return Status::IOError("bad answer entry '" + item + "'");
    }
    a.answer = static_cast<Answer>(code);
    out.push_back(a);
  }
  return out;
}

}  // namespace

std::string EncodeShardSpec(const ShardSpec& spec) {
  const EngineOptions& e = spec.engine;
  std::string out;
  Put(&out, "format", "crowdsky-shard-spec-v1");
  PutI(&out, "shard", spec.shard);
  PutI(&out, "shards", spec.shards);
  PutI(&out, "generation", spec.generation);
  Put(&out, "partition", PartitionSchemeName(spec.partition));
  Put(&out, "dataset_csv", spec.dataset_csv);
  Put(&out, "shard_dir", spec.shard_dir);
  PutI(&out, "heartbeat_fd", spec.heartbeat_fd);

  Put(&out, "algorithm", AlgorithmName(e.algorithm));
  PutI(&out, "oracle", static_cast<int>(e.oracle));
  PutF(&out, "worker.p_correct", e.worker.p_correct);
  PutF(&out, "worker.p_stddev", e.worker.p_stddev);
  PutF(&out, "worker.spammer_fraction", e.worker.spammer_fraction);
  PutF(&out, "worker.unary_sigma", e.worker.unary_sigma);
  PutI(&out, "workers_per_question", e.workers_per_question);
  PutB(&out, "dynamic_voting", e.dynamic_voting);
  PutI(&out, "seed", static_cast<int64_t>(e.seed));
  PutI(&out, "max_questions", e.max_questions);
  PutI(&out, "market.pool_size", e.marketplace.pool_size);
  PutF(&out, "market.p_correct", e.marketplace.population.p_correct);
  PutF(&out, "market.p_stddev", e.marketplace.population.p_stddev);
  PutF(&out, "market.spammer_fraction",
       e.marketplace.population.spammer_fraction);
  PutF(&out, "market.unary_sigma", e.marketplace.population.unary_sigma);
  PutI(&out, "market.gold_questions", e.marketplace.gold_questions);
  PutF(&out, "market.qualification_threshold",
       e.marketplace.qualification_threshold);
  PutB(&out, "market.weighted_votes", e.marketplace.weighted_votes);
  PutF(&out, "faults.transient_error_rate",
       e.marketplace.faults.transient_error_rate);
  PutF(&out, "faults.hit_expiration_rate",
       e.marketplace.faults.hit_expiration_rate);
  PutI(&out, "faults.hit_expiration_rounds",
       e.marketplace.faults.hit_expiration_rounds);
  PutF(&out, "faults.worker_no_show_rate",
       e.marketplace.faults.worker_no_show_rate);
  PutF(&out, "faults.straggler_rate", e.marketplace.faults.straggler_rate);
  PutI(&out, "faults.straggler_delay_rounds",
       e.marketplace.faults.straggler_delay_rounds);
  PutI(&out, "market.seed", static_cast<int64_t>(e.marketplace.seed));
  PutI(&out, "retry.max_retries", e.retry.max_retries);
  PutI(&out, "retry.backoff_base_rounds", e.retry.backoff_base_rounds);
  PutI(&out, "retry.max_backoff_rounds", e.retry.max_backoff_rounds);
  PutF(&out, "cost.reward_per_hit", e.cost_model.reward_per_hit);
  PutI(&out, "cost.workers_per_question", e.cost_model.workers_per_question);
  PutI(&out, "cost.questions_per_hit", e.cost_model.questions_per_hit);
  PutI(&out, "governor.max_rounds", e.governor.max_rounds);
  PutF(&out, "governor.max_cost_usd", e.governor.max_cost_usd);
  PutI(&out, "governor.stall_rounds", e.governor.stall_rounds);
  PutB(&out, "durability.resume", e.durability.resume);
  PutI(&out, "durability.sync", static_cast<int>(e.durability.sync));
  PutI(&out, "durability.checkpoint_every_rounds",
       e.durability.checkpoint_every_rounds);
  PutB(&out, "pruning.use_p1", e.crowdsky.pruning.use_p1);
  PutB(&out, "pruning.use_p2", e.crowdsky.pruning.use_p2);
  PutB(&out, "pruning.use_p3", e.crowdsky.pruning.use_p3);
  PutB(&out, "pruning.use_completion_break",
       e.crowdsky.pruning.use_completion_break);
  PutB(&out, "pruning.use_transitivity", e.crowdsky.pruning.use_transitivity);
  PutI(&out, "contradiction_policy",
       static_cast<int>(e.crowdsky.contradiction_policy));
  PutI(&out, "multi_attr", static_cast<int>(e.crowdsky.multi_attr));
  PutB(&out, "audit", e.crowdsky.audit);

  PutI(&out, "fault.kill_at_round", spec.kill_at_round);
  PutI(&out, "fault.kill_at_record", spec.kill_at_record);
  PutI(&out, "fault.tear_bytes", spec.tear_bytes);
  PutB(&out, "fault.hang_at_start", spec.hang_at_start);
  PutI(&out, "fault.hang_at_round", spec.hang_at_round);
  PutI(&out, "fault.slow_start_ms", spec.slow_start_ms);
  return out;
}

Result<ShardSpec> DecodeShardSpec(const std::string& text) {
  Fields f(text);
  if (f.Str("format") != "crowdsky-shard-spec-v1") {
    return Status::IOError("not a crowdsky shard spec");
  }
  ShardSpec spec;
  spec.shard = static_cast<int>(f.Int("shard"));
  spec.shards = static_cast<int>(f.Int("shards", 1));
  spec.generation = static_cast<int>(f.Int("generation"));
  const std::string partition = f.Str("partition", "round_robin");
  if (partition == "round_robin") {
    spec.partition = PartitionScheme::kRoundRobin;
  } else if (partition == "block") {
    spec.partition = PartitionScheme::kBlock;
  } else if (partition == "hash") {
    spec.partition = PartitionScheme::kHash;
  } else {
    return Status::IOError("unknown partition scheme '" + partition + "'");
  }
  spec.dataset_csv = f.Str("dataset_csv");
  spec.shard_dir = f.Str("shard_dir");
  spec.heartbeat_fd = static_cast<int>(f.Int("heartbeat_fd", -1));

  EngineOptions& e = spec.engine;
  CROWDSKY_ASSIGN_OR_RETURN(e.algorithm, ParseAlgorithm(f.Str("algorithm")));
  e.oracle = static_cast<OracleKind>(f.Int("oracle"));
  e.worker.p_correct = f.Double("worker.p_correct", e.worker.p_correct);
  e.worker.p_stddev = f.Double("worker.p_stddev", e.worker.p_stddev);
  e.worker.spammer_fraction =
      f.Double("worker.spammer_fraction", e.worker.spammer_fraction);
  e.worker.unary_sigma = f.Double("worker.unary_sigma", e.worker.unary_sigma);
  e.workers_per_question =
      static_cast<int>(f.Int("workers_per_question", e.workers_per_question));
  e.dynamic_voting = f.Bool("dynamic_voting");
  e.seed = static_cast<uint64_t>(f.Int("seed", 42));
  e.max_questions = f.Int("max_questions");
  e.marketplace.pool_size =
      static_cast<int>(f.Int("market.pool_size", e.marketplace.pool_size));
  e.marketplace.population.p_correct =
      f.Double("market.p_correct", e.marketplace.population.p_correct);
  e.marketplace.population.p_stddev =
      f.Double("market.p_stddev", e.marketplace.population.p_stddev);
  e.marketplace.population.spammer_fraction = f.Double(
      "market.spammer_fraction", e.marketplace.population.spammer_fraction);
  e.marketplace.population.unary_sigma =
      f.Double("market.unary_sigma", e.marketplace.population.unary_sigma);
  e.marketplace.gold_questions = static_cast<int>(
      f.Int("market.gold_questions", e.marketplace.gold_questions));
  e.marketplace.qualification_threshold =
      f.Double("market.qualification_threshold",
               e.marketplace.qualification_threshold);
  e.marketplace.weighted_votes = f.Bool("market.weighted_votes");
  e.marketplace.faults.transient_error_rate =
      f.Double("faults.transient_error_rate");
  e.marketplace.faults.hit_expiration_rate =
      f.Double("faults.hit_expiration_rate");
  e.marketplace.faults.hit_expiration_rounds = static_cast<int>(f.Int(
      "faults.hit_expiration_rounds",
      e.marketplace.faults.hit_expiration_rounds));
  e.marketplace.faults.worker_no_show_rate =
      f.Double("faults.worker_no_show_rate");
  e.marketplace.faults.straggler_rate = f.Double("faults.straggler_rate");
  e.marketplace.faults.straggler_delay_rounds = static_cast<int>(f.Int(
      "faults.straggler_delay_rounds",
      e.marketplace.faults.straggler_delay_rounds));
  e.marketplace.seed = static_cast<uint64_t>(f.Int("market.seed"));
  e.retry.max_retries =
      static_cast<int>(f.Int("retry.max_retries", e.retry.max_retries));
  e.retry.backoff_base_rounds = static_cast<int>(
      f.Int("retry.backoff_base_rounds", e.retry.backoff_base_rounds));
  e.retry.max_backoff_rounds = static_cast<int>(
      f.Int("retry.max_backoff_rounds", e.retry.max_backoff_rounds));
  e.cost_model.reward_per_hit =
      f.Double("cost.reward_per_hit", e.cost_model.reward_per_hit);
  e.cost_model.workers_per_question = static_cast<int>(
      f.Int("cost.workers_per_question", e.cost_model.workers_per_question));
  e.cost_model.questions_per_hit = static_cast<int>(
      f.Int("cost.questions_per_hit", e.cost_model.questions_per_hit));
  e.governor.max_rounds = f.Int("governor.max_rounds");
  e.governor.max_cost_usd = f.Double("governor.max_cost_usd");
  e.governor.stall_rounds = static_cast<int>(f.Int("governor.stall_rounds"));
  e.durability.dir = spec.shard_dir;
  e.durability.resume = f.Bool("durability.resume");
  e.durability.sync = static_cast<persist::SyncMode>(f.Int(
      "durability.sync", static_cast<int>(persist::SyncMode::kFlush)));
  e.durability.checkpoint_every_rounds =
      static_cast<int>(f.Int("durability.checkpoint_every_rounds",
                             e.durability.checkpoint_every_rounds));
  e.crowdsky.pruning.use_p1 = f.Bool("pruning.use_p1", true);
  e.crowdsky.pruning.use_p2 = f.Bool("pruning.use_p2", true);
  e.crowdsky.pruning.use_p3 = f.Bool("pruning.use_p3", true);
  e.crowdsky.pruning.use_completion_break =
      f.Bool("pruning.use_completion_break", true);
  e.crowdsky.pruning.use_transitivity =
      f.Bool("pruning.use_transitivity", true);
  e.crowdsky.contradiction_policy =
      static_cast<ContradictionPolicy>(f.Int("contradiction_policy"));
  e.crowdsky.multi_attr =
      static_cast<MultiAttributeStrategy>(f.Int("multi_attr"));
  e.crowdsky.audit = f.Bool("audit");

  spec.kill_at_round = f.Int("fault.kill_at_round");
  spec.kill_at_record = f.Int("fault.kill_at_record");
  spec.tear_bytes = f.Int("fault.tear_bytes");
  spec.hang_at_start = f.Bool("fault.hang_at_start");
  spec.hang_at_round = f.Int("fault.hang_at_round", -1);
  spec.slow_start_ms = f.Int("fault.slow_start_ms");
  if (!f.error().empty()) {
    return Status::IOError("bad shard spec: " + f.error());
  }
  return spec;
}

std::string EncodeShardResult(const ShardResult& result) {
  std::string out;
  Put(&out, "format", "crowdsky-shard-result-v1");
  PutB(&out, "ok", result.ok);
  if (!result.ok) {
    // Errors are single-line by construction (Status messages).
    std::string msg = result.error;
    for (char& c : msg) {
      if (c == '\n') c = ' ';
    }
    Put(&out, "error", msg);
    return out;
  }
  PutIds(&out, "skyline", result.skyline);
  PutIds(&out, "undetermined", result.undetermined);
  PutI(&out, "questions", result.questions);
  PutI(&out, "rounds", result.rounds);
  PutI64s(&out, "questions_per_round", result.questions_per_round);
  PutI(&out, "free_lookups", result.free_lookups);
  PutI(&out, "retries", result.retries);
  PutF(&out, "cost_usd", result.cost_usd);
  PutI(&out, "incomplete_tuples", result.incomplete_tuples);
  PutI(&out, "resolved_questions", result.resolved_questions);
  PutI(&out, "unresolved_questions", result.unresolved_questions);
  PutB(&out, "budget_exhausted", result.budget_exhausted);
  PutB(&out, "retries_exhausted", result.retries_exhausted);
  PutB(&out, "resumed", result.resumed);
  PutB(&out, "used_checkpoint", result.used_checkpoint);
  PutI(&out, "replayed_pair_attempts", result.replayed_pair_attempts);
  PutI(&out, "journal_records", result.journal_records);
  Put(&out, "termination", result.termination_reason);
  Put(&out, "answers", EncodeAnswers(result.answers));
  return out;
}

Result<ShardResult> DecodeShardResult(const std::string& text) {
  Fields f(text);
  if (f.Str("format") != "crowdsky-shard-result-v1") {
    return Status::IOError("not a crowdsky shard result");
  }
  ShardResult r;
  r.ok = f.Bool("ok");
  r.error = f.Str("error");
  r.skyline = f.Ids("skyline");
  r.undetermined = f.Ids("undetermined");
  r.questions = f.Int("questions");
  r.rounds = f.Int("rounds");
  r.questions_per_round = f.Int64s("questions_per_round");
  r.free_lookups = f.Int("free_lookups");
  r.retries = f.Int("retries");
  r.cost_usd = f.Double("cost_usd");
  r.incomplete_tuples = f.Int("incomplete_tuples");
  r.resolved_questions = f.Int("resolved_questions");
  r.unresolved_questions = f.Int("unresolved_questions");
  r.budget_exhausted = f.Bool("budget_exhausted");
  r.retries_exhausted = f.Bool("retries_exhausted");
  r.resumed = f.Bool("resumed");
  r.used_checkpoint = f.Bool("used_checkpoint");
  r.replayed_pair_attempts = f.Int("replayed_pair_attempts");
  r.journal_records = f.Int("journal_records");
  r.termination_reason = f.Str("termination");
  CROWDSKY_ASSIGN_OR_RETURN(r.answers, DecodeAnswers(f.Str("answers")));
  if (!f.error().empty()) {
    return Status::IOError("bad shard result: " + f.error());
  }
  return r;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  // A read error (the path named a directory) sets badbit; end of input
  // sets only eofbit and failbit.
  if (in.bad()) return Status::IOError("read failed for '" + path + "'");
  return text;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create '" + tmp + "'");
    out << content;
    out.flush();
    if (!out) return Status::IOError("write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace crowdsky::dist
