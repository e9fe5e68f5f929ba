#include "dist/wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/string_util.h"
#include "core/options_schema.h"

namespace crowdsky::dist {
namespace {

constexpr char kSpecFormat[] = "crowdsky-shard-spec-v1";
constexpr char kResultFormat[] = "crowdsky-shard-result-v1";

// --- the fields of each file, in file order ---------------------------------

/// Every ShardSpec field after `format`: the header, the engine options
/// of core/options_schema.h, and the injected faults.
template <class Spec, class F>
void VisitShardSpec(Spec& s, F&& f) {
  f("shard", s.shard);
  f("shards", s.shards);
  f("generation", s.generation);
  f("partition", s.partition);
  f("dataset_csv", s.dataset_csv);
  f("shard_dir", s.shard_dir);
  f("heartbeat_fd", s.heartbeat_fd);
  VisitEngineOptions(s.engine, f);
  f("fault.kill_at_round", s.kill_at_round);
  f("fault.kill_at_record", s.kill_at_record);
  f("fault.tear_bytes", s.tear_bytes);
  f("fault.hang_at_start", s.hang_at_start);
  f("fault.hang_at_round", s.hang_at_round);
  f("fault.slow_start_ms", s.slow_start_ms);
}

/// The ShardResult fields after `ok=1` (a failed result carries only
/// `error`).
template <class R, class F>
void VisitResultFields(R& r, F&& f) {
  f("skyline", r.skyline);
  f("undetermined", r.undetermined);
  f("questions", r.questions);
  f("rounds", r.rounds);
  f("questions_per_round", r.questions_per_round);
  f("free_lookups", r.free_lookups);
  f("retries", r.retries);
  f("cost_usd", r.cost_usd);
  f("incomplete_tuples", r.incomplete_tuples);
  f("resolved_questions", r.resolved_questions);
  f("unresolved_questions", r.unresolved_questions);
  f("budget_exhausted", r.budget_exhausted);
  f("retries_exhausted", r.retries_exhausted);
  f("resumed", r.resumed);
  f("used_checkpoint", r.used_checkpoint);
  f("replayed_pair_attempts", r.replayed_pair_attempts);
  f("journal_records", r.journal_records);
  f("termination", r.termination_reason);
  f("answers", r.answers);
}

// --- value text -------------------------------------------------------------

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Appends the text form of one field value. Integers and enums are
/// written in decimal (a uint64 as its int64 bits), doubles as %.17g,
/// the algorithm and partition scheme by name, lists comma-separated and
/// answers as attr:u:v:answer entries separated by ';'.
template <class T>
void AppendValue(std::string* out, const T& v);

template <class T>
void AppendList(std::string* out, const std::vector<T>& items, char sep) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->push_back(sep);
    AppendValue(out, items[i]);
  }
}

/// Lists of answers are ';'-separated, every other list ','-separated.
template <class T>
constexpr char ListSeparator() {
  return std::is_same_v<T, ImportedAnswer> ? ';' : ',';
}

template <class T>
void AppendValue(std::string* out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    out->append(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    out->push_back(v ? '1' : '0');
  } else if constexpr (std::is_floating_point_v<T>) {
    AppendDouble(out, v);
  } else if constexpr (std::is_same_v<T, Algorithm>) {
    out->append(AlgorithmName(v));
  } else if constexpr (std::is_same_v<T, PartitionScheme>) {
    out->append(PartitionSchemeName(v));
  } else if constexpr (std::is_same_v<T, ImportedAnswer>) {
    AppendList(out, std::vector<int>{v.attr, v.u, v.v,
                                     static_cast<int>(v.answer)},
               ':');
  } else if constexpr (kIsVector<T>) {
    AppendList(out, v, ListSeparator<typename T::value_type>());
  } else {
    out->append(std::to_string(static_cast<int64_t>(v)));
  }
}

/// Splits `text` at `sep`; an empty text is an empty list.
std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  if (text.empty()) return parts;
  for (size_t start = 0;;) {
    const size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string_view::npos) return parts;
    start = end + 1;
  }
}

/// Inverse of AppendValue. Fails on text AppendValue cannot have written:
/// an integer that does not fit its field, an enum value outside its
/// enumerators, a bool other than 0/1, an unknown name.
template <class T>
bool ParseValue(std::string_view text, T* v) {
  if constexpr (std::is_same_v<T, std::string>) {
    v->assign(text);
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    *v = text == "1";
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    // ParseDouble keeps the subnormals AppendDouble writes; strtod's
    // ERANGE on them is not a failure.
    const Result<double> d = ParseDouble(text);
    if (d.ok()) *v = *d;
    return d.ok();
  } else if constexpr (std::is_same_v<T, Algorithm>) {
    const Result<Algorithm> a = ParseAlgorithm(std::string(text));
    if (a.ok()) *v = *a;
    return a.ok();
  } else if constexpr (std::is_same_v<T, PartitionScheme>) {
    for (const PartitionScheme p :
         {PartitionScheme::kRoundRobin, PartitionScheme::kBlock,
          PartitionScheme::kHash}) {
      if (text == PartitionSchemeName(p)) {
        *v = p;
        return true;
      }
    }
    return false;
  } else if constexpr (std::is_same_v<T, ImportedAnswer>) {
    const std::vector<std::string_view> parts = Split(text, ':');
    int answer = 0;
    if (parts.size() != 4 || !ParseValue(parts[0], &v->attr) ||
        !ParseValue(parts[1], &v->u) || !ParseValue(parts[2], &v->v) ||
        !ParseValue(parts[3], &answer) || answer < 0 || answer > 2) {
      return false;
    }
    v->answer = static_cast<Answer>(answer);
    return true;
  } else if constexpr (kIsVector<T>) {
    v->clear();
    for (const std::string_view part :
         Split(text, ListSeparator<typename T::value_type>())) {
      if (!ParseValue(part, &v->emplace_back())) return false;
    }
    return true;
  } else {
    const Result<int64_t> x = ParseInt64(text);
    if (!x.ok()) return false;
    if constexpr (std::is_enum_v<T>) {
      if (*x < 0 || *x >= EnumeratorCount(T{})) return false;
    } else if constexpr (!std::is_same_v<T, uint64_t>) {
      if (!std::in_range<T>(*x)) return false;
    }
    *v = static_cast<T>(*x);
    return true;
  }
}

// --- whole files ------------------------------------------------------------

void Put(std::string* out, const char* key, const auto& v) {
  out->append(key);
  out->push_back('=');
  AppendValue(out, v);
  out->push_back('\n');
}

/// The key=value lines of one file, read through the same visitors that
/// wrote them. Every key must appear exactly once and be read exactly
/// once; the first failure sticks.
class Fields {
 public:
  explicit Fields(const std::string& text) {
    for (const std::string_view line : Split(text, '\n')) {
      if (line.empty() || line[0] == '#') continue;
      const size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        Fail("line without '=': " + std::string(line));
        continue;
      }
      const std::string key(line.substr(0, eq));
      if (!map_.emplace(key, Entry{std::string(line.substr(eq + 1))})
               .second) {
        Fail("duplicate key '" + key + "'");
      }
    }
  }

  /// Parses the value under `key` into `v`: the visitor callback (the
  /// option class, when given, does not matter to the codec).
  template <class T>
  void operator()(const char* key, T& v, auto...) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      Fail(std::string("missing key '") + key + "'");
      return;
    }
    it->second.read = true;
    if (!ParseValue(it->second.value, &v)) {
      Fail(std::string("bad value for '") + key + "': " + it->second.value);
    }
  }

  /// The first failure, or a key no visitor read.
  std::string Error() const {
    if (!error_.empty()) return error_;
    for (const auto& [key, entry] : map_) {
      if (!entry.read) return "unknown key '" + key + "'";
    }
    return "";
  }

 private:
  struct Entry {
    std::string value;
    bool read = false;
  };

  void Fail(const std::string& detail) {
    if (error_.empty()) error_ = detail;
  }

  std::map<std::string, Entry, std::less<>> map_;
  std::string error_;
};

}  // namespace

std::string EncodeShardSpec(const ShardSpec& spec) {
  std::string out;
  Put(&out, "format", std::string(kSpecFormat));
  VisitShardSpec(spec, [&out](const char* key, const auto& v, auto...) {
    Put(&out, key, v);
  });
  return out;
}

Result<ShardSpec> DecodeShardSpec(const std::string& text) {
  Fields f(text);
  std::string format;
  f("format", format);
  if (format != kSpecFormat) {
    return Status::IOError("not a crowdsky shard spec");
  }
  ShardSpec spec;
  VisitShardSpec(spec, f);
  // The journal directory is the shard directory, not a field of its own.
  spec.engine.durability.dir = spec.shard_dir;
  if (const std::string error = f.Error(); !error.empty()) {
    return Status::IOError("bad shard spec: " + error);
  }
  return spec;
}

std::string EncodeShardResult(const ShardResult& result) {
  std::string out;
  Put(&out, "format", std::string(kResultFormat));
  Put(&out, "ok", result.ok);
  if (!result.ok) {
    // Errors are single-line by construction (Status messages).
    std::string msg = result.error;
    for (char& c : msg) {
      if (c == '\n') c = ' ';
    }
    Put(&out, "error", msg);
    return out;
  }
  VisitResultFields(result, [&out](const char* key, const auto& v) {
    Put(&out, key, v);
  });
  return out;
}

Result<ShardResult> DecodeShardResult(const std::string& text) {
  Fields f(text);
  std::string format;
  f("format", format);
  if (format != kResultFormat) {
    return Status::IOError("not a crowdsky shard result");
  }
  ShardResult r;
  f("ok", r.ok);
  if (r.ok) {
    VisitResultFields(r, f);
  } else {
    f("error", r.error);
  }
  if (const std::string error = f.Error(); !error.empty()) {
    return Status::IOError("bad shard result: " + error);
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
