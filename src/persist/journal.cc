#include "persist/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "persist/wire.h"

namespace crowdsky::persist {
namespace {

constexpr char kMagic[8] = {'C', 'S', 'K', 'Y', 'J', 'N', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;
// A record holds one question's attempts; anything near this bound is
// corruption, not data.
constexpr uint32_t kMaxPayloadBytes = 1u << 24;
constexpr size_t kBufferFlushBytes = 1u << 20;

std::string EncodeHeader(uint64_t fingerprint) {
  ByteWriter w;
  for (const char c : kMagic) w.PutU8(static_cast<uint8_t>(c));
  w.PutU32(kFormatVersion);
  w.PutU64(fingerprint);
  const uint32_t crc = Crc32(w.str());
  w.PutU32(crc);
  return w.Take();
}

std::string EncodePayload(const JournalRecord& r) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(r.kind));
  switch (r.kind) {
    case JournalRecord::Kind::kPairAsk:
      w.PutI32(r.question.attr);
      w.PutI32(r.question.first);
      w.PutI32(r.question.second);
      w.PutU64(r.freq);
      w.PutU8(r.resolved ? 1 : 0);
      w.PutU8(static_cast<uint8_t>(r.answer));
      w.PutU32(static_cast<uint32_t>(r.attempts.size()));
      for (const AttemptOutcome& a : r.attempts) {
        w.PutU8(a.status);
        w.PutU8(static_cast<uint8_t>((a.transient_error ? 1 : 0) |
                                     (a.hit_expired ? 2 : 0)));
        w.PutI32(a.extra_latency_rounds);
        w.PutI32(a.votes_expected);
        w.PutI32(a.votes_counted);
        w.PutI32(a.no_shows);
        w.PutI32(a.stragglers);
      }
      break;
    case JournalRecord::Kind::kUnary:
      w.PutI32(r.unary_id);
      w.PutI32(r.unary_attr);
      w.PutU64(r.freq);
      w.PutF64(r.unary_value);
      break;
    case JournalRecord::Kind::kRoundEnd:
      w.PutI64(r.round_questions);
      break;
    case JournalRecord::Kind::kTermination:
      w.PutU8(r.termination_reason);
      w.PutI64(r.termination_rounds);
      w.PutF64(r.termination_cost_spent);
      w.PutF64(r.termination_cost_cap);
      break;
  }
  w.PutU64(r.fault_attempt_draws);
  w.PutU64(r.fault_vote_draws);
  return w.Take();
}

bool DecodePayload(std::string_view payload, JournalRecord* out) {
  ByteReader r(payload);
  const uint8_t kind = r.GetU8();
  if (!r.ok() ||
      kind > static_cast<uint8_t>(JournalRecord::Kind::kTermination)) {
    return false;
  }
  out->kind = static_cast<JournalRecord::Kind>(kind);
  switch (out->kind) {
    case JournalRecord::Kind::kPairAsk: {
      out->question.attr = r.GetI32();
      out->question.first = r.GetI32();
      out->question.second = r.GetI32();
      out->freq = r.GetU64();
      const uint8_t resolved = r.GetU8();
      const uint8_t answer = r.GetU8();
      if (resolved > 1 || answer > static_cast<uint8_t>(Answer::kEqual)) {
        return false;
      }
      out->resolved = resolved != 0;
      out->answer = static_cast<Answer>(answer);
      const uint32_t n = r.GetU32();
      if (!r.ok() || n == 0 || n > kMaxPayloadBytes / 22) return false;
      out->attempts.resize(n);
      for (AttemptOutcome& a : out->attempts) {
        a.status = r.GetU8();
        if (a.status > AttemptOutcome::kFailed) return false;
        const uint8_t flags = r.GetU8();
        if (flags > 3) return false;
        a.transient_error = (flags & 1) != 0;
        a.hit_expired = (flags & 2) != 0;
        a.extra_latency_rounds = r.GetI32();
        a.votes_expected = r.GetI32();
        a.votes_counted = r.GetI32();
        a.no_shows = r.GetI32();
        a.stragglers = r.GetI32();
      }
      break;
    }
    case JournalRecord::Kind::kUnary:
      out->unary_id = r.GetI32();
      out->unary_attr = r.GetI32();
      out->freq = r.GetU64();
      out->unary_value = r.GetF64();
      break;
    case JournalRecord::Kind::kRoundEnd:
      out->round_questions = r.GetI64();
      if (r.ok() && out->round_questions <= 0) return false;
      break;
    case JournalRecord::Kind::kTermination:
      out->termination_reason = r.GetU8();
      // 5 == TerminationReason::kStalled, the largest reason; persist/
      // cannot name the core/ enum without inverting the layering.
      if (r.ok() && out->termination_reason > 5) return false;
      out->termination_rounds = r.GetI64();
      out->termination_cost_spent = r.GetF64();
      out->termination_cost_cap = r.GetF64();
      if (r.ok() &&
          (out->termination_rounds < 0 || out->termination_cost_spent < 0.0 ||
           out->termination_cost_cap < 0.0)) {
        return false;
      }
      break;
  }
  out->fault_attempt_draws = r.GetU64();
  out->fault_vote_draws = r.GetU64();
  return r.exhausted();
}

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("journal write failed: ") +
                             std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// A kill-point hook setting. Unset or empty means off (0); anything else
/// must be a whole number >= 0 that fits in a long, or the run aborts. A
/// typo that silently disarmed the hook ("5x" read as 0) or never fired it
/// (an overflow read as LONG_MAX) would let a crash test pass without
/// crashing anything.
long KillHookEnv(const char* name) {
  // Read once per writer at construction. The library's only setenv, in
  // dist/shard_runner.cc, runs on a shard child's main thread before that
  // process starts any other thread, so this getenv cannot race it.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): see above
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  const std::string message = std::string(name) +
                              " must be an integer >= 0, got '" + env + "'";
  CROWDSKY_CHECK_MSG(end != env && *end == '\0' && errno == 0 && v >= 0,
                     message.c_str());
  return v;
}

}  // namespace

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kBuffered:
      return "buffered";
    case SyncMode::kFlush:
      return "flush";
    case SyncMode::kFsync:
      return "fsync";
  }
  return "?";
}

std::string EncodeRecord(const JournalRecord& record) {
  const std::string payload = EncodePayload(record);
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  std::string frame = w.Take();
  frame += payload;
  return frame;
}

JournalWriter::JournalWriter(std::string path, int fd, SyncMode sync,
                             int64_t existing)
    : path_(std::move(path)),
      fd_(fd),
      sync_(sync),
      existing_(existing),
      kill_after_(KillHookEnv("CROWDSKY_JOURNAL_KILL_AFTER")),
      kill_tear_(KillHookEnv("CROWDSKY_JOURNAL_KILL_TEAR")) {}

JournalWriter::~JournalWriter() {
  (void)FlushBuffer();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Create(
    const std::string& path, uint64_t fingerprint, SyncMode sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create journal '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(path, fd, sync, /*existing=*/0));
  const std::string header = EncodeHeader(fingerprint);
  CROWDSKY_RETURN_NOT_OK(WriteAll(fd, header.data(), header.size()));
  if (sync == SyncMode::kFsync) {
    if (::fdatasync(fd) != 0) {
      return Status::IOError("journal fdatasync failed");
    }
    ++writer->fsyncs_;
  }
  return writer;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::OpenForAppend(
    const std::string& path, uint64_t fingerprint, SyncMode sync,
    int64_t existing_records) {
  // Re-verify the header before trusting the file with appends.
  CROWDSKY_ASSIGN_OR_RETURN(const RecoveredJournal recovered,
                            ReadJournal(path));
  if (recovered.fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "journal '" + path + "' belongs to a different run configuration");
  }
  if (recovered.torn_tail) {
    return Status::FailedPrecondition(
        "journal '" + path +
        "' still has a torn tail; truncate before appending");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open journal '" + path +
                           "' for append: " + std::strerror(errno));
  }
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(path, fd, sync, existing_records));
}

Status JournalWriter::WriteFrame(const std::string& frame) {
  bytes_appended_ += static_cast<int64_t>(frame.size());
  if (sync_ == SyncMode::kBuffered) {
    buffer_ += frame;
    if (buffer_.size() >= kBufferFlushBytes) return FlushBuffer();
    return Status::OK();
  }
  CROWDSKY_RETURN_NOT_OK(WriteAll(fd_, frame.data(), frame.size()));
  if (sync_ == SyncMode::kFsync) {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError("journal fdatasync failed");
    }
    ++fsyncs_;
  }
  return Status::OK();
}

Status JournalWriter::FlushBuffer() {
  if (buffer_.empty() || fd_ < 0) return Status::OK();
  const Status st = WriteAll(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
  return st;
}

void JournalWriter::MaybeKillForTest() {
  if (kill_after_ <= 0 || appended_ < kill_after_) return;
  // The contract is "exactly N durable records": drain any buffer first,
  // optionally tear a fake in-flight record, and die without unwinding.
  (void)FlushBuffer();
  if (kill_tear_ > 0) {
    const std::string garbage(static_cast<size_t>(kill_tear_), '\xde');
    (void)WriteAll(fd_, garbage.data(), garbage.size());
  }
  std::_Exit(137);
}

Status JournalWriter::Append(const JournalRecord& record) {
  CROWDSKY_RETURN_NOT_OK(WriteFrame(EncodeRecord(record)));
  ++appended_;
  MaybeKillForTest();
  return Status::OK();
}

Status JournalWriter::Sync() {
  CROWDSKY_RETURN_NOT_OK(FlushBuffer());
  if (fd_ >= 0) {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError("journal fdatasync failed");
    }
    ++fsyncs_;
  }
  return Status::OK();
}

Result<RecoveredJournal> ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("journal '" + path + "' does not exist");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string data = contents.str();

  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a crowdsky journal");
  }
  ByteReader header(std::string_view(data).substr(0, kHeaderBytes));
  for (size_t i = 0; i < sizeof kMagic; ++i) header.GetU8();
  const uint32_t version = header.GetU32();
  const uint64_t fingerprint = header.GetU64();
  const uint32_t header_crc = header.GetU32();
  if (version != kFormatVersion) {
    return Status::InvalidArgument("journal '" + path +
                                   "' has an unsupported format version");
  }
  if (header_crc != Crc32(data.data(), kHeaderBytes - 4)) {
    return Status::InvalidArgument("journal '" + path +
                                   "' has a corrupt header");
  }

  RecoveredJournal out;
  out.fingerprint = fingerprint;
  size_t pos = kHeaderBytes;
  while (true) {
    if (data.size() - pos < 8) break;  // no room for a frame prefix
    ByteReader frame(std::string_view(data).substr(pos, 8));
    const uint32_t payload_size = frame.GetU32();
    const uint32_t payload_crc = frame.GetU32();
    if (payload_size > kMaxPayloadBytes ||
        data.size() - pos - 8 < payload_size) {
      break;  // torn in-flight record
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + 8, payload_size);
    if (Crc32(payload) != payload_crc) break;
    JournalRecord record;
    if (!DecodePayload(payload, &record)) break;
    out.records.push_back(std::move(record));
    pos += 8 + payload_size;
  }
  out.valid_bytes = static_cast<int64_t>(pos);
  out.torn_tail = pos < data.size();
  out.torn_bytes = static_cast<int64_t>(data.size() - pos);
  return out;
}

Status TruncateJournal(const std::string& path, int64_t valid_bytes) {
  if (valid_bytes < static_cast<int64_t>(kHeaderBytes)) {
    return Status::InvalidArgument(
        "refusing to truncate a journal below its header");
  }
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IOError("cannot truncate journal '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace crowdsky::persist
