#include "persist/journal.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "testing/temp_dir.h"

namespace crowdsky::persist {
namespace {

constexpr uint64_t kFingerprint = 0x5eedf00dcafe1234ULL;
constexpr int64_t kHeaderBytes = 24;

std::string TempPath(const std::string& name) {
  return crowdsky::testing::FreshTempPath(name);
}

JournalRecord PairRecord(int attr, int first, int second, bool resolved) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kPairAsk;
  r.question = PairQuestion{attr, first, second};
  r.freq = 7;
  r.resolved = resolved;
  r.answer = Answer::kSecondPreferred;
  AttemptOutcome failed;
  failed.status = AttemptOutcome::kFailed;
  failed.transient_error = true;
  failed.extra_latency_rounds = 2;
  failed.votes_expected = 5;
  failed.votes_counted = 1;
  failed.no_shows = 3;
  failed.stragglers = 1;
  r.attempts.push_back(failed);
  if (resolved) {
    AttemptOutcome ok;
    ok.status = AttemptOutcome::kDegradedQuorum;
    ok.votes_expected = 5;
    ok.votes_counted = 3;
    ok.no_shows = 2;
    r.attempts.push_back(ok);
  }
  r.fault_attempt_draws = 11;
  r.fault_vote_draws = 55;
  return r;
}

JournalRecord UnaryRecord() {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kUnary;
  r.unary_id = 4;
  r.unary_attr = 1;
  r.unary_value = 3.25;
  r.freq = 9;
  r.fault_attempt_draws = 12;
  r.fault_vote_draws = 64;
  return r;
}

JournalRecord RoundRecord(int64_t questions) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kRoundEnd;
  r.round_questions = questions;
  r.fault_attempt_draws = 12;
  r.fault_vote_draws = 64;
  return r;
}

void ExpectRecordsEqual(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.question, b.question);
  EXPECT_EQ(a.freq, b.freq);
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.unary_id, b.unary_id);
  EXPECT_EQ(a.unary_attr, b.unary_attr);
  EXPECT_DOUBLE_EQ(a.unary_value, b.unary_value);
  EXPECT_EQ(a.round_questions, b.round_questions);
  EXPECT_EQ(a.fault_attempt_draws, b.fault_attempt_draws);
  EXPECT_EQ(a.fault_vote_draws, b.fault_vote_draws);
}

std::vector<JournalRecord> SampleRecords() {
  return {PairRecord(0, 1, 5, true), UnaryRecord(),
          PairRecord(1, 2, 3, false), RoundRecord(4)};
}

TEST(JournalTest, RoundTripsEveryField) {
  const std::string path = TempPath("journal_roundtrip.bin");
  auto writer = JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<JournalRecord> records = SampleRecords();
  for (const JournalRecord& r : records) {
    ASSERT_TRUE((*writer)->Append(r).ok());
  }
  EXPECT_EQ((*writer)->records_appended(), 4);
  EXPECT_EQ((*writer)->records_total(), 4);
  ASSERT_TRUE((*writer)->Sync().ok());

  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->fingerprint, kFingerprint);
  EXPECT_FALSE(recovered->torn_tail);
  EXPECT_EQ(recovered->torn_bytes, 0);
  ASSERT_EQ(recovered->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectRecordsEqual(recovered->records[i], records[i]);
  }
}

TEST(JournalTest, BufferedModeIsDurableAfterSync) {
  const std::string path = TempPath("journal_buffered.bin");
  auto writer =
      JournalWriter::Create(path, kFingerprint, SyncMode::kBuffered);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(RoundRecord(1)).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 1u);
}

TEST(JournalTest, MissingFileFailsToOpen) {
  EXPECT_FALSE(ReadJournal(TempPath("journal_missing.bin")).ok());
}

TEST(JournalTest, TornTailIsDetectedAndTruncatable) {
  const std::string path = TempPath("journal_torn.bin");
  {
    auto writer =
        JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    for (const JournalRecord& r : SampleRecords()) {
      ASSERT_TRUE((*writer)->Append(r).ok());
    }
  }
  {
    // Simulate a record that was mid-write when the process died.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\xde\xad\xbe\xef\x42", 5);
  }
  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->torn_bytes, 5);
  EXPECT_EQ(recovered->records.size(), 4u);

  ASSERT_TRUE(TruncateJournal(path, recovered->valid_bytes).ok());
  auto clean = ReadJournal(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  EXPECT_EQ(clean->records.size(), 4u);
}

TEST(JournalTest, CorruptRecordStopsParsingAtTheFault) {
  const std::string path = TempPath("journal_corrupt.bin");
  std::vector<std::string> frames;
  {
    auto writer =
        JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    for (const JournalRecord& r : SampleRecords()) {
      frames.push_back(EncodeRecord(r));
      ASSERT_TRUE((*writer)->Append(r).ok());
    }
  }
  // Flip one payload byte inside the third record.
  const int64_t offset =
      kHeaderBytes + static_cast<int64_t>(frames[0].size()) +
      static_cast<int64_t>(frames[1].size()) + 10;
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(offset);
    f.write(&byte, 1);
  }
  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->valid_bytes,
            kHeaderBytes + static_cast<int64_t>(frames[0].size()) +
                static_cast<int64_t>(frames[1].size()));
}

TEST(JournalTest, CorruptHeaderIsRejected) {
  const std::string path = TempPath("journal_badheader.bin");
  {
    auto writer =
        JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  EXPECT_FALSE(ReadJournal(path).ok());
}

TEST(JournalTest, OpenForAppendContinuesTheFile) {
  const std::string path = TempPath("journal_append.bin");
  {
    auto writer =
        JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(PairRecord(0, 0, 1, true)).ok());
  }
  {
    auto writer = JournalWriter::OpenForAppend(path, kFingerprint,
                                               SyncMode::kFlush,
                                               /*existing_records=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->records_appended(), 0);
    EXPECT_EQ((*writer)->records_total(), 1);
    ASSERT_TRUE((*writer)->Append(RoundRecord(1)).ok());
    EXPECT_EQ((*writer)->records_total(), 2);
  }
  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->records[1].kind, JournalRecord::Kind::kRoundEnd);
}

TEST(JournalTest, OpenForAppendRejectsForeignFingerprint) {
  const std::string path = TempPath("journal_foreign.bin");
  {
    auto writer =
        JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
    ASSERT_TRUE(writer.ok());
  }
  EXPECT_FALSE(JournalWriter::OpenForAppend(path, kFingerprint + 1,
                                            SyncMode::kFlush, 0)
                   .ok());
}

TEST(JournalTest, EncodeRecordFramesWithSizeAndCrc) {
  const std::string frame = EncodeRecord(RoundRecord(3));
  // u32 size + u32 crc + payload.
  ASSERT_GT(frame.size(), 8u);
  uint32_t size = 0;
  std::memcpy(&size, frame.data(), sizeof(size));
  EXPECT_EQ(static_cast<size_t>(size), frame.size() - 8);
}

/// Sets the kill hook `name` to `value`, builds a writer, appends
/// `records` round records and exits 0 unless the hook fires first. Meant
/// to run inside a death-test child, so the setenv stays there.
void WriteWithKillHook(const std::string& path, const char* name,
                       const char* value, int records) {
  ::setenv(name, value, 1);
  auto writer = JournalWriter::Create(path, kFingerprint, SyncMode::kFlush);
  if (!writer.ok()) std::_Exit(2);
  for (int i = 0; i < records; ++i) {
    if (!(*writer)->Append(RoundRecord(i + 1)).ok()) std::_Exit(3);
  }
  std::_Exit(0);
}

constexpr const char* kKillHooks[] = {"CROWDSKY_JOURNAL_KILL_AFTER",
                                      "CROWDSKY_JOURNAL_KILL_TEAR"};

TEST(JournalKillHookDeathTest, RejectsMalformedSettings) {
  const std::string path = TempPath("journal_kill_bad.bin");
  for (const char* name : kKillHooks) {
    for (const char* bad :
         {"5x", "-3", " ", "1.5", "0x10", "99999999999999999999999"}) {
      EXPECT_DEATH(WriteWithKillHook(path, name, bad, 1), name)
          << name << "=" << bad;
    }
  }
}

TEST(JournalKillHookDeathTest, EmptyOrZeroIsOff) {
  const std::string path = TempPath("journal_kill_off.bin");
  for (const char* name : kKillHooks) {
    for (const char* off : {"", "0"}) {
      EXPECT_EXIT(WriteWithKillHook(path, name, off, 3),
                  ::testing::ExitedWithCode(0), "")
          << name << "=" << off;
    }
  }
}

TEST(JournalKillHookDeathTest, KillsAfterTheNthRecord) {
  const std::string path = TempPath("journal_kill_after.bin");
  EXPECT_EXIT(
      WriteWithKillHook(path, "CROWDSKY_JOURNAL_KILL_AFTER", "2", 3),
      ::testing::ExitedWithCode(137), "");
  auto recovered = ReadJournal(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->records.size(), 2u);
}

TEST(JournalTest, SyncModeNames) {
  EXPECT_STREQ(SyncModeName(SyncMode::kBuffered), "buffered");
  EXPECT_STREQ(SyncModeName(SyncMode::kFlush), "flush");
  EXPECT_STREQ(SyncModeName(SyncMode::kFsync), "fsync");
}

}  // namespace
}  // namespace crowdsky::persist
