#include "core/journal.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "core/checkpoint.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  Observation Obs(int iteration, double runtime, bool failed = false) {
    Observation o;
    o.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0};
    o.data_size = 1.5;
    o.runtime = runtime;
    o.iteration = iteration;
    o.failed = failed;
    return o;
  }

  std::string ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteAll(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  const test_support::TestTempDir dir_;
  const std::string path_ = dir_.File("journal.log");
};

TEST_F(JournalTest, RoundTripExact) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    // Awkward doubles on purpose: hexfloat must round-trip them exactly.
    ASSERT_TRUE(journal->Append(7, Obs(0, 0.1)).ok());
    ASSERT_TRUE(journal->Append(7, Obs(1, 1.0 / 3.0)).ok());
    ASSERT_TRUE(journal->Append(9, Obs(0, 123.456789012345, true)).ok());
  }
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->clean);
  EXPECT_TRUE(recovered->tail_status.ok());
  EXPECT_EQ(recovered->tail_records, 3u);
  EXPECT_EQ(recovered->records_dropped, 0u);
  ASSERT_EQ(recovered->store.Count(7), 2u);
  ASSERT_EQ(recovered->store.Count(9), 1u);
  EXPECT_DOUBLE_EQ(recovered->store.History(7)[1].runtime, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(recovered->store.History(7)[1].config[0],
                   128.0 * 1024 * 1024);
  EXPECT_TRUE(recovered->store.History(9)[0].failed);
  EXPECT_EQ(recovered->store.History(9)[0].iteration, 0);
}

TEST_F(JournalTest, ReopenAppendsInsteadOfTruncating) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Obs(0, 10.0)).ok());
  }
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Obs(1, 11.0)).ok());
  }
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_records, 2u);
  EXPECT_TRUE(recovered->clean);
}

TEST_F(JournalTest, TruncatedTailKeepsPrefix) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(journal->Append(1, Obs(i, 10.0 + i)).ok());
    }
  }
  // Simulate a kill mid-write: chop the file mid-way through the last line.
  std::string content = ReadAll();
  WriteAll(content.substr(0, content.size() - 7));
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->clean);
  EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(recovered->tail_records, 4u);
  EXPECT_EQ(recovered->records_dropped, 1u);
  EXPECT_GT(recovered->bytes_dropped, 0u);
  EXPECT_DOUBLE_EQ(recovered->store.History(1)[3].runtime, 13.0);
}

TEST_F(JournalTest, GarbageTailKeepsPrefix) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Obs(0, 10.0)).ok());
    ASSERT_TRUE(journal->Append(1, Obs(1, 11.0)).ok());
  }
  WriteAll(ReadAll() + "\x01\x02garbage not a record\xff\n more trash\n");
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->clean);
  EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(recovered->tail_records, 2u);
  EXPECT_EQ(recovered->records_dropped, 2u);
}

TEST_F(JournalTest, BitFlippedRecordDropsFromThereOn) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(journal->Append(1, Obs(i, 20.0 + i)).ok());
    }
  }
  std::string content = ReadAll();
  // Flip one payload bit in the third record (line index 3 counting the
  // header): the CRC must catch it and recovery must keep records 0-1 only.
  size_t line_start = 0;
  for (int line = 0; line < 3; ++line) {
    line_start = content.find('\n', line_start) + 1;
  }
  // Flip a character well inside the payload (past the 9-char CRC prefix).
  content[line_start + 12] ^= 0x01;
  WriteAll(content);
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->clean);
  EXPECT_EQ(recovered->tail_records, 2u);
  EXPECT_EQ(recovered->records_dropped, 2u);
  ASSERT_EQ(recovered->store.Count(1), 2u);
  EXPECT_DOUBLE_EQ(recovered->store.History(1)[1].runtime, 21.0);
}

TEST_F(JournalTest, MissingFileIsError) {
  // Distinct from tail damage: the whole journal is absent, not corrupt.
  EXPECT_EQ(RecoverJournalChain(path_ + ".nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(JournalTest, ForeignHeaderIsError) {
  WriteAll("not a rockhopper journal\nwhatever\n");
  EXPECT_EQ(RecoverJournalChain(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(JournalTest, EmptyJournalRecoversEmpty) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
  }
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->clean);
  EXPECT_EQ(recovered->tail_records, 0u);
}

TEST_F(JournalTest, GroupCommitSyncMakesRecordsDurable) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(journal->Append(3, Obs(i, 5.0 + i)).ok());
  }
  // Append only stages: ten short records still sit in the stdio buffer.
  Result<JournalChain> staged = RecoverJournalChain(path_);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->tail_records, 0u);
  // After Sync every appended record is recoverable, journal still open.
  ASSERT_TRUE(journal->Sync().ok());
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_records, 10u);
  EXPECT_EQ(journal->lost_records(), 0u);
}

TEST_F(JournalTest, GroupCommitConcurrentProducersLoseNothing) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  // Enough records per producer to overflow the stdio buffer many times,
  // with producers committing at their own pace: concurrent Syncs share
  // flushes and must neither drop nor reorder a record.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            journal->Append(static_cast<uint64_t>(t + 1), Obs(i, 1.0 + i))
                .ok());
        if (i % (t + 1) == 0) {
          ASSERT_TRUE(journal->Sync().ok());
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  ASSERT_TRUE(journal->Close().ok());
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->clean);
  EXPECT_EQ(recovered->tail_records,
            static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(recovered->store.Count(static_cast<uint64_t>(t + 1)),
              static_cast<size_t>(kPerThread));
    // Order preserved: per-signature iterations follow each producer's
    // append order.
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(recovered->store.History(static_cast<uint64_t>(t + 1))
                    [static_cast<size_t>(i)]
                        .iteration,
                i);
    }
  }
}

TEST_F(JournalTest, GroupCommitShimsOnlyCheckOpenAndSync) {
  // StartGroupCommit/StopGroupCommit remain for perfbench/ only: there is
  // one write mode, so they check the journal is open and Sync.
  ObservationJournal closed;
  EXPECT_EQ(closed.StartGroupCommit().code(),
            StatusCode::kFailedPrecondition);

  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  GroupCommitOptions options;
  options.max_batch = 1;
  options.queue_capacity = 1;
  ASSERT_TRUE(journal->StartGroupCommit(options).ok());
  ASSERT_TRUE(journal->StartGroupCommit().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal->Append(4, Obs(i, 2.0 + i)).ok());
  }
  ASSERT_TRUE(journal->StopGroupCommit().ok());
  Result<JournalChain> recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_records, 5u);
}

TEST_F(JournalTest, MoveTransfersOwnership) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  ObservationJournal moved = std::move(*journal);
  EXPECT_TRUE(moved.is_open());
  ASSERT_TRUE(moved.Append(1, Obs(0, 5.0)).ok());
  moved.Close();
  EXPECT_FALSE(moved.is_open());
  EXPECT_FALSE(moved.Append(1, Obs(1, 6.0)).ok());
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Doubles whose %a spellings cover every branch of the parser: zeros,
// subnormals, the normal range's ends, infinities, NaNs, and normal values
// with 0 through 13 fraction hex digits at both exponent signs.
std::vector<double> CodecEdgeValues() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,     -0.0,     denorm,   -denorm,
                                DBL_MIN, -DBL_MIN, DBL_MAX,  -DBL_MAX,
                                inf,     -inf,     nan,      -nan,
                                DBL_MIN / 3.0,     denorm * 12345.0,
                                FromBits(0x000FFFFFFFFFFFFFull)};
  for (int digits = 0; digits <= 13; ++digits) {
    // 0x123456789abcd keeps every hex digit nonzero, so %a prints exactly
    // `digits` fraction digits.
    const uint64_t mantissa = digits == 0 ? 0
                                          : (0x123456789ABCDull >>
                                             (4 * (13 - digits)))
                                                << (4 * (13 - digits));
    for (int exponent : {-1022, -700, -1, 0, 1, 9, 700, 1023}) {
      for (uint64_t sign : {uint64_t{0}, uint64_t{1} << 63}) {
        values.push_back(FromBits(
            sign | static_cast<uint64_t>(exponent + 1023) << 52 | mantissa));
      }
    }
  }
  return values;
}

void ExpectSameBits(double got, double want) {
  EXPECT_EQ(ToBits(got), ToBits(want)) << std::hexfloat << want;
}

TEST(JournalCodecTest, FormatParseRoundTripIsBitIdentical) {
  const std::vector<double> values = CodecEdgeValues();
  for (double v : values) {
    Observation obs;
    obs.data_size = v;
    obs.runtime = -v;
    obs.config = {v, 1.0, v};
    obs.iteration = 17;
    obs.failed = true;
    const std::string line = FormatJournalLine(123456789012345ull, obs);
    uint64_t signature = 0;
    Observation parsed;
    ASSERT_TRUE(ParseJournalLine(line, &signature, &parsed)) << line;
    EXPECT_EQ(signature, 123456789012345ull);
    EXPECT_EQ(parsed.iteration, 17);
    EXPECT_TRUE(parsed.failed);
    ExpectSameBits(parsed.data_size, obs.data_size);
    ExpectSameBits(parsed.runtime, obs.runtime);
    ASSERT_EQ(parsed.config.size(), obs.config.size());
    EXPECT_EQ(std::memcmp(parsed.config.data(), obs.config.data(),
                          obs.config.size() * sizeof(double)),
              0)
        << line;
  }
}

TEST(JournalCodecTest, EveryFormattedDoubleParsesAsStrtodDoes) {
  std::vector<double> values = CodecEdgeValues();
  uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = FromBits(x);
    if (v == v) values.push_back(v);  // NaN payloads print as plain "nan"
  }
  for (double v : values) {
    char text[64];
    std::snprintf(text, sizeof(text), "%a", v);
    Observation obs;
    obs.config = {v};
    uint64_t signature = 0;
    Observation parsed;
    ASSERT_TRUE(
        ParseJournalLine(FormatJournalLine(1, obs), &signature, &parsed));
    ASSERT_EQ(parsed.config.size(), 1u);
    ExpectSameBits(parsed.config[0], std::strtod(text, nullptr));
    ExpectSameBits(parsed.config[0], v);
  }
}

TEST(JournalCodecTest, ParsesOnlyItsOwnSlice) {
  Observation obs;
  obs.data_size = 2.0;
  obs.runtime = 3.0;
  obs.config = {0.5, 1.0};
  const std::string line = FormatJournalLine(5, obs);
  ASSERT_EQ(line.substr(line.size() - 6), "0x1p+0");
  for (const std::string& after :
       {std::string("\n0x1p+0 0x1p+1 0x1p+2"), std::string("5 0x1p+0")}) {
    const std::string buffer = line + after;
    uint64_t signature = 0;
    Observation parsed;
    ASSERT_TRUE(ParseJournalLine(std::string_view(buffer.data(), line.size()),
                                 &signature, &parsed));
    EXPECT_EQ(signature, 5u);
    ASSERT_EQ(parsed.config.size(), 2u);
    ExpectSameBits(parsed.config[1], 1.0);
  }
  // The same bytes one field short fail the checksum, never borrowing a
  // neighbour's field.
  uint64_t signature = 0;
  Observation parsed;
  EXPECT_FALSE(ParseJournalLine(
      std::string_view(line.data(), line.size() - 7), &signature, &parsed));
}

TEST(JournalCodecTest, AcceptsEveryFieldSpellingStrtodDoes) {
  // Hand-written payload: decimal and uppercase spellings, a leading plus,
  // and non-finite words all take the strtod path.
  const std::string payload = "42 3 0 1.5 +2.25 1e3 -0X1.8P+1 inf -nan";
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08X ", common::Crc32(payload));
  uint64_t signature = 0;
  Observation parsed;
  ASSERT_TRUE(ParseJournalLine(crc + payload, &signature, &parsed));
  EXPECT_EQ(signature, 42u);
  EXPECT_EQ(parsed.iteration, 3);
  EXPECT_FALSE(parsed.failed);
  EXPECT_EQ(parsed.data_size, 1.5);
  EXPECT_EQ(parsed.runtime, 2.25);
  ASSERT_EQ(parsed.config.size(), 4u);
  EXPECT_EQ(parsed.config[0], 1000.0);
  EXPECT_EQ(parsed.config[1], -3.0);
  EXPECT_EQ(parsed.config[2], std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(parsed.config[3]));
  // A field that is not a number still fails the record.
  const std::string bad = "42 3 0 1.5 2.25 x";
  std::snprintf(crc, sizeof(crc), "%08x ", common::Crc32(bad));
  EXPECT_FALSE(ParseJournalLine(crc + bad, &signature, &parsed));
}

}  // namespace
}  // namespace rockhopper::core
