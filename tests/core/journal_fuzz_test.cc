// Fuzz-style crash-shape coverage for journal recovery (RecoverJournalChain
// over a lone journal): every possible truncation point and every possible
// single-bit corruption inside the final record must recover the prior
// records intact, report the tail as kDataLoss, and never crash.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "core/tracing.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

class JournalFuzzTest : public ::testing::Test {
 protected:
  Observation Obs(int iteration) {
    Observation o;
    o.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0 + iteration};
    o.data_size = 1.5 + 0.25 * iteration;
    o.runtime = 10.0 + iteration;
    o.iteration = iteration;
    o.failed = (iteration % 2) == 1;
    return o;
  }

  // Writes a journal of `n` records and returns its raw bytes.
  std::string WriteJournal(int n) {
    auto opened = ObservationJournal::Open(path_);
    EXPECT_TRUE(opened.ok());
    ObservationJournal journal = std::move(*opened);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(journal.Append(kSignature, Obs(i)).ok());
    }
    EXPECT_TRUE(journal.Close().ok());
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteMutated(const std::string& bytes) {
    std::ofstream out(mutated_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
  }

  // Asserts `recovered` holds exactly the first `n` generated observations.
  void ExpectPrefixIntact(const JournalChain& recovered, int n) {
    EXPECT_EQ(recovered.tail_records, static_cast<uint64_t>(n));
    const std::vector<Observation>& history =
        recovered.store.History(kSignature);
    ASSERT_EQ(history.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Observation expected = Obs(i);
      EXPECT_EQ(history[i].iteration, expected.iteration);
      EXPECT_EQ(history[i].failed, expected.failed);
      EXPECT_DOUBLE_EQ(history[i].runtime, expected.runtime);
      EXPECT_DOUBLE_EQ(history[i].data_size, expected.data_size);
      ASSERT_EQ(history[i].config.size(), expected.config.size());
      for (size_t d = 0; d < expected.config.size(); ++d) {
        EXPECT_DOUBLE_EQ(history[i].config[d], expected.config[d]);
      }
    }
  }

  static constexpr uint64_t kSignature = 42;
  static constexpr int kRecords = 5;
  const test_support::TestTempDir dir_;
  const std::string path_ = dir_.File("journal.log");
  const std::string mutated_path_ = dir_.File("mutated.log");
};

TEST_F(JournalFuzzTest, TruncationAtEveryOffsetInsideFinalRecord) {
  const std::string bytes = WriteJournal(kRecords);
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.back(), '\n');
  const size_t last_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  ASSERT_GT(last_start, 0u);

  // Every cut strictly inside the final record leaves a torn tail: the four
  // prior records recover intact and the damage is reported as data loss.
  for (size_t cut = last_start + 1; cut < bytes.size(); ++cut) {
    WriteMutated(bytes.substr(0, cut));
    auto recovered = RecoverJournalChain(mutated_path_);
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut;
    EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss)
        << "cut at " << cut;
    ExpectPrefixIntact(*recovered, kRecords - 1);
  }

  // Cutting exactly at the record boundary is a clean shorter journal, and
  // the untouched file recovers everything.
  WriteMutated(bytes.substr(0, last_start));
  auto boundary = RecoverJournalChain(mutated_path_);
  ASSERT_TRUE(boundary.ok());
  EXPECT_TRUE(boundary->tail_status.ok());
  ExpectPrefixIntact(*boundary, kRecords - 1);

  WriteMutated(bytes);
  auto whole = RecoverJournalChain(mutated_path_);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->tail_status.ok());
  ExpectPrefixIntact(*whole, kRecords);
}

TEST_F(JournalFuzzTest, BitFlipAtEveryByteOfFinalRecord) {
  const std::string bytes = WriteJournal(kRecords);
  const size_t last_start = bytes.rfind('\n', bytes.size() - 2) + 1;

  // Flipping any single bit of the final line — checksum field, separator,
  // payload, or its newline — must fail the CRC (or tear the line) and
  // recover around it, never past it and never crashing.
  for (size_t pos = last_start; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    WriteMutated(mutated);
    auto recovered = RecoverJournalChain(mutated_path_);
    ASSERT_TRUE(recovered.ok()) << "flip at " << pos;
    EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss)
        << "flip at " << pos;
    ExpectPrefixIntact(*recovered, kRecords - 1);
  }
}

TEST_F(JournalFuzzTest, EmptyTailLineIsDataLoss) {
  // A crash can leave a lone newline or stray whitespace after the last
  // record; recovery keeps the records and flags the garbage.
  const std::string bytes = WriteJournal(kRecords);
  WriteMutated(bytes + "\n");
  auto recovered = RecoverJournalChain(mutated_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss);
  ExpectPrefixIntact(*recovered, kRecords);
}

TEST(JournalStickyErrorTest, DevFullSurfacesFirstErrorEverywhere) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  auto opened = ObservationJournal::Open("/dev/full");
  if (!opened.ok()) {
    // The header write already hit ENOSPC — equally valid surfacing.
    EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
    return;
  }
  ObservationJournal journal = std::move(*opened);
  Observation obs;
  obs.config = {1.0, 2.0};
  obs.data_size = 1.0;
  obs.runtime = 5.0;
  Status first;
  for (int i = 0; i < 4 && first.ok(); ++i) {
    obs.iteration = i;
    first = journal.Append(7, obs);
    // Append only stages; the commit is where the full disk surfaces.
    if (first.ok()) first = journal.Sync();
  }
  ASSERT_FALSE(first.ok());
  // Fail-fast stickiness: later appends and the shutdown path all surface
  // the first error instead of pretending the journal is healthy.
  obs.iteration = 99;
  EXPECT_EQ(journal.Append(7, obs).code(), first.code());
  EXPECT_EQ(journal.Sync().code(), first.code());
  EXPECT_EQ(journal.Close().code(), first.code());
}

TEST(JournalStickyErrorTest, DevFullCountsEveryAppendExactlyOnce) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  const uint64_t appends0 = metrics.journal_appends->Value();
  const uint64_t errors0 = metrics.journal_errors->Value();
  const uint64_t flushes0 = metrics.journal_flush_seconds->Count();
  const uint64_t batches0 = metrics.journal_batch_size->Count();
  {
    auto opened = ObservationJournal::Open("/dev/full");
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
      return;
    }
    ObservationJournal journal = std::move(*opened);
    Observation obs;
    obs.config = {1.0, 2.0};
    obs.data_size = 1.0;
    obs.runtime = 5.0;
    // Three records stage, then one failed batch flush loses all three;
    // the sticky error refuses the next two outright.
    for (int i = 0; i < 3; ++i) {
      obs.iteration = i;
      ASSERT_TRUE(journal.Append(7, obs).ok());
    }
    EXPECT_EQ(journal.Sync().code(), StatusCode::kIOError);
    for (int i = 3; i < 5; ++i) {
      obs.iteration = i;
      EXPECT_EQ(journal.Append(7, obs).code(), StatusCode::kIOError);
    }
    EXPECT_EQ(journal.Close().code(), StatusCode::kIOError);
    EXPECT_EQ(journal.lost_records(), 5u);
  }
  // appends + errors == accepted: each of the five Append calls lands in
  // exactly one series, and only the one real flush is observed.
  EXPECT_EQ(metrics.journal_appends->Value() - appends0, 0u);
  EXPECT_EQ(metrics.journal_errors->Value() - errors0, 5u);
  EXPECT_EQ(metrics.journal_flush_seconds->Count() - flushes0, 1u);
  EXPECT_EQ(metrics.journal_batch_size->Count() - batches0, 1u);
}

}  // namespace
}  // namespace rockhopper::core
