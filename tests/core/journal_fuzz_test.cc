// Fuzz-style crash-shape coverage for journal recovery (RecoverJournalChain
// over a lone journal): every possible truncation point and every possible
// single-bit corruption inside the final record must recover the prior
// records intact, report the tail as kDataLoss, and never crash.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

// Collects the first failed check of a child process, whose gtest
// assertions would not reach the parent.
struct ChildChecks {
  std::string failure;
  void Eq(const std::string& what, uint64_t actual, uint64_t expected) {
    if (failure.empty() && actual != expected) {
      failure = what + ": got " + std::to_string(actual) + ", want " +
                std::to_string(expected);
    }
  }
  void Code(const std::string& what, const Status& status, StatusCode want) {
    Eq(what + " (" + status.ToString() + ")",
       static_cast<uint64_t>(status.code()), static_cast<uint64_t>(want));
  }
  void True(const std::string& what, bool holds) { Eq(what, holds, true); }
};

// Opens a journal at `path` on a healthy disk, then makes the disk full:
// the process lowers its own file-size limit to `limit` bytes, with SIGXFSZ
// ignored so writes past it fail with EFBIG. Runs `body` on the open journal
// and returns 0 when every check held. Meant for an EXPECT_EXIT child, so
// the lowered limit never reaches the rest of the suite.
int RunOnFullDisk(
    const std::string& path, rlim_t limit,
    const std::function<void(ObservationJournal&, ChildChecks&)>& body) {
  ChildChecks checks;
  auto opened = ObservationJournal::Open(path);
  checks.Code("open", opened.status(), StatusCode::kOk);
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit lowered{limit, limit};
  checks.True("setrlimit", setrlimit(RLIMIT_FSIZE, &lowered) == 0);
  if (checks.failure.empty()) body(*opened, checks);
  if (checks.failure.empty()) return 0;
  std::fprintf(stderr, "%s\n", checks.failure.c_str());
  return 1;
}

Observation FullDiskObs(int iteration) {
  Observation obs;
  obs.config = {1.0, 2.0};
  obs.data_size = 1.0;
  obs.runtime = 5.0;
  obs.iteration = iteration;
  return obs;
}

TEST(JournalStickyErrorTest, DevFullSurfacesFirstErrorEverywhere) {
  if (std::filesystem::exists("/dev/full")) {
    // The header write already hits ENOSPC.
    auto opened = ObservationJournal::Open("/dev/full");
    EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  }
  // A journal that opened cleanly before the disk filled: the first commit
  // fails, and fail-fast stickiness makes later appends and the shutdown
  // path surface that first error instead of pretending all is well.
  const test_support::TestTempDir dir;
  EXPECT_EXIT(
      std::exit(RunOnFullDisk(
          dir.File("journal.log"), 0,
          [](ObservationJournal& journal, ChildChecks& checks) {
            Status first;
            for (int i = 0; i < 4 && first.ok(); ++i) {
              first = journal.Append(7, FullDiskObs(i));
              // Append only stages; the commit is where the disk surfaces.
              if (first.ok()) first = journal.Sync();
            }
            checks.True("a write failed", !first.ok());
            checks.Code("append", journal.Append(7, FullDiskObs(99)),
                        first.code());
            checks.Code("sync", journal.Sync(), first.code());
            checks.Code("close", journal.Close(), first.code());
          })),
      ::testing::ExitedWithCode(0), "");
}

TEST(JournalStickyErrorTest, DevFullCountsEveryAppendExactlyOnce) {
  const test_support::TestTempDir dir;
  // The limit sits right at the end of the header: the journal opens
  // cleanly and its first batch commit is the first write the disk refuses.
  EXPECT_EXIT(
      std::exit(RunOnFullDisk(
          dir.File("journal.log"), std::strlen("rockhopper-journal v1\n"),
          [](ObservationJournal& journal, ChildChecks& checks) {
            const ServiceMetrics& metrics = ServiceMetrics::Get();
            const uint64_t appends0 = metrics.journal_appends->Value();
            const uint64_t errors0 = metrics.journal_errors->Value();
            const uint64_t flushes0 = metrics.journal_flush_seconds->Count();
            const uint64_t batches0 = metrics.journal_batch_size->Count();
            // Three records stage, then one failed batch flush loses all
            // three; the sticky error refuses the next two outright.
            for (int i = 0; i < 3; ++i) {
              checks.Code("staging append", journal.Append(7, FullDiskObs(i)),
                          StatusCode::kOk);
            }
            checks.Code("sync", journal.Sync(), StatusCode::kIOError);
            for (int i = 3; i < 5; ++i) {
              checks.Code("refused append", journal.Append(7, FullDiskObs(i)),
                          StatusCode::kIOError);
            }
            checks.Code("close", journal.Close(), StatusCode::kIOError);
            checks.Eq("lost_records", journal.lost_records(), 5);
            // appends + errors == accepted: each of the five Append calls
            // lands in exactly one series, and only the one real flush is
            // observed.
            checks.Eq("appends delta",
                      metrics.journal_appends->Value() - appends0, 0);
            checks.Eq("errors delta",
                      metrics.journal_errors->Value() - errors0, 5);
            checks.Eq("flushes delta",
                      metrics.journal_flush_seconds->Count() - flushes0, 1);
            checks.Eq("batches delta",
                      metrics.journal_batch_size->Count() - batches0, 1);
          })),
      ::testing::ExitedWithCode(0), "");
}

TEST(JournalStickyErrorTest, RotateFailsWhenTheFreshHeaderIsRefused) {
  const test_support::TestTempDir dir;
  const std::string path = dir.File("journal.log");
  EXPECT_EXIT(
      std::exit(RunOnFullDisk(
          path, 0, [&path](ObservationJournal& journal, ChildChecks& checks) {
            checks.Code("rotate", journal.Rotate().status(),
                        StatusCode::kIOError);
            // The headerless live file is gone, the sealed segment holds the
            // old prefix, and the error stays sticky.
            checks.True("live file removed", !std::filesystem::exists(path));
            checks.True("segment sealed",
                        std::filesystem::exists(path + ".seg-1"));
            checks.Code("append after rotate", journal.Append(7, FullDiskObs(0)),
                        StatusCode::kIOError);
          })),
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace rockhopper::core
