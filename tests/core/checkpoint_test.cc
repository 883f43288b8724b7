#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "core/journal.h"
#include "core/observation.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  Observation Obs(int iteration, double runtime) {
    Observation o;
    o.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0};
    o.data_size = 1.5;
    o.runtime = runtime;
    o.iteration = iteration;
    return o;
  }

  /// Appends `n` observations for `signature` to the live journal.
  void Append(ObservationJournal* journal, uint64_t signature, int n,
              int first_iteration = 0) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          journal->Append(signature, Obs(first_iteration + i, 1.0 + i)).ok());
    }
  }

  std::string ReadFile(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteFile(const std::string& p, const std::string& content) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// A policy under which every checkpoint is a full image.
  static DeltaCheckpointPolicy FullImage() { return {/*max_chain=*/0}; }

  size_t SegmentCount() {
    auto segments = ObservationJournal::ListSegments(path_);
    return segments.ok() ? segments->size() : 0;
  }

  // The journal family lives in a directory of its own, removed afterwards.
  const test_support::TestTempDir dir_;
  const std::string path_ = dir_.File("journal.log");
};

TEST_F(CheckpointTest, AbsorbsSegmentsAndTruncates) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  Result<CheckpointReport> report = CheckpointLive(&*journal);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 5u);
  EXPECT_EQ(report->segments_absorbed, 1u);
  EXPECT_GE(report->last_segment, 1u);
  // Truncation: the absorbed segment is gone from disk.
  EXPECT_EQ(SegmentCount(), 0u);
  EXPECT_TRUE(std::filesystem::exists(CheckpointPath(path_)));

  // More traffic after the checkpoint lands in the fresh live file.
  Append(&*journal, 9, 3, /*first_iteration=*/0);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records, 5u);
  EXPECT_EQ(chain->tail_records, 3u);
  EXPECT_EQ(chain->store.Count(7), 5u);
  EXPECT_EQ(chain->store.Count(9), 3u);
}

TEST_F(CheckpointTest, RepeatedCheckpointsAccumulateAndAdvanceSeq) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  Append(&*journal, 7, 4);
  Result<CheckpointReport> first = CheckpointLive(&*journal);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records, 4u);

  Append(&*journal, 7, 4, /*first_iteration=*/4);
  Result<CheckpointReport> second = CheckpointLive(&*journal);
  ASSERT_TRUE(second.ok());
  // The second checkpoint holds the full absorbed history and a strictly
  // higher sequence number.
  EXPECT_EQ(second->records, 8u);
  EXPECT_GT(second->last_segment, first->last_segment);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_seq, second->last_segment);
  EXPECT_EQ(chain->store.Count(7), 8u);
  // Replay preserves order exactly.
  const std::vector<Observation>& history = chain->store.History(7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(history[i].iteration, i);
}

/// Regression: after a checkpoint absorbs and deletes seg-1, a naive
/// "highest on-disk segment + 1" rotation would reuse index 1, and the next
/// compaction would discard the reused segment as a stale pre-checkpoint
/// leftover — silently losing acked records.
TEST_F(CheckpointTest, RotationIndexNeverReusedAfterTruncation) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  size_t expected = 0;
  for (int round = 0; round < 3; ++round) {
    Append(&*journal, 7, 3, /*first_iteration=*/round * 3);
    expected += 3;
    Result<CheckpointReport> report = CheckpointLive(&*journal);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->records, expected) << "round " << round;
  }
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records + chain->tail_records, expected);
  EXPECT_EQ(chain->store.Count(7), expected);
}

/// Same reuse hazard across a restart: the in-memory hint dies with the
/// process, so the compactor's min_index floor must carry monotonicity.
TEST_F(CheckpointTest, RotationIndexMonotonicAcrossReopen) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, 7, 3);
    Result<CheckpointReport> report = CheckpointLive(&*journal);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  {
    // Fresh process image: next_segment_hint_ starts at zero again.
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, 7, 3, /*first_iteration=*/3);
    Result<CheckpointReport> report = CheckpointLive(&*journal);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->records, 6u);
    ASSERT_TRUE(journal->Close().ok());
  }
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(7), 6u);
}

TEST_F(CheckpointTest, TornCheckpointTailRecoversPrefix) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);
  ASSERT_TRUE(CheckpointLive(&*journal).ok());
  ASSERT_TRUE(journal->Close().ok());

  // Tear the checkpoint mid-record: the last line loses its tail bytes.
  std::string content = ReadFile(CheckpointPath(path_));
  ASSERT_FALSE(content.empty());
  WriteFile(CheckpointPath(path_), content.substr(0, content.size() - 10));

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  // The longest valid prefix survives; only the torn record is dropped.
  EXPECT_EQ(chain->checkpoint_records, 4u);
  EXPECT_EQ(chain->records_dropped, 1u);
  EXPECT_EQ(chain->store.Count(7), 4u);
}

TEST_F(CheckpointTest, CheckpointMissingDeclaredRecordsIsDataLoss) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);
  ASSERT_TRUE(CheckpointLive(&*journal).ok());
  ASSERT_TRUE(journal->Close().ok());

  // Drop a whole trailing line (clean line boundary): every remaining line
  // has a valid CRC, so only the header's declared record count can catch it.
  std::string content = ReadFile(CheckpointPath(path_));
  size_t cut = content.find_last_of('\n', content.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  WriteFile(CheckpointPath(path_), content.substr(0, cut + 1));

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(chain->checkpoint_records, 4u);
}

TEST_F(CheckpointTest, CrashMidTruncateNeverDoubleCounts) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  // Seal the records into a segment, then checkpoint, then simulate a crash
  // between the checkpoint rename and the segment unlink by restoring the
  // absorbed segment's bytes.
  Result<ObservationJournal::RotateResult> rotated = journal->Rotate();
  ASSERT_TRUE(rotated.ok());
  std::string segment_bytes = ReadFile(rotated->segment_path);
  Result<CheckpointReport> report = Checkpoint(path_, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 5u);
  ASSERT_FALSE(std::filesystem::exists(rotated->segment_path));
  WriteFile(rotated->segment_path, segment_bytes);
  ASSERT_TRUE(journal->Close().ok());

  // Recovery must skip the leftover: its index <= checkpoint_seq.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->checkpoint_records, 5u);
  EXPECT_EQ(chain->store.Count(7), 5u) << "absorbed segment replayed twice";

  // A later compaction finishes the truncation without re-absorbing.
  Result<CheckpointReport> again = Checkpoint(path_, FullImage());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 5u);
  EXPECT_FALSE(std::filesystem::exists(rotated->segment_path));
}

TEST_F(CheckpointTest, StaleTmpCheckpointIgnored) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);

  // A crash mid-compaction leaves a garbage .tmp; it must never be read.
  WriteFile(CheckpointPath(path_) + ".tmp", "garbage from a dead compactor\n");

  Result<CheckpointReport> report = CheckpointLive(&*journal);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 3u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 3u);
}

TEST_F(CheckpointTest, RecoverNothingIsNotFound) {
  Result<JournalChain> chain = RecoverJournalChain(path_);
  EXPECT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, LoneJournalIsAChainOfLengthZero) {
  // Sealed segments and a live file but no checkpoint: every record is
  // tail, replayed in append order.
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(journal->Rotate().ok());
  Append(&*journal, 7, 2, /*first_iteration=*/3);
  ASSERT_TRUE(journal->Rotate().ok());
  Append(&*journal, 7, 1, /*first_iteration=*/5);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_seq, 0u);
  EXPECT_EQ(chain->checkpoint_records, 0u);
  EXPECT_EQ(chain->deltas_replayed, 0u);
  EXPECT_EQ(chain->segments_replayed, 2u);
  EXPECT_EQ(chain->tail_records, 6u);
  const std::vector<Observation>& history = chain->store.History(7);
  ASSERT_EQ(history.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(history[i].iteration, i);
}

TEST_F(CheckpointTest, CheckpointOfClosedJournalAbsorbsSealedSegments) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 4);
  ASSERT_TRUE(journal->Rotate().ok());
  Append(&*journal, 9, 2);
  ASSERT_TRUE(journal->Close().ok());

  // The offline compactor absorbs the sealed segment and never touches the
  // live file.
  const std::string live_before = ReadFile(path_);
  Result<CheckpointReport> report = Checkpoint(path_, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->delta_index, 0u);
  EXPECT_EQ(report->segments_absorbed, 1u);
  EXPECT_EQ(report->records, 4u);
  EXPECT_EQ(SegmentCount(), 0u);
  EXPECT_EQ(ReadFile(path_), live_before);

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records, 4u);
  EXPECT_EQ(chain->tail_records, 2u);
  EXPECT_EQ(chain->store.Count(7), 4u);
  EXPECT_EQ(chain->store.Count(9), 2u);
}

TEST_F(CheckpointTest, NothingNewToAbsorbIsANoOp) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal).ok());
  ASSERT_TRUE(journal->Close().ok());
  const std::string image = ReadFile(CheckpointPath(path_));

  // No sealed segment is newer than the image: nothing is rewritten.
  Result<CheckpointReport> again = Checkpoint(path_, FullImage());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_absorbed, 0u);
  EXPECT_EQ(again->bytes_written, 0u);
  EXPECT_EQ(again->records, 3u);
  EXPECT_EQ(ReadFile(CheckpointPath(path_)), image);
}

TEST_F(CheckpointTest, CheckpointLiveRequiresOpenJournal) {
  EXPECT_EQ(CheckpointLive(nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(journal->Close().ok());
  EXPECT_EQ(CheckpointLive(&*journal).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath(path_)));
  EXPECT_EQ(SegmentCount(), 0u);
}

TEST_F(CheckpointTest, ForeignCheckpointHeaderIsInvalidArgument) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(journal->Rotate().ok());
  ASSERT_TRUE(journal->Close().ok());
  const std::string foreign = "some-other-format v9 1 1\n";
  WriteFile(CheckpointPath(path_), foreign);

  EXPECT_EQ(RecoverJournalChain(path_).status().code(),
            StatusCode::kInvalidArgument);
  // A full compaction refuses to build on a foreign image and leaves every
  // file as it found it.
  EXPECT_EQ(Checkpoint(path_, FullImage()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFile(CheckpointPath(path_)), foreign);
  EXPECT_EQ(SegmentCount(), 1u);
}

TEST_F(CheckpointTest, RecoveryIsIndependentOfCheckpointShape) {
  // One traffic stream into three journal families: never checkpointed,
  // checkpointed as full images, checkpointed as a delta chain. Every
  // shape must recover the same per-signature histories.
  struct Family {
    std::string path;
    bool checkpoint = false;
    DeltaCheckpointPolicy policy;
    Result<ObservationJournal> journal = Status::Internal("unopened");
  };
  DeltaCheckpointPolicy delta_policy;
  delta_policy.max_bytes_fraction = 0.0;
  std::vector<Family> families(3);
  families[0].path = dir_.File("plain.log");
  families[1].path = dir_.File("full.log");
  families[1].checkpoint = true;
  families[1].policy = FullImage();
  families[2].path = dir_.File("delta.log");
  families[2].checkpoint = true;
  families[2].policy = delta_policy;
  for (Family& family : families) {
    family.journal = ObservationJournal::Open(family.path);
    ASSERT_TRUE(family.journal.ok());
  }
  for (int round = 0; round < 4; ++round) {
    for (Family& family : families) {
      Append(&*family.journal, 7 + static_cast<uint64_t>(round % 2), 3,
             /*first_iteration=*/3 * round);
      if (family.checkpoint) {
        ASSERT_TRUE(CheckpointLive(&*family.journal, family.policy).ok());
      }
    }
  }
  for (Family& family : families) {
    Append(&*family.journal, 9, 2);
    ASSERT_TRUE(family.journal->Close().ok());
  }

  std::vector<JournalChain> chains;
  for (const Family& family : families) {
    Result<JournalChain> chain = RecoverJournalChain(family.path);
    ASSERT_TRUE(chain.ok()) << family.path;
    EXPECT_TRUE(chain->clean) << family.path;
    EXPECT_EQ(chain->checkpoint_records + chain->tail_records, 14u);
    chains.push_back(std::move(*chain));
  }
  EXPECT_EQ(chains[0].checkpoint_seq, 0u);
  EXPECT_EQ(chains[1].deltas_replayed, 0u);
  EXPECT_EQ(chains[2].deltas_replayed, 3u);
  for (uint64_t signature : {7u, 8u, 9u}) {
    const std::vector<Observation>& expected =
        chains[0].store.History(signature);
    ASSERT_FALSE(expected.empty());
    for (size_t f = 1; f < chains.size(); ++f) {
      const std::vector<Observation>& got = chains[f].store.History(signature);
      ASSERT_EQ(got.size(), expected.size()) << families[f].path;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].iteration, expected[i].iteration);
        EXPECT_EQ(got[i].runtime, expected[i].runtime);
        EXPECT_EQ(got[i].data_size, expected[i].data_size);
        EXPECT_EQ(got[i].config, expected[i].config);
      }
    }
  }
}

TEST_F(CheckpointTest, CheckpointWithGroupCommitActive) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 20);

  // Rotation is the sequence barrier: every appended record must land in
  // the checkpoint even though none was synced before the call.
  Result<CheckpointReport> report = CheckpointLive(&*journal);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 20u);

  Append(&*journal, 9, 5);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(7), 20u);
  EXPECT_EQ(chain->store.Count(9), 5u);
}

TEST_F(CheckpointTest, RepeatedRotationNeverDropsConcurrentAppends) {
  // Regression: Rotate() used to close the live file before renaming it, so
  // an Append racing the swap could observe a momentarily-closed journal and
  // fail ("journal is not open") even though the journal was healthy —
  // acked-and-dropped records under an online checkpoint cadence. The rename
  // now happens with the stream still open, so every Append during any
  // number of rotations must succeed and every record must survive in the
  // chain exactly once.
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<uint64_t> append_failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t signature = 100 + static_cast<uint64_t>(t);
      for (int i = 0; i < kPerThread; ++i) {
        if (!journal->Append(signature, Obs(i, 1.0 + i)).ok()) {
          append_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Checkpoint continuously while the appenders run: each call rotates the
  // live file, maximizing swaps racing the appends.
  for (int round = 0; round < 12; ++round) {
    Result<CheckpointReport> report = CheckpointLive(&*journal);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(append_failures.load(), 0u);
  EXPECT_EQ(journal->lost_records(), 0u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(chain->store.Count(100 + static_cast<uint64_t>(t)),
              static_cast<size_t>(kPerThread));
  }
}

/// Pins the on-disk format: a fixed sequence of full images, raw and lz
/// deltas, both collapse triggers, and offline compactions over
/// crash-mid-truncate leftovers must publish files with these exact CRCs
/// and return these exact reports. Any change here is a format change.
TEST_F(CheckpointTest, FilesAndReportsMatchPinnedFormat) {
  struct Expected {
    uint64_t last_segment;
    size_t records;
    size_t segments_absorbed;
    size_t records_dropped;
    uint64_t delta_index;
    size_t deltas_absorbed;
    size_t bytes_written;
    uint32_t crc;  // of the published file; 0 when nothing was published
  };
  const auto expect = [&](const char* step,
                          const Result<CheckpointReport>& report,
                          const std::string& file, const Expected& want) {
    SCOPED_TRACE(step);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->checkpoint_path, CheckpointPath(path_));
    EXPECT_EQ(report->last_segment, want.last_segment);
    EXPECT_EQ(report->records, want.records);
    EXPECT_EQ(report->segments_absorbed, want.segments_absorbed);
    EXPECT_EQ(report->records_dropped, want.records_dropped);
    EXPECT_EQ(report->delta_index, want.delta_index);
    EXPECT_EQ(report->deltas_absorbed, want.deltas_absorbed);
    EXPECT_EQ(report->bytes_written, want.bytes_written);
    if (want.crc != 0) {
      EXPECT_EQ(common::Crc32(ReadFile(file)), want.crc);
    }
  };
  const auto policy = [](size_t max_chain, double max_bytes_fraction,
                         bool compress) {
    DeltaCheckpointPolicy p;
    p.max_chain = max_chain;
    p.max_bytes_fraction = max_bytes_fraction;
    p.compress = compress;
    return p;
  };
  const std::string image = CheckpointPath(path_);
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  Append(&*journal, 7, 5);
  expect("full", CheckpointLive(&*journal), image,
         {1, 5, 1, 0, 0, 0, 294, 0xc63eff4au});
  Append(&*journal, 9, 3);
  expect("raw delta", CheckpointLive(&*journal, policy(8, 0.0, false)),
         CheckpointDeltaPath(path_, 1), {2, 3, 1, 0, 1, 0, 213, 0x9e5b95eau});
  Append(&*journal, 7, 2, /*first_iteration=*/5);
  expect("lz delta", CheckpointLive(&*journal, policy(8, 0.0, true)),
         CheckpointDeltaPath(path_, 2), {3, 2, 1, 0, 2, 0, 122, 0x717c4b1au});
  Append(&*journal, 11, 1);
  expect("max_chain collapse", CheckpointLive(&*journal, policy(2, 0.0, true)),
         image, {4, 11, 1, 0, 0, 2, 645, 0x18a98c14u});
  Append(&*journal, 12, 1);
  expect("lz delta again", CheckpointLive(&*journal, policy(8, 0.0, true)),
         CheckpointDeltaPath(path_, 1), {5, 1, 1, 0, 1, 0, 100, 0x4537b43du});
  Append(&*journal, 13, 1);
  expect("max_bytes_fraction collapse",
         CheckpointLive(&*journal, policy(8, 0.01, true)), image,
         {6, 13, 1, 0, 0, 1, 763, 0xfe3db328u});

  // Offline full compaction, then again over a restored (crash-mid-truncate)
  // segment: the second call only finishes the truncation.
  Append(&*journal, 14, 2);
  Result<ObservationJournal::RotateResult> rotated = journal->Rotate();
  ASSERT_TRUE(rotated.ok());
  const std::string segment = ReadFile(rotated->segment_path);
  expect("offline full", Checkpoint(path_, FullImage()), image,
         {7, 15, 1, 0, 0, 0, 881, 0x85869007u});
  WriteFile(rotated->segment_path, segment);
  expect("offline full over leftover", Checkpoint(path_, FullImage()), image,
         {7, 15, 0, 0, 0, 0, 0, 0x85869007u});
  EXPECT_FALSE(std::filesystem::exists(rotated->segment_path));

  // The same for an offline delta.
  Append(&*journal, 15, 2);
  rotated = journal->Rotate();
  ASSERT_TRUE(rotated.ok());
  const std::string delta_segment = ReadFile(rotated->segment_path);
  expect("offline delta", Checkpoint(path_, policy(8, 0.0, true)),
         CheckpointDeltaPath(path_, 1), {8, 2, 1, 0, 1, 0, 124, 0x330a0c21u});
  WriteFile(rotated->segment_path, delta_segment);
  expect("offline delta over leftover", Checkpoint(path_, policy(8, 0.0, true)),
         "", {8, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_FALSE(std::filesystem::exists(rotated->segment_path));

  // A torn segment tail is dropped and counted.
  Append(&*journal, 16, 3);
  rotated = journal->Rotate();
  ASSERT_TRUE(rotated.ok());
  const std::string torn = ReadFile(rotated->segment_path);
  WriteFile(rotated->segment_path, torn.substr(0, torn.size() - 10));
  expect("torn segment delta", Checkpoint(path_, policy(8, 0.0, false)),
         CheckpointDeltaPath(path_, 2), {9, 2, 1, 1, 2, 0, 155, 0x35c97632u});
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->checkpoint_seq, 9u);
  EXPECT_EQ(chain->checkpoint_records, 19u);
  EXPECT_EQ(chain->deltas_replayed, 2u);
  EXPECT_EQ(chain->segments_replayed, 0u);
  EXPECT_EQ(chain->tail_records, 0u);
}

// ---------------------------------------------------------------------------
// Incremental (delta) checkpoints.

class DeltaCheckpointTest : public CheckpointTest {
 protected:
  DeltaCheckpointPolicy Policy(size_t max_chain = 8, bool compress = true) {
    DeltaCheckpointPolicy policy;
    policy.max_chain = max_chain;
    policy.compress = compress;
    // Size-triggered compaction off: these tests drive the chain length
    // explicitly.
    policy.max_bytes_fraction = 0.0;
    return policy;
  }

  size_t DeltaCount() {
    auto deltas = ListCheckpointDeltas(path_);
    return deltas.ok() ? deltas->size() : 0;
  }
};

TEST_F(DeltaCheckpointTest, FirstCheckpointIsFullThenDeltasStack) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  // No full image yet: the incremental path must produce one.
  Result<CheckpointReport> first = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->delta_index, 0u);
  EXPECT_EQ(first->records, 5u);

  Append(&*journal, 9, 3);
  Result<CheckpointReport> second = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->delta_index, 1u);
  EXPECT_EQ(second->records, 3u) << "delta absorbs only the churn";
  EXPECT_GT(second->bytes_written, 0u);

  Append(&*journal, 7, 2, /*first_iteration=*/5);
  Result<CheckpointReport> third = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->delta_index, 2u);
  EXPECT_EQ(third->records, 2u);
  EXPECT_EQ(DeltaCount(), 2u);
  ASSERT_TRUE(journal->Close().ok());

  // Recovery replays image + chain, byte-identical history per signature.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 2u);
  EXPECT_EQ(chain->checkpoint_records, 10u);
  EXPECT_EQ(chain->store.Count(7), 7u);
  EXPECT_EQ(chain->store.Count(9), 3u);
  const std::vector<Observation>& history = chain->store.History(7);
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].iteration, static_cast<int>(i));
  }
}

TEST_F(DeltaCheckpointTest, SteadyStateDeltaBytesTrackChurnNotPopulation) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  // Large population in the full image.
  for (uint64_t sig = 0; sig < 200; ++sig) Append(&*journal, sig, 2);
  Result<CheckpointReport> full = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->delta_index, 0u);
  const size_t full_bytes = full->bytes_written;

  // 1% churn: two signatures touched.
  Append(&*journal, 3, 2, /*first_iteration=*/2);
  Append(&*journal, 4, 2, /*first_iteration=*/2);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  EXPECT_EQ(delta->records, 4u);
  EXPECT_LT(delta->bytes_written, full_bytes / 3)
      << "delta I/O must be proportional to churn, not population";
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(3), 4u);
  EXPECT_EQ(chain->store.Count(0), 2u);
}

TEST_F(DeltaCheckpointTest, ChainCompactsAtMaxChainAndRemovesDeltas) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(2)).ok());  // full
  for (int round = 0; round < 2; ++round) {
    Append(&*journal, 8 + static_cast<uint64_t>(round), 1);
    Result<CheckpointReport> report = CheckpointLive(&*journal, Policy(2));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->delta_index, static_cast<uint64_t>(round + 1));
  }
  EXPECT_EQ(DeltaCount(), 2u);

  // Chain is at max length: the next checkpoint collapses it.
  Append(&*journal, 20, 1);
  Result<CheckpointReport> compacted = CheckpointLive(&*journal, Policy(2));
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->delta_index, 0u);
  EXPECT_EQ(compacted->deltas_absorbed, 2u);
  EXPECT_EQ(compacted->records, 5u);
  EXPECT_EQ(DeltaCount(), 0u) << "collapsed deltas must be removed";
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records, 5u);
}

TEST_F(DeltaCheckpointTest, ZeroMaxChainMakesEveryCheckpointFull) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  for (int round = 0; round < 3; ++round) {
    Append(&*journal, 7, 2, /*first_iteration=*/2 * round);
    Result<CheckpointReport> report = CheckpointLive(&*journal, Policy(0));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->delta_index, 0u) << "round " << round;
    EXPECT_EQ(report->records, static_cast<size_t>(2 * (round + 1)));
  }
  EXPECT_EQ(DeltaCount(), 0u);
  ASSERT_TRUE(journal->Close().ok());
}

TEST_F(DeltaCheckpointTest, RawEncodingRoundTrips) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(8, /*compress=*/false)).ok());
  Append(&*journal, 9, 3);
  Result<CheckpointReport> delta =
      CheckpointLive(&*journal, Policy(8, /*compress=*/false));
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(9), 3u);
}

TEST_F(DeltaCheckpointTest, StaleDeltaTmpIgnoredByRecovery) {
  // Crash mid-delta-write leaves a .tmp that is never renamed: recovery and
  // later compactions must be oblivious to it.
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 4);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  WriteFile(CheckpointDeltaPath(path_, 1) + ".tmp",
            "rockhopper-ckpt-delta v1 1 1 2 9 lz\ngarbage");
  Append(&*journal, 9, 2);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 4u);
  EXPECT_EQ(chain->store.Count(9), 2u);
}

TEST_F(DeltaCheckpointTest, CrashBetweenDeltaPublishAndTruncateNeverDoubles) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());

  // Seal churn into a segment, delta it, then simulate a crash between the
  // delta rename and the segment unlink by restoring the segment's bytes.
  Append(&*journal, 9, 4);
  Result<ObservationJournal::RotateResult> rotated = journal->Rotate();
  ASSERT_TRUE(rotated.ok());
  const std::string segment_bytes = ReadFile(rotated->segment_path);
  Result<CheckpointReport> delta = Checkpoint(path_, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  ASSERT_FALSE(std::filesystem::exists(rotated->segment_path));
  WriteFile(rotated->segment_path, segment_bytes);
  ASSERT_TRUE(journal->Close().ok());

  // Recovery skips the leftover: its index <= the chain seq.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(9), 4u) << "absorbed segment replayed twice";

  // The next delta writer finishes the truncation without re-absorbing.
  Result<CheckpointReport> again = Checkpoint(path_, Policy());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_absorbed, 0u);
  EXPECT_FALSE(std::filesystem::exists(rotated->segment_path));
}

TEST_F(DeltaCheckpointTest, CrashBetweenCompactionAndDeltaRemovalSkipsStale) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1
  const std::string delta_bytes = ReadFile(CheckpointDeltaPath(path_, 1));

  // Full compaction collapses the chain; simulate a crash before the delta
  // unlink by restoring the collapsed delta's bytes.
  Append(&*journal, 11, 1);
  Result<CheckpointReport> full = CheckpointLive(&*journal);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->deltas_absorbed, 1u);
  WriteFile(CheckpointDeltaPath(path_, 1), delta_bytes);
  ASSERT_TRUE(journal->Close().ok());

  // The restored delta's base-seq references the pre-compaction image, so
  // recovery must treat it as stale — replaying it would double-count 9.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 0u);
  EXPECT_EQ(chain->store.Count(9), 2u) << "stale delta replayed";
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(11), 1u);

  // The next writer deletes the stale file.
  Result<CheckpointReport> next = Checkpoint(path_, Policy());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(DeltaCount(), 0u);
}

TEST_F(DeltaCheckpointTest, TornCompressedDeltaIsDataLossNotGarbage) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 5);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1

  // External corruption: truncate the published delta's compressed body.
  const std::string delta_path = CheckpointDeltaPath(path_, 1);
  const std::string bytes = ReadFile(delta_path);
  WriteFile(delta_path, bytes.substr(0, bytes.size() - 3));
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(chain->records_dropped, 5u) << "whole envelope lost, counted";
  // The full image before the damaged delta replays intact; the damaged
  // delta contributes nothing (never garbage).
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(9), 0u);
}

TEST_F(DeltaCheckpointTest, DamagedMiddleDeltaStopsChainReplay) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 8, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1
  Append(&*journal, 9, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 2
  ASSERT_TRUE(journal->Close().ok());

  // Corrupt delta 1: delta 2 must not replay past the break (its records
  // would be out of order relative to the lost ones).
  const std::string delta1 = CheckpointDeltaPath(path_, 1);
  std::string bytes = ReadFile(delta1);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFile(delta1, bytes);

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 2u);
  EXPECT_EQ(chain->store.Count(8), 0u);
  EXPECT_EQ(chain->store.Count(9), 0u) << "chain replayed past the break";
  EXPECT_EQ(chain->records_dropped, 4u);
}

TEST_F(DeltaCheckpointTest, ByteFractionTriggerCollapsesChain) {
  DeltaCheckpointPolicy policy = Policy();
  // Any delta at all outweighs this fraction of the image.
  policy.max_bytes_fraction = 1e-6;
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);
  ASSERT_TRUE(CheckpointLive(&*journal, policy).ok());  // full

  Append(&*journal, 8, 1);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, policy);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u) << "an empty chain is below any fraction";

  Append(&*journal, 9, 1);
  Result<CheckpointReport> collapsed = CheckpointLive(&*journal, policy);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed->delta_index, 0u);
  EXPECT_EQ(collapsed->deltas_absorbed, 1u);
  EXPECT_EQ(collapsed->records, 7u);
  EXPECT_EQ(DeltaCount(), 0u);
  ASSERT_TRUE(journal->Close().ok());
}

TEST_F(DeltaCheckpointTest, DueCollapseRunsWithoutFreshSegments) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(1)).ok());  // full
  Append(&*journal, 8, 2);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy(1));
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->delta_index, 1u);
  ASSERT_TRUE(journal->Close().ok());

  // The chain is at max length: the collapse happens even though no sealed
  // segment is waiting.
  Result<CheckpointReport> collapsed = Checkpoint(path_, Policy(1));
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed->delta_index, 0u);
  EXPECT_EQ(collapsed->segments_absorbed, 0u);
  EXPECT_EQ(collapsed->deltas_absorbed, 1u);
  EXPECT_EQ(collapsed->records, 5u);
  EXPECT_EQ(DeltaCount(), 0u);

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 0u);
  EXPECT_EQ(chain->checkpoint_records, 5u);
  EXPECT_EQ(chain->checkpoint_seq, delta->last_segment);
  EXPECT_EQ(chain->store.Count(8), 2u);
}

TEST_F(DeltaCheckpointTest, ListCheckpointDeltasOrdersNumericallyAndSkipsJunk) {
  for (uint64_t k : {10u, 2u, 1u, 9u}) {
    WriteFile(CheckpointDeltaPath(path_, k), "x\n");
  }
  // A tmp leftover, a name with no index, a non-numeric index and another
  // journal's delta are not this family's deltas.
  WriteFile(CheckpointDeltaPath(path_, 3) + ".tmp", "x\n");
  WriteFile(CheckpointPath(path_) + ".delta-", "x\n");
  WriteFile(CheckpointPath(path_) + ".delta-x7", "x\n");
  WriteFile(CheckpointDeltaPath(dir_.File("other.log"), 4), "x\n");

  auto deltas = ListCheckpointDeltas(path_);
  ASSERT_TRUE(deltas.ok());
  const std::vector<uint64_t> expected = {1, 2, 9, 10};
  ASSERT_EQ(deltas->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*deltas)[i].first, expected[i]);
    EXPECT_EQ(std::filesystem::path((*deltas)[i].second).filename(),
              std::filesystem::path(CheckpointDeltaPath(path_, expected[i]))
                  .filename());
  }
}

}  // namespace
}  // namespace rockhopper::core
