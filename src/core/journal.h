#ifndef ROCKHOPPER_CORE_JOURNAL_H_
#define ROCKHOPPER_CORE_JOURNAL_H_

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/observation.h"

namespace rockhopper::core {

/// Formats one checksummed journal record line ("<crc-hex8> <payload>",
/// no trailing newline). Shared with the checkpoint compactor, which stores
/// absorbed records in the same self-checking format.
std::string FormatJournalLine(uint64_t signature, const Observation& obs);

/// Parses and CRC-validates one record line; false on any damage.
bool ParseJournalLine(const std::string& line, uint64_t* signature,
                      Observation* obs);

/// Accepted and ignored by StartGroupCommit; kept only because perfbench/
/// still passes it.
struct GroupCommitOptions {
  size_t max_batch = 64;
  size_t queue_capacity = 4096;
};

/// Crash-safe, append-only observation journal — the restart path that
/// replaces bulk CSV export for the live service. One line per accepted
/// observation:
///
///   rockhopper-journal v1
///   <crc32-hex8> <signature> <iteration> <failed> <data_size> <runtime> <c0> <c1> ...
///
/// Doubles are hexfloat-formatted (exact round-trip); the CRC-32 covers the
/// payload after the checksum field. A service killed mid-write leaves a
/// truncated or garbage tail; recovery (RecoverJournalChain in
/// core/checkpoint.h, which reads the journal together with its checkpoint
/// chain and sealed segments) keeps the longest valid prefix and reports
/// what it dropped, so a restart never replays corrupt rows verbatim
/// (unlike the CSV path this replaces).
///
/// One write path: Append stages a record in the stdio buffer and Sync
/// commits every staged record, from every thread, with one fflush.
/// Concurrent Sync callers share that flush — group commit without a writer
/// thread. TuningService syncs before it returns from OnQueryEnd, so an
/// acked observation has been handed to the kernel (docs/FAULT_MODEL.md).
///
/// Accounting: every Append call is counted exactly once, either in
/// rockhopper_journal_appends_total (its record's flush succeeded) or in
/// rockhopper_journal_errors_total and lost_records() (it staged nothing, or
/// its flush failed).
class ObservationJournal {
 public:
  ObservationJournal() = default;
  ~ObservationJournal();
  ObservationJournal(ObservationJournal&& other) noexcept;
  ObservationJournal& operator=(ObservationJournal&& other) noexcept;
  ObservationJournal(const ObservationJournal&) = delete;
  ObservationJournal& operator=(const ObservationJournal&) = delete;

  /// Opens `path` for appending, writing the header when the file is new or
  /// empty. An existing journal keeps its records — Append continues it.
  /// kIOError when the filesystem refuses the open or the header write.
  static Result<ObservationJournal> Open(const std::string& path);

  /// Stages one record: formats it and writes it into the stdio buffer
  /// without flushing. kIOError (and one lost record) when the write fails.
  ///
  /// Errors are sticky: after the first failed write or flush the journal
  /// fails every further Append with that first error (fail-fast). A torn or
  /// unflushed record ends the journal's valid prefix — anything appended
  /// after it would be unrecoverable anyway, so continuing would only turn
  /// silent data loss into apparent success.
  Status Append(uint64_t signature, const Observation& obs);

  /// Commits every record staged so far, by any thread, with one fflush,
  /// then returns the sticky first error — OK means everything appended so
  /// far is in the OS page cache.
  Status Sync();

  /// Compatibility shims kept only for perfbench/: there is one write mode,
  /// so starting "group commit" just checks the journal is open and
  /// stopping it is Sync.
  Status StartGroupCommit(const GroupCommitOptions& = {}) {
    return is_open() ? Status::OK()
                     : Status::FailedPrecondition("journal is not open");
  }
  Status StopGroupCommit() { return Sync(); }

  struct RotateResult {
    std::string segment_path;
    uint64_t segment_index = 0;
  };

  /// Seals the live file as an immutable segment and reopens a fresh live
  /// journal — the checkpoint compactor's sequence barrier. Under the I/O
  /// lock (so concurrent appends block rather than tear) it commits the
  /// staged records, renames the live file to `<path>.seg-<k>`
  /// (k = max(highest existing segment + 1, `min_index`)) and reopens `path`
  /// with a fresh header. Every record acked before the call lands in the
  /// sealed segment or an earlier one; records appended concurrently land in
  /// either the segment or the new live file, exactly once.
  ///
  /// `min_index` keeps segment numbering monotonic across checkpoint
  /// truncation: absorbed segments are deleted from disk, so "highest on
  /// disk + 1" alone would reuse an absorbed index and the next compaction
  /// would silently discard the reused segment as a stale pre-checkpoint
  /// leftover. The compactor passes its checkpoint sequence + 1.
  ///
  /// A successful rotation clears the sticky error: the torn or unflushed
  /// record that ended the old valid prefix is confined to the sealed
  /// segment, where recovery drops it like any torn tail, and the fresh live
  /// file starts a new valid prefix. A fresh file whose header the disk
  /// refuses is removed again and the rotation fails with kIOError.
  Result<RotateResult> Rotate(uint64_t min_index = 0);

  /// Completed segment files of `path` ("<path>.seg-<k>"), sorted by index.
  static Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
      const std::string& path);

  /// Records that never reached the file: Append calls that staged nothing
  /// (closed journal, sticky error, failed write) plus staged records whose
  /// flush failed. Survives Close, so shutdown accounting stays intact.
  uint64_t lost_records() const {
    return lost_records_.load(std::memory_order_relaxed);
  }

  /// The sticky first write/flush error (OK while healthy).
  Status error() const;
  bool has_error() const { return failed_.load(std::memory_order_relaxed); }

  bool is_open() const {
    return file_.load(std::memory_order_acquire) != nullptr;
  }
  const std::string& path() const { return path_; }
  /// Commits the staged records, closes the underlying file (also done by
  /// the destructor), and returns the sticky first error — a failed fclose
  /// counts. OK means the journal closed with every record persisted.
  Status Close();

 private:
  /// Commits staged_ with one fflush: the one routine behind Sync, Rotate
  /// and Close. Counts the batch as appended, or as lost when the flush
  /// fails. Caller holds io_mu_.
  void FlushLocked();
  /// Counts `count` lost records: the errors metric plus a rate-limited
  /// warning (the first loss and every 100th), so silent loss stays visible.
  void CountLost(uint64_t count);
  /// Records `status` as the sticky first error (later calls keep the first)
  /// and returns it.
  Status Fail(Status status);

  /// Atomic so the lock-free is_open() can race with Rotate()'s handle swap:
  /// the pointer goes old-live → fresh-live in one store (never through
  /// nullptr — the old stream stays open across the rename), so a rotation
  /// never shows a momentarily-closed journal.
  std::atomic<std::FILE*> file_{nullptr};
  std::string path_;
  /// One past the highest segment index this journal has sealed: keeps
  /// repeated in-process rotations monotonic even after a checkpoint deletes
  /// absorbed segments from disk (on-disk "highest + 1" alone would reuse an
  /// absorbed index). Cross-restart monotonicity comes from the compactor's
  /// `min_index` floor.
  uint64_t next_segment_hint_ = 0;
  /// Serializes file I/O — record writes, flushes, and Rotate()'s
  /// rename/reopen handle swap — so a rotation never tears a record across
  /// two files. Guards staged_.
  mutable std::mutex io_mu_;
  /// Records written into the stdio buffer since the last flush.
  uint64_t staged_ = 0;
  std::atomic<uint64_t> lost_records_{0};
  /// Sticky-error state: failed_ is the lock-free fast-path flag, the Status
  /// itself lives behind error_mu_.
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_JOURNAL_H_
