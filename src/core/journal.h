#ifndef ROCKHOPPER_CORE_JOURNAL_H_
#define ROCKHOPPER_CORE_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

/// Knobs of the journal's group-commit mode (see StartGroupCommit).
struct GroupCommitOptions {
  /// Upper bound on records written per writer-thread wakeup; one fflush
  /// covers the whole batch, amortizing the flush over max_batch records.
  size_t max_batch = 64;
  /// Longest a queued record waits before the writer flushes it anyway.
  std::chrono::milliseconds flush_interval{2};
  /// Bounded queue capacity. Producers block when the queue is full
  /// (backpressure) — records are never dropped.
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
/// Two write modes share the record format:
///  - synchronous (default): Append formats, writes, and flushes inline;
///  - group commit (StartGroupCommit): Append enqueues onto a bounded MPSC
///    queue drained by a dedicated writer thread that batches records per
///    flush — the multi-tenant service's high-throughput mode.
class ObservationJournal {
 public:
  ObservationJournal() = default;
  ~ObservationJournal();
  /// Moving stops group commit on the source first (draining its queue);
  /// restart it on the destination if needed.
  ObservationJournal(ObservationJournal&& other) noexcept;
  ObservationJournal& operator=(ObservationJournal&& other) noexcept;
  ObservationJournal(const ObservationJournal&) = delete;
  ObservationJournal& operator=(const ObservationJournal&) = delete;

  /// Opens `path` for appending, writing the header when the file is new or
  /// empty. An existing journal keeps its records — Append continues it.
  /// kIOError when the filesystem refuses the open.
  static Result<ObservationJournal> Open(const std::string& path);

  /// Appends one record. Synchronous mode: writes and flushes to the OS
  /// before returning (crash safety: at most the in-flight record is lost to
  /// a kill); kIOError when the write or flush fails. Group-commit mode:
  /// enqueues and returns; write errors are then reported through
  /// async_write_errors() instead of the return status.
  ///
  /// Errors are sticky: after the first failed write or flush the journal
  /// fails every further Append with that first error (fail-fast). A torn or
  /// unflushed record ends the journal's valid prefix — anything appended
  /// after it would be unrecoverable anyway, so continuing would only turn
  /// silent data loss into apparent success.
  Status Append(uint64_t signature, const Observation& obs);

  /// Switches to group-commit mode: spawns the writer thread draining the
  /// bounded queue in batches. Error when the journal is not open or group
  /// commit is already active.
  Status StartGroupCommit(const GroupCommitOptions& options = {});

  /// Drains every queued record, then joins the writer thread and returns to
  /// synchronous mode. Idempotent; also performed by Close() and moves.
  void StopGroupCommit();

  bool group_commit_active() const { return gc_ != nullptr; }

  /// Blocks until every record enqueued before this call reached fflush
  /// (no-op in synchronous mode), then returns the sticky first error — OK
  /// means everything appended so far is durably in the OS page cache.
  Status Sync();

  struct RotateResult {
    std::string segment_path;
    uint64_t segment_index = 0;
  };

  /// Seals the live file as an immutable segment and reopens a fresh live
  /// journal — the checkpoint compactor's sequence barrier. Drains in-flight
  /// group-commit records first, then (under the I/O lock, so concurrent
  /// appends block rather than tear) renames the live file to
  /// `<path>.seg-<k>` (k = max(highest existing segment + 1, `min_index`))
  /// and reopens `path` with a fresh header. Every record acked before the
  /// call lands in the sealed segment or an earlier one; records appended
  /// concurrently land in either the segment or the new live file, exactly
  /// once.
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
  /// file starts a new valid prefix.
  Result<RotateResult> Rotate(uint64_t min_index = 0);

  /// Completed segment files of `path` ("<path>.seg-<k>"), sorted by index.
  static Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
      const std::string& path);

  /// Records the writer thread failed to persist (group-commit mode). The
  /// counter survives StopGroupCommit so shutdown accounting stays intact.
  uint64_t async_write_errors() const {
    return async_write_errors_.load(std::memory_order_relaxed);
  }

  /// The sticky first write/flush error (OK while healthy). Group-commit
  /// write errors land here asynchronously; Sync() before reading when exact
  /// accounting matters.
  Status error() const;
  bool has_error() const { return failed_.load(std::memory_order_relaxed); }

  bool is_open() const {
    return file_.load(std::memory_order_acquire) != nullptr;
  }
  const std::string& path() const { return path_; }
  /// Stops group commit (draining), closes the underlying file (also done by
  /// the destructor), and returns the sticky first error — a failed fclose
  /// counts. OK means the journal closed with every record persisted.
  Status Close();

 private:
  struct GroupCommitState {
    GroupCommitOptions options;
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::condition_variable drained;
    std::deque<std::pair<uint64_t, Observation>> queue;
    /// Queued plus currently-being-written records; 0 means fully synced.
    size_t in_flight = 0;
    bool stop = false;
    std::thread writer;
  };

  /// Formats and writes one record; flushes when `flush` is set. The only
  /// code path that touches file_ for writing, in both modes.
  Status WriteRecord(uint64_t signature, const Observation& obs, bool flush);
  void WriterLoop();
  /// Records `status` as the sticky first error (later calls keep the first)
  /// and returns it.
  Status Fail(Status status);

  /// Atomic so Append's lock-free "is open" fast path can race with
  /// Rotate()'s handle swap: the pointer goes old-live → fresh-live in one
  /// store (never through nullptr — the old stream stays open across the
  /// rename), so concurrent appenders always observe an open journal.
  std::atomic<std::FILE*> file_{nullptr};
  std::string path_;
  /// One past the highest segment index this journal has sealed: keeps
  /// repeated in-process rotations monotonic even after a checkpoint deletes
  /// absorbed segments from disk (on-disk "highest + 1" alone would reuse an
  /// absorbed index). Cross-restart monotonicity comes from the compactor's
  /// `min_index` floor.
  uint64_t next_segment_hint_ = 0;
  /// Serializes raw file I/O — record writes, the group-commit batch flush,
  /// and Rotate()'s rename/reopen handle swap — so a rotation never tears a
  /// record across two files. Never held while waiting on gc_ conditions.
  mutable std::mutex io_mu_;
  std::unique_ptr<GroupCommitState> gc_;
  std::atomic<uint64_t> async_write_errors_{0};
  /// Sticky-error state: failed_ is the lock-free fast-path flag, the Status
  /// itself lives behind error_mu_.
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_JOURNAL_H_
