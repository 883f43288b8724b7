#ifndef ROCKHOPPER_CORE_CHECKPOINT_H_
#define ROCKHOPPER_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/journal.h"
#include "core/observation.h"

namespace rockhopper::core {

/// Journal checkpointing = record compaction. A checkpoint file holds the
/// observation *records* (journal line format, one CRC per record) absorbed
/// from the previous checkpoint plus every completed journal segment — never
/// live model state and never the live journal file. The header line carries
/// the compaction metadata, so one atomic rename publishes records and
/// metadata together:
///
///   rockhopper-checkpoint v1 <last-segment> <record-count>
///   <crc32-hex8> <payload>          (journal record format)
///   ...
///
/// Recovery replays checkpoint records, then segments with index >
/// last-segment, then the live journal tail — each record exactly once:
///  - crash mid-compaction leaves a .tmp file; the old checkpoint and all
///    segments are intact, so nothing is lost or doubled;
///  - crash after the rename but before segment removal ("mid-truncate")
///    leaves absorbed segments on disk; recovery skips them because their
///    index is <= the new checkpoint's last-segment.
/// The compactor never touches the live file: the sequence barrier between
/// appends and checkpointing is ObservationJournal::Rotate(), which commits
/// the staged records and seals the live file as a new segment.
///
/// Incremental checkpoints stack *delta* files on the full image so
/// steady-state checkpoint I/O is proportional to churn, not population:
///
///   <journal>.checkpoint.delta-<k>:
///   rockhopper-ckpt-delta v1 <k> <base-seq> <last-segment> <records> <enc>
///   <records, either journal lines (enc=raw) or one LZ envelope (enc=lz)>
///
/// A delta absorbs only segments above the chain's previous last-segment.
/// The chain is valid when delta indexes run contiguously from 1, every
/// delta's base-seq equals the full image's last-segment, and last-segments
/// strictly increase; recovery replays the valid prefix and treats the
/// remainder as damage. Deltas publish by the same tmp+rename protocol:
///  - crash mid-delta-write leaves a .tmp; the chain and segments are
///    intact;
///  - crash between delta publish and segment removal leaves absorbed
///    segments whose index is <= the chain seq — skipped, then deleted by
///    the next writer;
///  - crash between full-compaction publish and delta removal leaves
///    deltas whose base-seq no longer matches the new image — stale,
///    skipped, then deleted by the next writer.
/// A full compaction absorbs image + chain + segments, collapsing the chain
/// back to a lone full image: a full image is just a compacted chain, and a
/// journal with no checkpoint is a chain of length zero.

/// Checkpoint file location for a journal at `journal_path`.
std::string CheckpointPath(const std::string& journal_path);

/// Delta file location for chain index `k` (k >= 1).
std::string CheckpointDeltaPath(const std::string& journal_path, uint64_t k);

/// Every delta file of `journal_path` (any chain generation, stale
/// included), ascending by chain index. Used by tooling that must copy or
/// remove a journal family wholesale.
Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpointDeltas(
    const std::string& journal_path);

struct CheckpointReport {
  std::string checkpoint_path;
  /// Highest segment index absorbed — the checkpoint sequence number.
  uint64_t last_segment = 0;
  /// Records in the checkpoint after this compaction.
  size_t records = 0;
  /// Segments absorbed (and removed) by this compaction.
  size_t segments_absorbed = 0;
  /// Torn/corrupt records dropped from absorbed segment tails (never-acked
  /// suffixes of crashed segments).
  size_t records_dropped = 0;
  /// Chain index of the delta this compaction published; 0 for a full
  /// image.
  uint64_t delta_index = 0;
  /// Deltas collapsed into the full image (full compactions only).
  size_t deltas_absorbed = 0;
  /// Bytes this compaction wrote (the steady-state I/O the incremental
  /// path keeps proportional to churn).
  size_t bytes_written = 0;
};

/// When to collapse the delta chain back into one full image, and how
/// delta bodies are encoded.
struct DeltaCheckpointPolicy {
  /// Full compaction once the chain holds this many deltas; 0 makes every
  /// checkpoint a full image.
  size_t max_chain = 8;
  /// Full compaction once cumulative delta bytes reach this fraction of the
  /// full image's size (0 disables the size trigger).
  double max_bytes_fraction = 0.5;
  /// LZ-envelope the delta record body (common/compress).
  bool compress = true;
};

/// Compacts every completed segment of `journal_path` into the checkpoint
/// chain: a full image (image + chain + fresh segments) when no image exists
/// yet or `policy` says the chain is due for collapse, else a delta holding
/// only the fresh segments. Publishes by atomic rename, then removes the
/// absorbed segments and collapsed or stale deltas. Safe to run against a
/// closed journal or concurrently with a live one (it never opens the live
/// file). With nothing new to absorb it only finishes an interrupted
/// truncation and returns a report with segments_absorbed == 0.
Result<CheckpointReport> Checkpoint(const std::string& journal_path,
                                    const DeltaCheckpointPolicy& policy);

/// Live checkpoint: rotates `journal` (the journal's sequence barrier —
/// every acked record lands in a sealed segment), then runs Checkpoint. The
/// service keeps appending throughout; only the rotation itself briefly
/// blocks writers. The default policy makes every checkpoint a full image.
Result<CheckpointReport> CheckpointLive(
    ObservationJournal* journal,
    const DeltaCheckpointPolicy& policy = {/*max_chain=*/0});

/// The result of replaying checkpoint + delta chain + segments + live tail.
struct JournalChain {
  ObservationStore store;
  /// Chain sequence number — the highest segment index absorbed by the
  /// full image plus its valid delta chain (0 = no checkpoint found).
  uint64_t checkpoint_seq = 0;
  /// Records replayed from the full image and its valid delta chain.
  size_t checkpoint_records = 0;
  /// Valid deltas replayed on top of the full image.
  size_t deltas_replayed = 0;
  /// Segments with index > checkpoint_seq that were replayed.
  size_t segments_replayed = 0;
  /// Records replayed from segments and the live file (the "tail" beyond
  /// the checkpoint).
  size_t tail_records = 0;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
  /// False when any file in the chain had a torn or corrupt tail.
  bool clean = true;
  /// OK, or kDataLoss describing the first damage encountered.
  Status tail_status = Status::OK();
};

/// Recovers the full observation history of `journal_path`: checkpoint
/// records first, then segments above the checkpoint sequence in ascending
/// order, then the live journal. Returns kNotFound only when none of the
/// sources exist. Damage never fails the call: each file keeps its longest
/// valid record prefix, and what was dropped is counted and reported via
/// `tail_status` (kDataLoss). A file with a foreign header is
/// kInvalidArgument. For a lone journal, `tail_records` is every record.
Result<JournalChain> RecoverJournalChain(const std::string& journal_path);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_CHECKPOINT_H_
