#include "core/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/compress.h"
#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

namespace {

constexpr char kCheckpointMagic[] = "rockhopper-checkpoint";
constexpr char kDeltaMagic[] = "rockhopper-ckpt-delta";
constexpr char kFormatVersion[] = "v1";
constexpr char kJournalHeader[] = "rockhopper-journal v1";

/// The three record-bearing file formats of a journal family.
enum class FileKind { kJournal, kCheckpoint, kDelta };

const char* KindName(FileKind kind) {
  switch (kind) {
    case FileKind::kJournal:
      return "journal";
    case FileKind::kCheckpoint:
      return "checkpoint";
    case FileKind::kDelta:
      return "checkpoint delta";
  }
  return "file";
}

std::string Describe(size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

/// Receives each valid record of a scanned file, in file order: the
/// verbatim line bytes (no newline; valid only during the call) and the
/// record parsed from them. Recovery keeps the parsed record, the compactor
/// the bytes — so both go through one parse and one set of damage rules.
using RecordSink =
    std::function<void(std::string_view line, uint64_t signature,
                       Observation&& obs)>;

/// One scanned record-bearing file: its header metadata, how many valid
/// records it handed to the sink, and damage accounting for the dropped
/// suffix.
struct RecordFile {
  size_t records = 0;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
  bool clean = true;
  // Checkpoint and delta metadata.
  uint64_t last_segment = 0;
  size_t declared_records = 0;
  // Delta metadata.
  uint64_t chain_index = 0;
  uint64_t base_seq = 0;
  bool lz = false;
};

/// Parses a `kind` header line into `file`'s metadata; false when foreign.
bool ParseHeader(const std::string& header, FileKind kind, RecordFile* file) {
  char magic[32], version[16], encoding[16];
  switch (kind) {
    case FileKind::kJournal:
      return header == kJournalHeader;
    case FileKind::kCheckpoint:
      return std::sscanf(header.c_str(), "%31s %15s %" SCNu64 " %zu", magic,
                         version, &file->last_segment,
                         &file->declared_records) == 4 &&
             std::string(magic) == kCheckpointMagic &&
             std::string(version) == kFormatVersion;
    case FileKind::kDelta:
      if (std::sscanf(header.c_str(),
                      "%31s %15s %" SCNu64 " %" SCNu64 " %" SCNu64 " %zu %15s",
                      magic, version, &file->chain_index, &file->base_seq,
                      &file->last_segment, &file->declared_records,
                      encoding) != 7 ||
          std::string(magic) != kDeltaMagic ||
          std::string(version) != kFormatVersion) {
        return false;
      }
      file->lz = std::string(encoding) == "lz";
      return true;
  }
  return false;
}

/// Header-only read; false when the file is absent or its header foreign
/// (a damaged header fails loudly later, in the full ReadRecordFile pass).
bool ReadHeader(const std::string& path, FileKind kind, RecordFile* file) {
  std::ifstream in(path, std::ios::binary);
  std::string header;
  return in && std::getline(in, header) && ParseHeader(header, kind, file);
}

/// Scans journal-format record lines in `text` starting at `pos`, parsing
/// each once and handing it to `sink`; the first invalid line ends the valid
/// prefix (the writer is strictly sequential, so a corrupt record means
/// corruption reached at least this offset).
void ScanRecordLines(std::string_view text, size_t pos, RecordFile* file,
                     const RecordSink& sink) {
  while (pos < text.size()) {
    const size_t newline = text.find('\n', pos);
    if (newline == std::string::npos) {
      // Truncated tail: the writer died mid-record.
      file->clean = false;
      file->bytes_dropped += text.size() - pos;
      ++file->records_dropped;
      return;
    }
    const std::string_view line = text.substr(pos, newline - pos);
    uint64_t signature = 0;
    Observation obs;
    if (!ParseJournalLine(line, &signature, &obs)) {
      // Bad record: drop this line and everything after it.
      file->clean = false;
      file->bytes_dropped += text.size() - pos;
      for (size_t p = pos; p < text.size();) {
        ++file->records_dropped;
        const size_t nl = text.find('\n', p);
        if (nl == std::string::npos) break;
        p = nl + 1;
      }
      return;
    }
    ++file->records;
    sink(line, signature, std::move(obs));
    pos = newline + 1;
  }
}

/// The one reader of every journal-family file: reads it with one sized
/// read, validates the `kind` header, then every line's CRC and payload (an
/// lz delta body is decoded first), handing each valid record to `sink`.
/// Damage never fails the call: the valid record prefix reaches the sink and
/// the rest is counted as dropped; an undecodable lz body yields nothing.
/// kNotFound for a missing file, kInvalidArgument for a foreign header —
/// both before any record reaches the sink.
Result<RecordFile> ReadRecordFile(const std::string& path, FileKind kind,
                                  const RecordSink& sink) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string text(static_cast<size_t>(std::max<std::streamoff>(in.tellg(), 0)),
                   '\0');
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(in.gcount()));

  RecordFile file;
  const size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return Status::InvalidArgument("missing header line: " + path);
  }
  if (!ParseHeader(text.substr(0, header_end), kind, &file)) {
    return Status::InvalidArgument(std::string("not a rockhopper ") +
                                   KindName(kind) + ": " + path);
  }
  if (file.lz) {
    const std::string_view body(text.data() + header_end + 1,
                                text.size() - header_end - 1);
    Result<std::string> raw = common::DecodeCompressed(body);
    if (!raw.ok()) {
      // The whole body is one envelope: damage loses every record in it.
      file.clean = false;
      file.records_dropped = file.declared_records;
      file.bytes_dropped = body.size();
      return file;
    }
    ScanRecordLines(*raw, 0, &file, sink);
  } else {
    ScanRecordLines(text, header_end + 1, &file, sink);
  }
  // A file shorter than its declared count lost whole trailing lines
  // (truncation on a line boundary looks clean line-by-line).
  if (file.clean && file.records < file.declared_records) {
    file.clean = false;
    file.records_dropped += file.declared_records - file.records;
  }
  return file;
}

}  // namespace

std::string CheckpointPath(const std::string& journal_path) {
  return journal_path + ".checkpoint";
}

std::string CheckpointDeltaPath(const std::string& journal_path, uint64_t k) {
  return CheckpointPath(journal_path) + ".delta-" + std::to_string(k);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpointDeltas(
    const std::string& journal_path) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> deltas;
  const fs::path checkpoint(CheckpointPath(journal_path));
  const fs::path dir =
      checkpoint.has_parent_path() ? checkpoint.parent_path() : fs::path(".");
  const std::string prefix = checkpoint.filename().string() + ".delta-";
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list checkpoint deltas in " + dir.string() +
                           ": " + ec.message());
  }
  for (const fs::directory_iterator end_it; it != end_it; it.increment(ec)) {
    if (ec) {
      return Status::IOError("error scanning checkpoint deltas in " +
                             dir.string() + ": " + ec.message());
    }
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string index_text = name.substr(prefix.size());
    char* end = nullptr;
    const unsigned long long index =
        std::strtoull(index_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || index_text.empty()) continue;
    deltas.emplace_back(static_cast<uint64_t>(index), it->path().string());
  }
  std::sort(deltas.begin(), deltas.end());
  return deltas;
}

namespace {

/// The on-disk chain as header-only metadata: the full image's sequence,
/// the valid delta prefix (contiguous indexes from 1, matching base-seq,
/// strictly increasing coverage), and everything else as stale files.
struct ChainInfo {
  bool have_base = false;
  uint64_t base_seq = 0;
  /// base_seq, or the last valid delta's last-segment.
  uint64_t chain_seq = 0;
  std::vector<std::pair<uint64_t, std::string>> valid;
  std::vector<std::string> stale;
  /// Cumulative file size of the valid deltas (the compaction trigger).
  size_t valid_bytes = 0;
};

Result<ChainInfo> DiscoverChain(const std::string& journal_path) {
  ChainInfo info;
  const std::string checkpoint_path = CheckpointPath(journal_path);
  std::error_code ec;
  info.have_base = std::filesystem::exists(checkpoint_path, ec);
  RecordFile base;
  if (ReadHeader(checkpoint_path, FileKind::kCheckpoint, &base)) {
    info.base_seq = base.last_segment;
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(deltas, ListCheckpointDeltas(journal_path));
  uint64_t prev_seq = info.base_seq;
  uint64_t expect = 1;
  bool chain_open = info.have_base;
  for (const auto& [index, path] : deltas) {
    RecordFile delta;
    if (chain_open && ReadHeader(path, FileKind::kDelta, &delta) &&
        index == expect && delta.chain_index == index &&
        delta.base_seq == info.base_seq && delta.last_segment > prev_seq) {
      info.valid.emplace_back(index, path);
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec) info.valid_bytes += static_cast<size_t>(size);
      prev_seq = delta.last_segment;
      ++expect;
    } else {
      // Left over from an older chain generation, or past a break in this
      // one — never replayed, deleted by the next writer.
      chain_open = false;
      info.stale.push_back(path);
    }
  }
  info.chain_seq = prev_seq;
  return info;
}

/// Full-read absorption of the valid delta chain into `sink`, applying the
/// shared damage rules: the healthy prefix is absorbed whole; the first
/// unhealthy delta contributes its valid record prefix (advancing coverage
/// only when it contributed records, so surviving segments are never
/// double-absorbed); everything after the break is dropped.
struct ChainAbsorption {
  /// Records handed to the sink.
  size_t records = 0;
  uint64_t chain_seq = 0;
  size_t deltas_used = 0;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
  bool clean = true;
  std::string first_damage;
};

Result<ChainAbsorption> AbsorbDeltaChain(const ChainInfo& chain,
                                         const RecordSink& sink) {
  static const RecordSink kDiscard = [](std::string_view, uint64_t,
                                        Observation&&) {};
  ChainAbsorption out;
  out.chain_seq = chain.base_seq;
  bool broken = false;
  for (const auto& [index, path] : chain.valid) {
    ROCKHOPPER_ASSIGN_OR_RETURN(
        delta,
        ReadRecordFile(path, FileKind::kDelta, broken ? kDiscard : sink));
    if (broken) {
      out.records_dropped += delta.declared_records;
      continue;
    }
    if (delta.records > 0 || delta.clean) {
      out.records += delta.records;
      out.chain_seq = delta.last_segment;
      ++out.deltas_used;
    }
    if (!delta.clean) {
      broken = true;
      out.clean = false;
      out.records_dropped += delta.records_dropped;
      out.bytes_dropped += delta.bytes_dropped;
      if (out.first_damage.empty()) out.first_damage = path;
    }
  }
  return out;
}

}  // namespace

Result<CheckpointReport> Checkpoint(const std::string& journal_path,
                                    const DeltaCheckpointPolicy& policy) {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  ScopedSpan span(metrics.checkpoint_seconds);
  const std::string checkpoint_path = CheckpointPath(journal_path);
  ROCKHOPPER_ASSIGN_OR_RETURN(chain, DiscoverChain(journal_path));
  bool full = !chain.have_base || chain.valid.size() >= policy.max_chain;
  if (!full && policy.max_bytes_fraction > 0.0) {
    std::error_code ec;
    const auto base_bytes = std::filesystem::file_size(checkpoint_path, ec);
    full = !ec && static_cast<double>(chain.valid_bytes) >=
                      policy.max_bytes_fraction *
                          static_cast<double>(base_bytes);
  }

  CheckpointReport report;
  report.checkpoint_path = checkpoint_path;
  // The records the published file holds, verbatim and in replay order: a
  // full image rewrites image + chain + fresh segments, a delta only the
  // fresh ones.
  std::vector<std::string> lines;
  const RecordSink keep_line = [&lines](std::string_view line, uint64_t,
                                        Observation&&) {
    lines.emplace_back(line);
  };
  // Highest segment index covered; segments above it are fresh.
  uint64_t last_segment = chain.chain_seq;
  if (full) {
    Result<RecordFile> base =
        ReadRecordFile(checkpoint_path, FileKind::kCheckpoint, keep_line);
    if (base.ok()) {
      report.records_dropped += base->records_dropped;
    } else if (base.status().code() != StatusCode::kNotFound) {
      return base.status();
    }
    ROCKHOPPER_ASSIGN_OR_RETURN(chained, AbsorbDeltaChain(chain, keep_line));
    report.records_dropped += chained.records_dropped;
    report.deltas_absorbed = chained.deltas_used;
    // A damaged chain covers only up to its last contributing delta.
    last_segment = chained.chain_seq;
  }

  ROCKHOPPER_ASSIGN_OR_RETURN(segments,
                              ObservationJournal::ListSegments(journal_path));
  // Segments at or below the coverage were absorbed by an earlier
  // compaction (full or delta) that crashed before removing them; their
  // records are already in the chain, so they are deleted without
  // re-absorbing.
  std::vector<std::pair<uint64_t, std::string>> fresh;
  std::vector<std::string> stale;
  for (const auto& [index, path] : segments) {
    if (index > last_segment) {
      fresh.emplace_back(index, path);
    } else {
      stale.push_back(path);
    }
  }
  report.last_segment = last_segment;

  // Truncation: absorbed segments, collapsed deltas and stale leftovers are
  // redundant once the checkpoint is published (recovery skips segment
  // indexes <= the coverage, and collapsed deltas' base-seq no longer
  // matches the new image), so removing them is pure space reclamation — a
  // crash anywhere in it is harmless.
  const auto truncate = [&] {
    if (ROCKHOPPER_BUGGIFY("checkpoint.truncate.crash")) return;
    std::error_code ec;
    for (const auto& [index, path] : fresh) std::filesystem::remove(path, ec);
    for (const std::string& path : stale) std::filesystem::remove(path, ec);
    if (full) {
      for (const auto& [index, path] : chain.valid) {
        std::filesystem::remove(path, ec);
      }
    }
    for (const std::string& path : chain.stale) {
      std::filesystem::remove(path, ec);
    }
  };
  if (fresh.empty() && chain.have_base && (!full || chain.valid.empty())) {
    // Nothing new to absorb; just finish any interrupted truncation.
    report.records = lines.size();
    truncate();
    return report;
  }

  for (const auto& [index, path] : fresh) {
    ROCKHOPPER_ASSIGN_OR_RETURN(
        segment, ReadRecordFile(path, FileKind::kJournal, keep_line));
    // A torn segment tail is a record that was never acked (the sticky
    // journal error rejected everything after it); dropping it loses
    // nothing the service promised to keep.
    report.records_dropped += segment.records_dropped;
    last_segment = index;
  }

  // Encoding: full images and raw deltas hold the journal lines verbatim,
  // an lz delta one envelope over them.
  const bool lz = !full && policy.compress;
  std::string envelope;
  size_t body_bytes = 0;
  if (lz) {
    std::string body;
    for (const std::string& line : lines) {
      body += line;
      body += '\n';
    }
    ScopedSpan compress_span(metrics.compress_seconds);
    envelope = common::EncodeCompressed(body);
    metrics.compress_encodes->Increment();
    metrics.compress_ratio->Observe(
        body.empty() ? 1.0
                     : static_cast<double>(envelope.size()) /
                           static_cast<double>(body.size()));
    body_bytes = envelope.size();
  } else {
    for (const std::string& line : lines) body_bytes += line.size() + 1;
  }

  const uint64_t delta_index = full ? 0 : chain.valid.size() + 1;
  const std::string path =
      full ? checkpoint_path : CheckpointDeltaPath(journal_path, delta_index);
  char header[192];
  if (full) {
    std::snprintf(header, sizeof(header), "%s %s %" PRIu64 " %zu\n",
                  kCheckpointMagic, kFormatVersion, last_segment,
                  lines.size());
  } else {
    std::snprintf(header, sizeof(header),
                  "%s %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %zu %s\n",
                  kDeltaMagic, kFormatVersion, delta_index, chain.base_seq,
                  last_segment, lines.size(), lz ? "lz" : "raw");
  }

  // Publish atomically: a crash mid-write leaves only a .tmp file, with the
  // previous chain and the segments intact.
  const std::string what = full ? "checkpoint" : "delta";
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open " + what + " tmp: " + tmp_path);
  }
  // Writes the body, or only its first half (a crash mid-write).
  const auto write_body = [&](bool half) {
    if (lz) {
      const size_t n = half ? envelope.size() / 2 : envelope.size();
      return std::fwrite(envelope.data(), 1, n, out) == n;
    }
    const size_t n = half ? lines.size() / 2 : lines.size();
    for (size_t i = 0; i < n; ++i) {
      if (std::fprintf(out, "%s\n", lines[i].c_str()) < 0) return false;
    }
    return true;
  };
  const bool header_ok = std::fputs(header, out) >= 0;
  if (full ? ROCKHOPPER_BUGGIFY("checkpoint.write.crash")
           : ROCKHOPPER_BUGGIFY("checkpoint.delta.crash")) {
    // The tmp file is never renamed: the chain, segments and recovery are
    // oblivious to it.
    write_body(/*half=*/true);
    std::fflush(out);
    std::fclose(out);
    return Status::IOError("injected " +
                           (full ? what : "delta-checkpoint") +
                           " crash mid-write: " + tmp_path);
  }
  if (!header_ok || !write_body(/*half=*/false)) {
    std::fclose(out);
    return Status::IOError(what + " write failed: " + tmp_path);
  }
  if (std::fflush(out) != 0 || std::fclose(out) != 0) {
    return Status::IOError(what + " flush failed: " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::IOError(what + " publish failed: " + path + ": " +
                           ec.message());
  }

  report.delta_index = delta_index;
  report.last_segment = last_segment;
  report.records = lines.size();
  report.segments_absorbed = fresh.size();
  // A full image counts its record bytes, a delta its header too.
  report.bytes_written = body_bytes + (full ? 0 : std::strlen(header));
  truncate();
  (full ? metrics.checkpoints_total : metrics.checkpoint_deltas_total)
      ->Increment();
  metrics.checkpoint_bytes->Observe(static_cast<double>(report.bytes_written));
  return report;
}

Result<CheckpointReport> CheckpointLive(ObservationJournal* journal,
                                        const DeltaCheckpointPolicy& policy) {
  if (journal == nullptr || !journal->is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  // The sequence barrier: commit the staged records and seal the live file,
  // so the compactor absorbs every record acked before this call without
  // ever touching the file writers are appending to. The rotation index
  // floor keeps numbering monotonic past segments earlier compactions (full
  // or delta) absorbed and deleted (see Rotate's doc).
  ROCKHOPPER_ASSIGN_OR_RETURN(chain, DiscoverChain(journal->path()));
  ROCKHOPPER_RETURN_IF_ERROR(journal->Rotate(chain.chain_seq + 1).status());
  return Checkpoint(journal->path(), policy);
}

Result<JournalChain> RecoverJournalChain(const std::string& journal_path) {
  JournalChain chain;
  bool found_any = false;

  // The first damage sets tail_status; every damage is counted.
  const auto note_damage = [&chain](bool clean, size_t records, size_t bytes,
                                    const std::string& where) {
    if (clean) return;
    chain.clean = false;
    chain.records_dropped += records;
    chain.bytes_dropped += bytes;
    if (chain.tail_status.ok()) {
      chain.tail_status = Status::DataLoss(
          "dropped " + Describe(records, "records") + " (" +
          Describe(bytes, "bytes") + ") from " + where);
    }
  };
  const auto absorb_damage = [&note_damage](const RecordFile& file,
                                            const std::string& path) {
    note_damage(file.clean, file.records_dropped, file.bytes_dropped, path);
  };

  // Every valid record is parsed once, straight into the store.
  const RecordSink replay = [&chain](std::string_view, uint64_t signature,
                                     Observation&& obs) {
    chain.store.Append(signature, std::move(obs));
  };

  const std::string checkpoint_path = CheckpointPath(journal_path);
  {
    Result<RecordFile> read =
        ReadRecordFile(checkpoint_path, FileKind::kCheckpoint, replay);
    if (read.ok()) {
      found_any = true;
      chain.checkpoint_records = read->records;
      absorb_damage(*read, checkpoint_path);
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  // The delta chain stacked on the full image: replay its valid prefix,
  // applying the same damage rules the full compactor uses (so a compaction
  // and a recovery over the same files agree byte-for-byte).
  {
    ROCKHOPPER_ASSIGN_OR_RETURN(disk_chain, DiscoverChain(journal_path));
    ROCKHOPPER_ASSIGN_OR_RETURN(chained, AbsorbDeltaChain(disk_chain, replay));
    if (!disk_chain.valid.empty()) found_any = true;
    // The image's own sequence when no delta contributed.
    chain.checkpoint_seq = chained.chain_seq;
    chain.checkpoint_records += chained.records;
    chain.deltas_replayed = chained.deltas_used;
    note_damage(chained.clean, chained.records_dropped, chained.bytes_dropped,
                "delta chain at " + chained.first_damage);
  }

  ROCKHOPPER_ASSIGN_OR_RETURN(segments,
                              ObservationJournal::ListSegments(journal_path));
  for (const auto& [index, path] : segments) {
    if (index <= chain.checkpoint_seq) continue;  // already in the checkpoint
    ROCKHOPPER_ASSIGN_OR_RETURN(
        segment, ReadRecordFile(path, FileKind::kJournal, replay));
    found_any = true;
    ++chain.segments_replayed;
    chain.tail_records += segment.records;
    absorb_damage(segment, path);
  }

  {
    Result<RecordFile> read =
        ReadRecordFile(journal_path, FileKind::kJournal, replay);
    if (read.ok()) {
      found_any = true;
      chain.tail_records += read->records;
      absorb_damage(*read, journal_path);
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  if (!found_any) {
    return Status::NotFound("no checkpoint, segments or journal at " +
                            journal_path);
  }
  return chain;
}

}  // namespace rockhopper::core
