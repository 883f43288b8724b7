#include "core/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

namespace {

constexpr char kHeader[] = "rockhopper-journal v1";

// Serializes the checksummed portion of one record. Hexfloat keeps doubles
// bit-exact across the round trip.
std::string FormatPayload(uint64_t signature, const Observation& obs) {
  char buffer[64];
  std::string payload;
  payload.reserve(48 + 24 * obs.config.size());
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 " %d %d ", signature,
                obs.iteration, obs.failed ? 1 : 0);
  payload += buffer;
  std::snprintf(buffer, sizeof(buffer), "%a %a", obs.data_size, obs.runtime);
  payload += buffer;
  for (double v : obs.config) {
    std::snprintf(buffer, sizeof(buffer), " %a", v);
    payload += buffer;
  }
  return payload;
}

// Parses a payload back into (signature, observation). Returns false on any
// malformed field — the caller treats that like a CRC mismatch.
bool ParsePayload(const std::string& payload, uint64_t* signature,
                  Observation* obs) {
  const char* cursor = payload.c_str();
  char* end = nullptr;
  *signature = std::strtoull(cursor, &end, 10);
  if (end == cursor) return false;
  cursor = end;
  const long iteration = std::strtol(cursor, &end, 10);
  if (end == cursor) return false;
  cursor = end;
  const long failed = std::strtol(cursor, &end, 10);
  if (end == cursor || (failed != 0 && failed != 1)) return false;
  cursor = end;
  obs->iteration = static_cast<int>(iteration);
  obs->failed = failed == 1;
  obs->data_size = std::strtod(cursor, &end);
  if (end == cursor) return false;
  cursor = end;
  obs->runtime = std::strtod(cursor, &end);
  if (end == cursor) return false;
  cursor = end;
  obs->config.clear();
  while (true) {
    while (*cursor == ' ') ++cursor;
    if (*cursor == '\0') break;
    const double v = std::strtod(cursor, &end);
    if (end == cursor) return false;
    obs->config.push_back(v);
    cursor = end;
  }
  return true;
}

}  // namespace

std::string FormatJournalLine(uint64_t signature, const Observation& obs) {
  const std::string payload = FormatPayload(signature, obs);
  char crc_buf[16];
  std::snprintf(crc_buf, sizeof(crc_buf), "%08x ", common::Crc32(payload));
  return crc_buf + payload;
}

bool ParseJournalLine(const std::string& line, uint64_t* signature,
                      Observation* obs) {
  if (line.size() <= 9 || line[8] != ' ') return false;
  const std::string crc_text = line.substr(0, 8);
  char* end = nullptr;
  const unsigned long crc = std::strtoul(crc_text.c_str(), &end, 16);
  const std::string payload = line.substr(9);
  return end == crc_text.c_str() + crc_text.size() &&
         static_cast<uint32_t>(crc) == common::Crc32(payload) &&
         ParsePayload(payload, signature, obs);
}

ObservationJournal::~ObservationJournal() { Close(); }

ObservationJournal::ObservationJournal(ObservationJournal&& other) noexcept {
  other.StopGroupCommit();  // drain; the writer thread references `other`
  file_ = other.file_.load(std::memory_order_relaxed);
  path_ = std::move(other.path_);
  next_segment_hint_ = other.next_segment_hint_;
  async_write_errors_ =
      other.async_write_errors_.load(std::memory_order_relaxed);
  failed_ = other.failed_.load(std::memory_order_relaxed);
  first_error_ = std::move(other.first_error_);
  other.file_ = nullptr;
}

ObservationJournal& ObservationJournal::operator=(
    ObservationJournal&& other) noexcept {
  if (this != &other) {
    other.StopGroupCommit();
    Close();
    file_ = other.file_.load(std::memory_order_relaxed);
    path_ = std::move(other.path_);
    next_segment_hint_ = other.next_segment_hint_;
    async_write_errors_ =
        other.async_write_errors_.load(std::memory_order_relaxed);
    failed_ = other.failed_.load(std::memory_order_relaxed);
    first_error_ = std::move(other.first_error_);
    other.file_ = nullptr;
  }
  return *this;
}

Status ObservationJournal::Fail(Status status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      first_error_ = status;
      failed_.store(true, std::memory_order_release);
    }
  }
  return status;
}

Status ObservationJournal::error() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

Status ObservationJournal::Close() {
  StopGroupCommit();
  if (std::FILE* file = file_.load(std::memory_order_relaxed)) {
    if (std::fclose(file) != 0 && !failed_.load(std::memory_order_relaxed)) {
      Fail(Status::IOError("journal close failed: " + path_));
    }
    file_ = nullptr;
  }
  return error();
}

Result<ObservationJournal> ObservationJournal::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open journal for append: " + path);
  }
  // In append mode the position is at EOF; an empty file needs the header.
  std::fseek(file, 0, SEEK_END);
  if (std::ftell(file) == 0) {
    std::fprintf(file, "%s\n", kHeader);
    std::fflush(file);
  }
  ObservationJournal journal;
  journal.file_ = file;
  journal.path_ = path;
  return journal;
}

Status ObservationJournal::WriteRecord(uint64_t signature,
                                       const Observation& obs, bool flush) {
  const std::string payload = FormatPayload(signature, obs);
  const uint32_t crc = common::Crc32(payload);
  // Hold the I/O lock across the whole record so a concurrent Rotate() swaps
  // files only on record boundaries.
  std::lock_guard<std::mutex> io_lock(io_mu_);
  std::FILE* file = file_.load(std::memory_order_relaxed);
  if (ROCKHOPPER_BUGGIFY("journal.append.io_error")) {
    // The write syscall failed outright: nothing reached the file.
    return Fail(Status::IOError("injected journal write error: " + path_));
  }
  if (ROCKHOPPER_BUGGIFY("journal.append.short_write")) {
    // Torn write: a prefix of the record (no trailing newline) reaches the
    // file before the "disk" dies — the tail shape recovery must drop.
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%08x ", crc);
    std::fwrite(buffer, 1, sizeof(buffer) - 7, file);
    std::fwrite(payload.data(), 1, payload.size() / 2, file);
    std::fflush(file);
    return Fail(Status::IOError("injected journal short write: " + path_));
  }
  if (std::fprintf(file, "%08x %s\n", crc, payload.c_str()) < 0) {
    return Fail(Status::IOError("journal append failed: " + path_));
  }
  // An injected flush failure short-circuits the real fflush: the record
  // stays in the stdio buffer, invisible to a crash snapshot — the
  // lost-on-power-cut shape of a lying fsync.
  if (flush && (ROCKHOPPER_BUGGIFY("journal.sync.flush_fail") ||
                std::fflush(file) != 0)) {
    return Fail(Status::IOError("journal flush failed: " + path_));
  }
  ServiceMetrics::Get().journal_appends->Increment();
  return Status::OK();
}

Status ObservationJournal::Append(uint64_t signature, const Observation& obs) {
  if (!is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (failed_.load(std::memory_order_acquire)) {
    // Fail-fast after the first error: the valid prefix already ended, so
    // accepting further records would ack writes recovery can never see.
    return error();
  }
  if (gc_ != nullptr) {
    std::unique_lock<std::mutex> lock(gc_->mu);
    gc_->not_full.wait(lock, [this] {
      return gc_->queue.size() < gc_->options.queue_capacity || gc_->stop;
    });
    if (gc_->stop) {
      return Status::FailedPrecondition("journal group commit is stopping");
    }
    gc_->queue.emplace_back(signature, obs);
    ++gc_->in_flight;
    gc_->not_empty.notify_one();
    return Status::OK();
  }
  ScopedSpan flush_span(ServiceMetrics::Get().journal_flush_seconds);
  return WriteRecord(signature, obs, /*flush=*/true);
}

Status ObservationJournal::StartGroupCommit(const GroupCommitOptions& options) {
  if (!is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (gc_ != nullptr) {
    return Status::FailedPrecondition("group commit already active");
  }
  auto state = std::make_unique<GroupCommitState>();
  state->options = options;
  if (state->options.max_batch == 0) state->options.max_batch = 1;
  if (state->options.queue_capacity == 0) state->options.queue_capacity = 1;
  gc_ = std::move(state);
  gc_->writer = std::thread([this] { WriterLoop(); });
  return Status::OK();
}

void ObservationJournal::WriterLoop() {
  GroupCommitState& gc = *gc_;
  std::vector<std::pair<uint64_t, Observation>> batch;
  batch.reserve(gc.options.max_batch);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gc.mu);
      gc.not_empty.wait_for(lock, gc.options.flush_interval,
                            [&gc] { return gc.stop || !gc.queue.empty(); });
      if (gc.queue.empty()) {
        if (gc.stop) return;
        continue;
      }
      const size_t take = std::min(gc.options.max_batch, gc.queue.size());
      batch.assign(std::make_move_iterator(gc.queue.begin()),
                   std::make_move_iterator(gc.queue.begin() +
                                           static_cast<std::ptrdiff_t>(take)));
      gc.queue.erase(gc.queue.begin(),
                     gc.queue.begin() + static_cast<std::ptrdiff_t>(take));
      gc.not_full.notify_all();
    }
    // One flush covers the whole batch: the group-commit amortization.
    ServiceMetrics& metrics = ServiceMetrics::Get();
    metrics.journal_batch_size->Observe(static_cast<double>(batch.size()));
    size_t lost = 0;
    size_t written = 0;  // this batch's successful writes
    {
      ScopedSpan flush_span(metrics.journal_flush_seconds);
      for (const auto& [signature, obs] : batch) {
        if (failed_.load(std::memory_order_relaxed)) {
          // Sticky error: the valid prefix already ended; drain the queue
          // (so producers unblock) but count every further record as lost.
          ++lost;
          continue;
        }
        if (WriteRecord(signature, obs, /*flush=*/false).ok()) {
          ++written;
        } else {
          ++lost;
        }
      }
      // Flush unconditionally: records written (and counted as appends)
      // before a mid-batch error are the journal's valid prefix and must
      // reach the file — skipping the flush would strand them in the stdio
      // buffer, acked but invisible to recovery. Under the I/O lock so a
      // concurrent rotation cannot swap the file out from under the flush.
      std::lock_guard<std::mutex> io_lock(io_mu_);
      if (std::fflush(file_.load(std::memory_order_relaxed)) != 0) {
        if (!failed_.load(std::memory_order_relaxed)) {
          Fail(Status::IOError("journal flush failed: " + path_));
        }
        // This batch's writes never reached the disk.
        lost += written;
      }
    }
    if (lost > 0) {
      metrics.journal_errors->Increment(lost);
      const uint64_t total =
          async_write_errors_.fetch_add(lost, std::memory_order_relaxed) +
          lost;
      // Rate-limited: silent journal loss must be visible, but a dead disk
      // must not flood the log — warn on the first error and each 100th.
      if (total == lost || total / 100 != (total - lost) / 100) {
        ROCKHOPPER_LOG(kWarning)
            << "journal group-commit write failed (" << total
            << " records lost so far): " << path_;
      }
    }
    {
      std::lock_guard<std::mutex> lock(gc.mu);
      gc.in_flight -= batch.size();
      if (gc.in_flight == 0) gc.drained.notify_all();
    }
    batch.clear();
  }
}

void ObservationJournal::StopGroupCommit() {
  if (gc_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(gc_->mu);
    gc_->stop = true;
    gc_->not_empty.notify_all();
    gc_->not_full.notify_all();
  }
  if (gc_->writer.joinable()) gc_->writer.join();
  // The writer drains the queue before honoring stop (it only exits on an
  // empty queue), so nothing enqueued before this call is lost.
  gc_.reset();
}

Status ObservationJournal::Sync() {
  if (gc_ != nullptr) {
    std::unique_lock<std::mutex> lock(gc_->mu);
    gc_->drained.wait(lock, [this] { return gc_->in_flight == 0; });
  }
  return error();
}

Result<ObservationJournal::RotateResult> ObservationJournal::Rotate(
    uint64_t min_index) {
  if (!is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  // Drain queued group-commit records so every record acked before this call
  // is inside the file about to be sealed. Concurrent appends may land on
  // either side of the cut — exactly once either way.
  if (gc_ != nullptr) {
    std::unique_lock<std::mutex> lock(gc_->mu);
    gc_->drained.wait(lock, [this] { return gc_->in_flight == 0; });
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(segments, ListSegments(path_));
  const uint64_t next =
      std::max({min_index, next_segment_hint_,
                segments.empty() ? 1 : segments.back().first + 1});
  const std::string segment_path = path_ + ".seg-" + std::to_string(next);

  std::lock_guard<std::mutex> io_lock(io_mu_);
  std::FILE* live = file_.load(std::memory_order_relaxed);
  std::fflush(live);
  // Rename with the stream still open: the handle stays bound to the (now
  // sealed) inode, so file_ never passes through nullptr and concurrent
  // Append callers racing the lock-free is_open() fast path never see a
  // momentarily-closed journal and drop acked records.
  std::error_code ec;
  std::filesystem::rename(path_, segment_path, ec);
  if (ec) {
    // Nothing changed: the live file was never closed or moved.
    return Fail(Status::IOError("journal rotate rename failed: " + path_ +
                                ": " + ec.message()));
  }
  std::FILE* fresh = std::fopen(path_.c_str(), "ab");
  if (fresh == nullptr) {
    // The live handle still targets the sealed inode, so later appends land
    // in the segment — which stays ahead of any checkpoint in the recovery
    // chain (this rotation failed, so nothing absorbs it). Degraded but
    // durable.
    return Fail(
        Status::IOError("cannot reopen journal after rotate: " + path_));
  }
  std::fprintf(fresh, "%s\n", kHeader);
  std::fflush(fresh);
  file_.store(fresh, std::memory_order_release);
  std::fclose(live);
  // The fresh live file starts a new valid prefix; the record that tripped
  // the sticky error (if any) is confined to the sealed segment, where
  // recovery drops it like any torn tail.
  {
    std::lock_guard<std::mutex> error_lock(error_mu_);
    first_error_ = Status::OK();
    failed_.store(false, std::memory_order_release);
  }
  next_segment_hint_ = next + 1;
  return RotateResult{segment_path, next};
}

Result<std::vector<std::pair<uint64_t, std::string>>>
ObservationJournal::ListSegments(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> segments;
  const fs::path journal(path);
  const fs::path dir =
      journal.has_parent_path() ? journal.parent_path() : fs::path(".");
  const std::string prefix = journal.filename().string() + ".seg-";
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list journal segments in " + dir.string() +
                           ": " + ec.message());
  }
  for (const fs::directory_iterator end_it; it != end_it; it.increment(ec)) {
    if (ec) {
      return Status::IOError("error scanning journal segments in " +
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
    if (end == index_text.c_str() || *end != '\0') continue;
    segments.emplace_back(static_cast<uint64_t>(index), it->path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace rockhopper::core
