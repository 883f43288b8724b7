#include "core/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

namespace {

constexpr char kHeader[] = "rockhopper-journal v1";

// Writes and commits the header of a fresh journal file; false when the
// disk refused it.
bool WriteHeader(std::FILE* file) {
  return std::fprintf(file, "%s\n", kHeader) >= 0 && std::fflush(file) == 0;
}

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
  *this = std::move(other);
}

ObservationJournal& ObservationJournal::operator=(
    ObservationJournal&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_.exchange(nullptr, std::memory_order_relaxed);
    path_ = std::move(other.path_);
    next_segment_hint_ = other.next_segment_hint_;
    staged_ = std::exchange(other.staged_, 0);
    lost_records_ = other.lost_records_.load(std::memory_order_relaxed);
    failed_ = other.failed_.load(std::memory_order_relaxed);
    first_error_ = std::move(other.first_error_);
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

void ObservationJournal::CountLost(uint64_t count) {
  ServiceMetrics::Get().journal_errors->Increment(count);
  const uint64_t total =
      lost_records_.fetch_add(count, std::memory_order_relaxed) + count;
  if (total == count || total / 100 != (total - count) / 100) {
    ROCKHOPPER_LOG(kWarning) << "journal write failed (" << total
                             << " records lost so far): " << path_;
  }
}

Status ObservationJournal::error() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

Status ObservationJournal::Close() {
  std::lock_guard<std::mutex> io_lock(io_mu_);
  if (std::FILE* file = file_.load(std::memory_order_relaxed)) {
    FlushLocked();
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
  if (std::ftell(file) == 0 && !WriteHeader(file)) {
    std::fclose(file);
    return Status::IOError("cannot write journal header: " + path);
  }
  ObservationJournal journal;
  journal.file_ = file;
  journal.path_ = path;
  return journal;
}

Status ObservationJournal::Append(uint64_t signature, const Observation& obs) {
  const std::string payload = FormatPayload(signature, obs);
  const uint32_t crc = common::Crc32(payload);
  Status status;
  {
    // Hold the I/O lock across the whole record so a concurrent Rotate()
    // swaps files only on record boundaries.
    std::lock_guard<std::mutex> io_lock(io_mu_);
    std::FILE* file = file_.load(std::memory_order_relaxed);
    if (file == nullptr) {
      status = Status::FailedPrecondition("journal is not open");
    } else if (failed_.load(std::memory_order_acquire)) {
      // Fail-fast after the first error: the valid prefix already ended, so
      // accepting further records would ack writes recovery can never see.
      status = error();
    } else if (ROCKHOPPER_BUGGIFY("journal.append.io_error")) {
      // The write syscall failed outright: nothing reached the file.
      status = Fail(Status::IOError("injected journal write error: " + path_));
    } else if (ROCKHOPPER_BUGGIFY("journal.append.short_write")) {
      // Torn write: the staged records commit, then a prefix of this record
      // (no trailing newline) reaches the file before the "disk" dies — the
      // tail shape recovery must drop.
      FlushLocked();
      char buffer[16];
      std::snprintf(buffer, sizeof(buffer), "%08x ", crc);
      std::fwrite(buffer, 1, sizeof(buffer) - 7, file);
      std::fwrite(payload.data(), 1, payload.size() / 2, file);
      std::fflush(file);
      status = Fail(Status::IOError("injected journal short write: " + path_));
    } else if (std::fprintf(file, "%08x %s\n", crc, payload.c_str()) < 0) {
      status = Fail(Status::IOError("journal append failed: " + path_));
    } else {
      ++staged_;
    }
  }
  if (!status.ok()) CountLost(1);
  return status;
}

void ObservationJournal::FlushLocked() {
  if (staged_ == 0) return;
  const uint64_t batch = std::exchange(staged_, 0);
  ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.journal_batch_size->Observe(static_cast<double>(batch));
  bool flushed;
  {
    ScopedSpan flush_span(metrics.journal_flush_seconds);
    // An injected flush failure short-circuits the real fflush: the batch
    // stays in the stdio buffer, invisible to a crash snapshot — the
    // lost-on-power-cut shape of a lying fsync.
    flushed = !ROCKHOPPER_BUGGIFY("journal.sync.flush_fail") &&
              std::fflush(file_.load(std::memory_order_relaxed)) == 0;
  }
  if (flushed) {
    metrics.journal_appends->Increment(batch);
    return;
  }
  Fail(Status::IOError("journal flush failed: " + path_));
  CountLost(batch);
}

Status ObservationJournal::Sync() {
  {
    std::lock_guard<std::mutex> io_lock(io_mu_);
    if (file_.load(std::memory_order_relaxed) != nullptr) FlushLocked();
  }
  return error();
}

Result<ObservationJournal::RotateResult> ObservationJournal::Rotate(
    uint64_t min_index) {
  if (!is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(segments, ListSegments(path_));
  const uint64_t next =
      std::max({min_index, next_segment_hint_,
                segments.empty() ? 1 : segments.back().first + 1});
  const std::string segment_path = path_ + ".seg-" + std::to_string(next);

  std::lock_guard<std::mutex> io_lock(io_mu_);
  std::FILE* live = file_.load(std::memory_order_relaxed);
  // Every record staged before this call goes into the file about to be
  // sealed. Concurrent appends land on either side of the cut — exactly
  // once either way.
  FlushLocked();
  // Rename with the stream still open: the handle stays bound to the (now
  // sealed) inode, so file_ never passes through nullptr and callers racing
  // the lock-free is_open() never see a momentarily-closed journal.
  std::error_code ec;
  std::filesystem::rename(path_, segment_path, ec);
  if (ec) {
    // Nothing changed: the live file was never closed or moved.
    return Fail(Status::IOError("journal rotate rename failed: " + path_ +
                                ": " + ec.message()));
  }
  std::FILE* fresh = std::fopen(path_.c_str(), "ab");
  if (fresh == nullptr || !WriteHeader(fresh)) {
    // The live handle still targets the sealed inode, so later appends land
    // in the segment — which stays ahead of any checkpoint in the recovery
    // chain (this rotation failed, so nothing absorbs it). Degraded but
    // durable. A fresh file without its header goes again.
    if (fresh != nullptr) {
      std::fclose(fresh);
      std::filesystem::remove(path_, ec);
    }
    return Fail(
        Status::IOError("cannot reopen journal after rotate: " + path_));
  }
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
