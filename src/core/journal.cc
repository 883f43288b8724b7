#include "core/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>
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

// C-locale isspace: the whitespace strto* skips before a field.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Exact decode of the `%a` forms the writer emits for zero and for normal
// doubles: [-]0x0p+0 and [-]0x1[.h{1,13}]p(+|-)E with -1022 <= E <= 1023.
// Every such token is exactly representable, so assembling the bits directly
// equals strtod's result. False for any other spelling (the caller falls back
// to strtod).
bool ParseHexDouble(const char* p, const char* end, double* out) {
  uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = uint64_t{1} << 63;
    ++p;
  }
  if (end - p < 6 || p[0] != '0' || p[1] != 'x') return false;
  p += 2;
  if (*p == '0') {
    if (end - p != 4 || std::memcmp(p + 1, "p+0", 3) != 0) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }
  if (*p++ != '1') return false;
  uint64_t mantissa = 0;
  int digits = 0;
  if (*p == '.') {
    for (++p; p != end && digits < 13; ++p, ++digits) {
      const int d = HexDigit(*p);
      if (d < 0) break;
      mantissa = mantissa << 4 | static_cast<uint64_t>(d);
    }
    if (digits == 0) return false;
  }
  if (end - p < 3 || *p != 'p' || (p[1] != '+' && p[1] != '-')) return false;
  const bool negative_exponent = p[1] == '-';
  int exponent = 0;
  int exponent_digits = 0;
  for (p += 2; p != end && exponent_digits < 4 && IsDigit(*p);
       ++p, ++exponent_digits) {
    exponent = exponent * 10 + (*p - '0');
  }
  if (exponent_digits == 0 || p != end) return false;
  if (negative_exponent) exponent = -exponent;
  if (exponent < -1022 || exponent > 1023) return false;
  bits |= static_cast<uint64_t>(exponent + 1023) << 52 |
          mantissa << (4 * (13 - digits));
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

// Reads the fields of one payload in place. Each read consumes exactly what
// the matching strto* call would over a NUL-terminated copy of the payload —
// leading whitespace, then the longest valid prefix — so the accepted
// records and their values do not depend on the fast paths, which only skip
// the libc call for the writer's own spellings. A field never reads past the
// payload's end.
class FieldCursor {
 public:
  FieldCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool AtEnd() const { return p_ == end_; }
  void SkipBlanks() {
    while (p_ != end_ && *p_ == ' ') ++p_;
  }
  /// Blank-separated fields left, an upper bound on the values to come.
  size_t BlanksLeft() const {
    return static_cast<size_t>(std::count(p_, end_, ' '));
  }

  bool ReadU64(uint64_t* out) {
    const char* token_end = Token();
    if (token_end - p_ <= 19 && AllDigits(token_end)) {
      uint64_t value = 0;
      for (; p_ != token_end; ++p_) value = value * 10 + (*p_ - '0');
      *out = value;
      return true;
    }
    return Fallback(token_end, out, [](const char* text, char** parsed_end) {
      return std::strtoull(text, parsed_end, 10);
    });
  }

  bool ReadLong(long* out) {
    const char* token_end = Token();
    if (token_end - p_ <= 9 && AllDigits(token_end)) {
      long value = 0;
      for (; p_ != token_end; ++p_) value = value * 10 + (*p_ - '0');
      *out = value;
      return true;
    }
    return Fallback(token_end, out, [](const char* text, char** parsed_end) {
      return std::strtol(text, parsed_end, 10);
    });
  }

  bool ReadDouble(double* out) {
    const char* token_end = Token();
    if (ParseHexDouble(p_, token_end, out)) {
      p_ = token_end;
      return true;
    }
    return Fallback(token_end, out, [](const char* text, char** parsed_end) {
      return std::strtod(text, parsed_end);
    });
  }

 private:
  // Skips leading whitespace; returns the end of the token that follows.
  const char* Token() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
    const char* token_end = p_;
    while (token_end != end_ && !IsSpace(*token_end)) ++token_end;
    return token_end;
  }

  bool AllDigits(const char* token_end) const {
    return p_ != token_end && std::all_of(p_, token_end, IsDigit);
  }

  // Runs `parse` (a strto* call) over a NUL-terminated copy of the token —
  // strto* stops at whitespace, so it consumes the same prefix it would of
  // the whole payload — and advances past what it consumed.
  template <typename T, typename Parse>
  bool Fallback(const char* token_end, T* out, Parse parse) {
    const auto length = static_cast<size_t>(token_end - p_);
    char small[64];
    std::string large;
    char* text = small;
    if (length < sizeof(small)) {
      std::memcpy(small, p_, length);
      small[length] = '\0';
    } else {
      large.assign(p_, length);
      text = large.data();
    }
    char* parsed_end = nullptr;
    *out = parse(text, &parsed_end);
    if (parsed_end == text) return false;
    p_ += parsed_end - text;
    return true;
  }

  const char* p_;
  const char* end_;
};

// Parses a payload back into (signature, observation). Returns false on any
// malformed field — the caller treats that like a CRC mismatch. A NUL byte
// ends the payload, as it would end the C string strto* reads.
bool ParsePayload(std::string_view payload, uint64_t* signature,
                  Observation* obs) {
  const char* end = static_cast<const char*>(
      std::memchr(payload.data(), '\0', payload.size()));
  FieldCursor cursor(payload.data(),
                     end != nullptr ? end : payload.data() + payload.size());
  long iteration = 0;
  long failed = 0;
  if (!cursor.ReadU64(signature) || !cursor.ReadLong(&iteration) ||
      !cursor.ReadLong(&failed) || (failed != 0 && failed != 1)) {
    return false;
  }
  obs->iteration = static_cast<int>(iteration);
  obs->failed = failed == 1;
  if (!cursor.ReadDouble(&obs->data_size) ||
      !cursor.ReadDouble(&obs->runtime)) {
    return false;
  }
  obs->config.clear();
  obs->config.reserve(cursor.BlanksLeft());
  while (true) {
    cursor.SkipBlanks();
    if (cursor.AtEnd()) break;
    double v = 0.0;
    if (!cursor.ReadDouble(&v)) return false;
    obs->config.push_back(v);
  }
  return true;
}

// Reads the 8-character checksum field as strtoul(text, &end, 16) would,
// requiring it to consume all 8 characters.
bool ParseCrcField(std::string_view text, uint32_t* crc) {
  uint32_t value = 0;
  for (char c : text) {
    const int d = HexDigit(c);
    if (d < 0) {
      char copy[9];
      std::memcpy(copy, text.data(), 8);
      copy[8] = '\0';
      char* end = nullptr;
      *crc = static_cast<uint32_t>(std::strtoul(copy, &end, 16));
      return end == copy + 8;
    }
    value = value << 4 | static_cast<uint32_t>(d);
  }
  *crc = value;
  return true;
}

}  // namespace

std::string FormatJournalLine(uint64_t signature, const Observation& obs) {
  const std::string payload = FormatPayload(signature, obs);
  char crc_buf[16];
  std::snprintf(crc_buf, sizeof(crc_buf), "%08x ", common::Crc32(payload));
  return crc_buf + payload;
}

bool ParseJournalLine(std::string_view line, uint64_t* signature,
                      Observation* obs) {
  if (line.size() <= 9 || line[8] != ' ') return false;
  uint32_t crc = 0;
  const std::string_view payload = line.substr(9);
  return ParseCrcField(line.substr(0, 8), &crc) &&
         crc == common::Crc32(payload) &&
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
