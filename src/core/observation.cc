#include "core/observation.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>

#include "common/csv.h"
#include "common/table.h"

namespace rockhopper::core {

ObservationStore::ObservationStore(ObservationStore&& other) noexcept {
  for (size_t i = 0; i < kNumShards; ++i) {
    std::lock_guard<std::mutex> lock(other.shards_[i].mu);
    shards_[i].log = std::move(other.shards_[i].log);
  }
  retention_window_ = other.retention_window_.load();
  approx_bytes_ = other.approx_bytes_.exchange(0);
  truncated_ = other.truncated_.exchange(0);
}

ObservationStore& ObservationStore::operator=(
    ObservationStore&& other) noexcept {
  if (this != &other) {
    for (size_t i = 0; i < kNumShards; ++i) {
      std::scoped_lock lock(shards_[i].mu, other.shards_[i].mu);
      shards_[i].log = std::move(other.shards_[i].log);
    }
    retention_window_ = other.retention_window_.load();
    approx_bytes_ = other.approx_bytes_.exchange(0);
    truncated_ = other.truncated_.exchange(0);
  }
  return *this;
}

void ObservationStore::TruncateLocked(Log& entry, size_t window) {
  if (window == 0 || entry.history.size() <= window) return;
  const size_t drop = entry.history.size() - window;
  size_t freed = 0;
  for (size_t i = 0; i < drop; ++i) {
    freed += ApproxObservationBytes(entry.history[i]);
  }
  entry.history.erase(entry.history.begin(),
                      entry.history.begin() + static_cast<std::ptrdiff_t>(drop));
  approx_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  truncated_.fetch_add(drop, std::memory_order_relaxed);
}

void ObservationStore::Append(uint64_t signature, Observation obs) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  Log& entry = shard.log[signature];
  if (obs.iteration < 0) obs.iteration = static_cast<int>(entry.total);
  ++entry.total;
  approx_bytes_.fetch_add(ApproxObservationBytes(obs),
                          std::memory_order_relaxed);
  entry.history.push_back(std::move(obs));
  TruncateLocked(entry, retention_window_.load(std::memory_order_relaxed));
}

void ObservationStore::AppendAll(uint64_t signature,
                                 std::vector<Observation> rows) {
  if (rows.empty()) return;
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  Log& entry = shard.log[signature];
  size_t bytes = 0;
  for (Observation& obs : rows) {
    if (obs.iteration < 0) obs.iteration = static_cast<int>(entry.total);
    ++entry.total;
    bytes += ApproxObservationBytes(obs);
  }
  approx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (entry.history.empty()) {
    entry.history = std::move(rows);
  } else {
    entry.history.insert(entry.history.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
  }
  TruncateLocked(entry, retention_window_.load(std::memory_order_relaxed));
}

std::vector<Observation> ObservationStore::Take(uint64_t signature) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  if (it == shard.log.end()) return {};
  std::vector<Observation> history = std::move(it->second.history);
  shard.log.erase(it);
  size_t bytes = 0;
  for (const Observation& obs : history) bytes += ApproxObservationBytes(obs);
  approx_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  return history;
}

const std::vector<Observation>& ObservationStore::History(
    uint64_t signature) const {
  static const std::vector<Observation>* const kEmpty =
      new std::vector<Observation>();
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? *kEmpty : it->second.history;
}

ObservationWindow ObservationStore::LastN(uint64_t signature, size_t n) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  if (it == shard.log.end()) return {};
  const std::vector<Observation>& history = it->second.history;
  const size_t start = history.size() > n ? history.size() - n : 0;
  return ObservationWindow(history.begin() + static_cast<std::ptrdiff_t>(start),
                           history.end());
}

size_t ObservationStore::Count(uint64_t signature) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? 0 : it->second.history.size();
}

size_t ObservationStore::TotalAppended(uint64_t signature) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? 0 : it->second.total;
}

void ObservationStore::SetRetention(size_t window) {
  retention_window_.store(window, std::memory_order_relaxed);
  if (window == 0) return;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [sig, entry] : shard.log) TruncateLocked(entry, window);
  }
}

std::vector<uint64_t> ObservationStore::Signatures() const {
  std::vector<uint64_t> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [sig, _] : shard.log) out.push_back(sig);
  }
  // Shards partition by modulus, so per-shard order alone is not global
  // order; sort to keep the pre-sharding (sorted-map) iteration contract.
  std::sort(out.begin(), out.end());
  return out;
}

Result<double> MinRuntime(const ObservationWindow& window) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  double best = window.front().runtime;
  for (const Observation& obs : window) best = std::min(best, obs.runtime);
  return best;
}

Status ExportObservations(const sparksim::ConfigSpace& space,
                          const ObservationStore& store,
                          const std::string& path) {
  common::CsvTable table;
  table.header = {"signature", "iteration", "data_size", "runtime", "failed"};
  for (const sparksim::ParamSpec& p : space.params()) {
    table.header.push_back(p.name);
  }
  for (uint64_t signature : store.Signatures()) {
    for (const Observation& obs : store.History(signature)) {
      if (obs.config.size() != space.size()) {
        return Status::InvalidArgument(
            "observation config width does not match space");
      }
      std::vector<std::string> row;
      row.push_back(std::to_string(signature));
      row.push_back(std::to_string(obs.iteration));
      row.push_back(common::TextTable::FormatDouble(obs.data_size, 6));
      row.push_back(common::TextTable::FormatDouble(obs.runtime, 6));
      row.push_back(obs.failed ? "1" : "0");
      for (double v : obs.config) {
        row.push_back(common::TextTable::FormatDouble(v, 6));
      }
      table.rows.push_back(std::move(row));
    }
  }
  return common::WriteCsvFile(path, table);
}

Result<ImportedObservations> ImportObservations(
    const sparksim::ConfigSpace& space, const std::string& path) {
  ROCKHOPPER_ASSIGN_OR_RETURN(table, common::ReadCsvFile(path));
  // Files written before the `failed` column existed have one fewer column.
  const bool has_failed_column = table.ColumnIndex("failed").ok();
  const size_t expected = (has_failed_column ? 5 : 4) + space.size();
  if (table.header.size() != expected) {
    return Status::InvalidArgument("observation log column count mismatch");
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(sig_col, table.ColumnIndex("signature"));
  ROCKHOPPER_ASSIGN_OR_RETURN(iterations, table.NumericColumn("iteration"));
  ROCKHOPPER_ASSIGN_OR_RETURN(sizes, table.NumericColumn("data_size"));
  ROCKHOPPER_ASSIGN_OR_RETURN(runtimes, table.NumericColumn("runtime"));
  std::vector<double> failed_col(table.rows.size(), 0.0);
  if (has_failed_column) {
    ROCKHOPPER_ASSIGN_OR_RETURN(col, table.NumericColumn("failed"));
    failed_col = col;
  }
  std::vector<std::vector<double>> config_cols;
  for (const sparksim::ParamSpec& p : space.params()) {
    ROCKHOPPER_ASSIGN_OR_RETURN(col, table.NumericColumn(p.name));
    config_cols.push_back(col);
  }
  ImportedObservations imported;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    if (!std::isfinite(runtimes[i]) || runtimes[i] <= 0.0 ||
        !std::isfinite(sizes[i]) || sizes[i] <= 0.0) {
      ++imported.skipped_rows;
      continue;
    }
    // Signatures are 64-bit hashes: parse as integers to keep full precision.
    const uint64_t signature =
        std::strtoull(table.rows[i][sig_col].c_str(), nullptr, 10);
    Observation obs;
    obs.iteration = static_cast<int>(iterations[i]);
    obs.data_size = sizes[i];
    obs.runtime = runtimes[i];
    obs.failed = failed_col[i] != 0.0;
    obs.config.resize(space.size());
    for (size_t j = 0; j < space.size(); ++j) {
      obs.config[j] = config_cols[j][i];
    }
    imported.store.Append(signature, std::move(obs));
  }
  return imported;
}

}  // namespace rockhopper::core
