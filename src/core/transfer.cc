#include "core/transfer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

TransferIndex::TransferIndex(size_t dim, TransferOptions options)
    : dim_(dim),
      options_(std::move(options)),
      norm_(std::sqrt(std::max(1.0, static_cast<double>(dim)))),
      index_([&] {
        ml::HnswOptions hnsw;
        hnsw.dim = dim;
        hnsw.max_neighbors = options_.max_neighbors;
        hnsw.ef_construction = options_.ef_construction;
        hnsw.ef_search = options_.ef_search;
        return hnsw;
      }()),
      metrics_(&ServiceMetrics::Get()) {}

Status TransferIndex::Register(uint64_t signature,
                               const std::vector<double>& embedding) {
  // Validate reads only the index's fixed dimension: no mu_ needed.
  const Status status = index_.Validate(embedding);
  if (!status.ok()) {
    metrics_->transfer_rejected_embeddings->Increment();
    return status;
  }
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    staged_.emplace_back(signature, embedding);
  }
  metrics_->transfer_inserts->Increment();
  return Status::OK();
}

void TransferIndex::DrainLocked() const {
  std::vector<std::pair<uint64_t, std::vector<double>>> staged;
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    staged.swap(staged_);
  }
  if (staged.empty()) return;
  // Validated by Register; a known signature is an OK no-op.
  for (const auto& [signature, embedding] : staged) {
    (void)index_.Insert(signature, embedding);
  }
  metrics_->transfer_index_size->Set(static_cast<double>(index_.Size()));
}

void TransferIndex::FlushLocked() {
  DrainLocked();
  if (index_.PendingSize() == 0) return;
  ScopedSpan span(metrics_->transfer_insert_seconds);
  // The graph build itself stays single-threaded here: waves parallelize
  // through Flush(pool), but running them on the pool that also carries the
  // ingest load would let an index rebuild starve proposals. A flush builds
  // the registrations staged since the last consult, each of which costs
  // about one ef_construction beam search.
  index_.Flush();
}

void TransferIndex::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

std::vector<TransferNeighbor> TransferIndex::SearchLocked(
    const std::vector<double>& embedding, size_t k, uint64_t exclude,
    bool exact) {
  // Ask for one extra in case `exclude` is indexed (a re-registered
  // signature consulting for itself).
  const size_t want = k + 1;
  const std::vector<ml::HnswNeighbor> raw =
      exact ? index_.ExactKnn(embedding, want)
            : index_.Search(embedding, want);
  std::vector<TransferNeighbor> out;
  out.reserve(raw.size());
  for (const ml::HnswNeighbor& n : raw) {
    if (n.id == exclude) continue;
    const double normalized = n.distance / norm_;
    if (normalized > options_.max_distance) continue;
    out.push_back(TransferNeighbor{n.id, n.distance, normalized});
    if (out.size() >= k) break;
  }
  return out;
}

std::vector<TransferNeighbor> TransferIndex::Neighbors(
    const std::vector<double>& embedding, size_t k, uint64_t exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  ScopedSpan span(metrics_->transfer_search_seconds);
  FlushLocked();  // staged inserts must be retrievable immediately
  std::vector<TransferNeighbor> out =
      SearchLocked(embedding, k, exclude, /*exact=*/false);
  ++searches_;
  if (options_.recall_probe_every != 0 &&
      searches_ % options_.recall_probe_every == 0 && !out.empty()) {
    const std::vector<TransferNeighbor> exact =
        SearchLocked(embedding, k, exclude, /*exact=*/true);
    size_t hit = 0;
    for (const TransferNeighbor& e : exact) {
      for (const TransferNeighbor& a : out) {
        if (a.signature == e.signature) {
          ++hit;
          break;
        }
      }
    }
    if (!exact.empty()) {
      metrics_->transfer_recall_probe->Observe(
          static_cast<double>(hit) / static_cast<double>(exact.size()));
    }
  }
  // Simulation fault: a degraded-recall index (stale graph, overloaded
  // flusher) returns a thinned neighbor set. Downstream weighting must
  // stay safe with fewer, worse neighbors.
  if (ROCKHOPPER_BUGGIFY("transfer.recall.degraded") && out.size() > 1) {
    out.resize((out.size() + 1) / 2);
  }
  return out;
}

std::vector<TransferNeighbor> TransferIndex::ExactNeighbors(
    const std::vector<double>& embedding, size_t k, uint64_t exclude) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return SearchLocked(embedding, k, exclude, /*exact=*/true);
}

size_t TransferIndex::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return index_.Size();
}

size_t TransferIndex::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return index_.ApproxBytes();
}

std::string TransferIndex::ContentDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return index_.ContentDigest();
}

std::string TransferIndex::CanonicalGraphDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return index_.CanonicalGraphDigest();
}

Result<std::string> TransferIndex::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  return index_.Serialize();
}

Status TransferIndex::Load(const std::string& artifact,
                           const std::vector<uint64_t>* keep) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  const Status status = index_.Load(artifact, keep);
  if (status.ok()) {
    metrics_->transfer_index_size->Set(static_cast<double>(index_.Size()));
  }
  return status;
}

}  // namespace rockhopper::core
