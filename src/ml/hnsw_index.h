#ifndef ROCKHOPPER_ML_HNSW_INDEX_H_
#define ROCKHOPPER_ML_HNSW_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace rockhopper::ml {

/// Tuning knobs for HnswIndex (Malkov & Yashunin, HNSW). `max_neighbors` is
/// the paper's M (layer 0 keeps 2M links); `ef_construction` / `ef_search`
/// bound the candidate beam during build / query. `level_seed` feeds the
/// SplitMix64 level draw so the layer assignment of an id is a pure function
/// of (seed, id) — independent of insertion order and thread count.
struct HnswOptions {
  size_t dim = 0;
  int max_neighbors = 16;
  int ef_construction = 128;
  /// Recurring workloads make the embedding population heavily clustered
  /// (near-duplicate groups); a wide layer-0 beam is what holds recall@10
  /// >= 0.95 at 1M vectors, and the query stays sublinear regardless.
  int ef_search = 320;
  uint64_t level_seed = 0x686e7377ULL;  // "hnsw"
  /// Upper bound on one build wave (see Flush). Larger waves parallelize
  /// better but see less of the graph while choosing neighbors.
  size_t max_wave = 32768;
};

struct HnswNeighbor {
  uint64_t id = 0;
  double distance = 0.0;  ///< Euclidean distance over the stored float32 bits
};

/// A hand-rolled, dependency-free HNSW index over fixed-dimension vectors
/// with a determinism contract the stock algorithm does not have:
///
///   * levels are drawn from SplitMix64(level_seed ^ id), so an id's layer
///     never depends on when it arrived;
///   * Insert() only stages; Flush() drains the staged set in ascending-id
///     "waves". Each wave runs a parallelizable candidate-search phase
///     against the frozen pre-wave graph, then a serial ascending-id linking
///     phase, so the built graph is a pure function of the flush sequence —
///     byte-identical at any thread count;
///   * a canonical rebuild (stage the whole set into an empty index, one
///     Flush) is a pure function of the *set*, which is how recovered and
///     lazily rebuilt replicas are compared (CanonicalGraphDigest below).
///
/// Vectors are quantized to float32 and stored contiguously (flat slot-major
/// buffer) over only the *active* columns — those some flushed vector has
/// ever held a value other than +0.0f in. Workload embeddings are sparse and
/// a population uses few of their columns, so this cuts both the bytes per
/// vector and the distance cost several-fold. The layout keeps the distance
/// kernel's lanes: distances are accumulated in a fixed order and are
/// bit-equal to those over the dense vectors on every path, so the layout is
/// invisible in the graph, the digests, the artifact and search results.
/// Layer-0 adjacency is a flat 2M-per-slot buffer; upper layers hold ~1/M of
/// the nodes and live in a side map.
///
/// Thread safety: const members may run concurrently with each other;
/// Insert/Flush/Load/Clear require external synchronization (the transfer
/// tier wraps this class in a mutex).
class HnswIndex {
 public:
  explicit HnswIndex(HnswOptions options);

  HnswIndex(HnswIndex&&) = default;
  HnswIndex& operator=(HnswIndex&&) = default;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Stages (id, vector) for the next Flush. kInvalidArgument on a dimension
  /// mismatch or any non-finite component (corrupted-telemetry embeddings
  /// must be rejected before they can poison the graph). Re-inserting a
  /// known id is an OK no-op, which makes registration idempotent across
  /// fault-in / replay paths.
  Status Insert(uint64_t id, const std::vector<double>& vector);

  /// Insert's validation alone. Reads only the fixed dimension, so it is
  /// safe to call concurrently with any other member.
  Status Validate(const std::vector<double>& vector) const;

  /// Drains staged vectors into the graph. With a pool, each wave's
  /// candidate-search phase runs via ParallelFor; the result is
  /// byte-identical to the serial build. Columns the staged vectors bring
  /// into use are activated first, re-laying out the stored vectors once.
  void Flush(common::ThreadPool* pool = nullptr);

  /// Approximate k nearest neighbors: greedy multi-layer descent plus a
  /// beam of max(ef_search, k) on layer 0. Staged-but-unflushed vectors are
  /// brute-forced and merged so a just-inserted id is immediately findable.
  /// Results sorted by (distance, id). A query that uses a column no flushed
  /// vector does is compared against expanded dense vectors instead, with
  /// the same exact distances.
  std::vector<HnswNeighbor> Search(const std::vector<double>& query,
                                   size_t k) const;

  /// Exact k nearest neighbors by linear scan over the same float32 data —
  /// the recall/equivalence reference for Search.
  std::vector<HnswNeighbor> ExactKnn(const std::vector<double>& query,
                                     size_t k) const;

  bool Contains(uint64_t id) const;
  /// The stored (float32-quantized) vector for `id`; kNotFound if absent.
  Result<std::vector<float>> Vector(uint64_t id) const;

  size_t Size() const;         ///< flushed + staged
  size_t PendingSize() const;  ///< staged only
  int MaxLevel() const;        ///< top layer of the flushed graph (-1: empty)

  /// CRC-32 (8 hex chars) over the option-relevant parameters plus every
  /// (id, float32 vector) in ascending id order, staged vectors included.
  /// Insertion-order independent: equal sets digest equal.
  std::string ContentDigest() const;
  /// CRC-32 (8 hex chars) over the flushed graph: entry point, levels and
  /// adjacency (as ids). A pure function of the flush sequence. Flush first.
  std::string GraphDigest() const;
  /// GraphDigest of the canonical rebuild of the current content (empty
  /// index + one Flush of the full set): a pure function of the content, so
  /// two replicas holding the same set compare equal no matter how their
  /// live graphs were batched. Leaves this index untouched.
  std::string CanonicalGraphDigest() const;

  /// Content-only artifact: `rockhopper-hnsw v1 <crc32> <bytes>` header (the
  /// state_codec convention) over a binary payload of every (id, vector),
  /// staged included. The graph is rebuilt canonically on load rather than
  /// persisted — load of a serialized index and a from-scratch rebuild of
  /// the same set are indistinguishable by construction.
  Result<std::string> Serialize() const;

  /// Stages every record of `artifact` whose id passes `keep` (null: all)
  /// and is not already present. kDataLoss on a damaged header, truncated
  /// payload, or CRC mismatch; kInvalidArgument on a version or dimension
  /// mismatch. The caller Flushes to build the graph.
  Status Load(const std::string& artifact,
              const std::vector<uint64_t>* keep = nullptr);

  void Clear();
  size_t ApproxBytes() const;
  const HnswOptions& options() const { return options_; }

 private:
  struct Candidate {
    double distance;
    uint32_t slot;
  };

  /// The query side of a distance to a stored vector: `values` is in the
  /// stored layout, or holds all dim columns when `dense` (the query uses a
  /// column that is not active, and stored vectors are expanded to match).
  struct QueryView {
    const float* values;
    bool dense;
  };

  int LevelFor(uint64_t id) const;
  const float* Slot(uint32_t slot) const {
    return vectors_.data() + static_cast<size_t>(slot) * stride_;
  }
  /// The stored vector of `slot` as dim dense float32 columns.
  void ExpandSlot(uint32_t slot, float* dense) const;
  /// The dense float32 columns of flushed or staged `id`: the staged vector
  /// itself, or the stored one expanded into `*buffer` (dim floats).
  const float* DenseVector(uint64_t id, std::vector<float>* buffer) const;
  /// Views the quantized dense `query` in the stored layout, using
  /// `*projected` as storage, or densely when it uses an inactive column.
  QueryView View(const std::vector<float>& query,
                 std::vector<float>* projected) const;
  double DistanceTo(const QueryView& query, uint32_t slot) const;
  /// Activates every column a staged vector uses and, if that grew the
  /// active set, re-lays out the stored vectors.
  void ActivatePendingColumns();
  const uint32_t* LinkData(uint32_t slot, int layer) const;
  size_t LinkCount(uint32_t slot, int layer) const;
  void SetLinks(uint32_t slot, int layer, const std::vector<uint32_t>& links);
  /// Greedy 1-NN descent within `layer` starting from `start`.
  uint32_t GreedyDescend(const QueryView& query, uint32_t start,
                         int layer) const;
  /// Best-first beam search within `layer`; returns candidates sorted by
  /// (distance, slot).
  std::vector<Candidate> SearchLayer(const QueryView& query, uint32_t entry,
                                     size_t ef, int layer) const;
  /// HNSW select-by-heuristic over candidates sorted by (distance, slot).
  std::vector<uint32_t> SelectNeighbors(const float* query,
                                        const std::vector<Candidate>& sorted,
                                        size_t m) const;
  /// Adds `neighbor` to `slot`'s list, re-selecting on overflow.
  void LinkInto(uint32_t slot, uint32_t neighbor, int layer);
  /// Builds one wave: candidate phase (parallel) + link phase (serial).
  void BuildWave(const std::vector<uint64_t>& wave, common::ThreadPool* pool);

  HnswOptions options_;
  size_t dim_ = 0;

  // Stored layout. The kernel accumulates column c in lane c % 4, or in
  // lane 0 for the dim % 4 tail columns. Position 4j + k of a stored vector
  // holds the j-th active column of lane k in ascending order; lanes are
  // zero-padded to a common length, so stride_ is a multiple of 4.
  // layout_[p] is the column at position p (-1: padding).
  std::vector<bool> active_;
  std::vector<int32_t> layout_;
  size_t stride_ = 0;

  // Flat flushed storage, slot-major, stride_ floats per slot. Slot order is
  // flush order.
  std::vector<float> vectors_;
  std::vector<uint64_t> ids_;
  std::vector<int> levels_;
  std::unordered_map<uint64_t, uint32_t> slot_of_;
  // Layer-0 adjacency: 2M fixed-width link slots per node plus a count.
  std::vector<uint32_t> links0_;
  std::vector<uint16_t> link0_count_;
  // Layers >= 1 (about 1/M of nodes): slot -> per-layer adjacency.
  std::unordered_map<uint32_t, std::vector<std::vector<uint32_t>>> upper_;

  uint32_t entry_slot_ = 0;
  int entry_level_ = -1;

  // Staged inserts, ascending id (std::map) so wave order is deterministic.
  std::map<uint64_t, std::vector<float>> pending_;
};

}  // namespace rockhopper::ml

#endif  // ROCKHOPPER_ML_HNSW_INDEX_H_
