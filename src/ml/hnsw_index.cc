#include "ml/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <unordered_set>
#include <utility>

#include "common/crc32.h"
#include "common/rng.h"

namespace rockhopper::ml {

namespace {

constexpr char kMagic[] = "rockhopper-hnsw";
constexpr char kVersion[] = "v1";

// Reusable per-thread visited table: an epoch bump invalidates every mark in
// O(1), so beam searches allocate nothing on the hot path.
struct VisitedTable {
  std::vector<uint32_t> mark;
  uint32_t epoch = 0;
};

VisitedTable& VisitedScratch(size_t n) {
  thread_local VisitedTable table;
  if (table.mark.size() < n) table.mark.resize(n, 0);
  if (++table.epoch == 0) {
    std::fill(table.mark.begin(), table.mark.end(), 0u);
    table.epoch = 1;
  }
  return table;
}

// Reusable per-thread beam heaps, driven by std::push_heap / std::pop_heap
// exactly as std::priority_queue would drive them.
using HeapItem = std::pair<double, uint32_t>;
struct BeamHeaps {
  std::vector<HeapItem> frontier;  // nearest on top: std::greater
  std::vector<HeapItem> best;      // farthest on top: std::less
};

BeamHeaps& BeamScratch() {
  thread_local BeamHeaps heaps;
  heaps.frontier.clear();
  heaps.best.clear();
  return heaps;
}

// Fixed-order accumulation (4 independent lanes, tail columns into lane 0)
// so equal float inputs produce bit-equal distances on every path. Serves
// both the dense width (dim) and the stored layout's (a multiple of 4): a
// column the layout drops is +0.0f in every stored vector and (when the
// query is viewed in that layout) ±0 in the query, so its term is +0.0 and
// adding it leaves the non-negative lane sum unchanged. The layout keeps
// every other term in its lane and order, so both widths agree bit for bit.
double Distance(const float* a, const float* b, size_t width) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= width; i += 4) {
    const double d0 = static_cast<double>(a[i]) - b[i];
    const double d1 = static_cast<double>(a[i + 1]) - b[i + 1];
    const double d2 = static_cast<double>(a[i + 2]) - b[i + 2];
    const double d3 = static_cast<double>(a[i + 3]) - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < width; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s0 += d * d;
  }
  return std::sqrt(((s0 + s1) + s2) + s3);
}

// Bit test rather than `!= 0.0f`, so that a stored -0.0f keeps its column
// and round-trips through the layout.
bool IsPositiveZero(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits == 0;
}

// Stored layout <-> dense columns; layout[p] is the column at position p.
void Project(const std::vector<int32_t>& layout, const float* dense,
             float* stored) {
  for (size_t p = 0; p < layout.size(); ++p) {
    stored[p] = layout[p] < 0 ? 0.0f : dense[layout[p]];
  }
}

void Expand(const std::vector<int32_t>& layout, const float* stored,
            size_t dim, float* dense) {
  std::fill(dense, dense + dim, 0.0f);
  for (size_t p = 0; p < layout.size(); ++p) {
    if (layout[p] >= 0) dense[layout[p]] = stored[p];
  }
}

std::vector<float> Quantize(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendFloats(std::string* out, const float* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n * sizeof(float));
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t FoldU64(uint32_t crc, uint64_t v) {
  return common::Crc32(&v, sizeof(v), crc);
}

std::string Hex8(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

}  // namespace

HnswIndex::HnswIndex(HnswOptions options) : options_(options) {
  options_.max_neighbors = std::max(2, options_.max_neighbors);
  options_.ef_construction =
      std::max(options_.ef_construction, options_.max_neighbors);
  options_.ef_search = std::max(1, options_.ef_search);
  options_.max_wave = std::max<size_t>(1, options_.max_wave);
  dim_ = options_.dim;
  active_.assign(dim_, false);
}

int HnswIndex::LevelFor(uint64_t id) const {
  // (0, 1] uniform from the top 53 bits of a SplitMix64 scramble: the level
  // is a pure function of (level_seed, id), never of arrival order.
  const uint64_t bits = common::SplitMix64(options_.level_seed ^ id);
  const double u = (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
  const double mult =
      1.0 / std::log(static_cast<double>(options_.max_neighbors));
  const int level = static_cast<int>(-std::log(u) * mult);
  return std::min(level, 30);
}

void HnswIndex::ExpandSlot(uint32_t slot, float* dense) const {
  Expand(layout_, Slot(slot), dim_, dense);
}

const float* HnswIndex::DenseVector(uint64_t id,
                                    std::vector<float>* buffer) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return pending_.at(id).data();
  ExpandSlot(it->second, buffer->data());
  return buffer->data();
}

HnswIndex::QueryView HnswIndex::View(const std::vector<float>& query,
                                     std::vector<float>* projected) const {
  for (size_t c = 0; c < dim_; ++c) {
    if (query[c] != 0.0f && !active_[c]) return QueryView{query.data(), true};
  }
  projected->resize(stride_);
  Project(layout_, query.data(), projected->data());
  return QueryView{projected->data(), false};
}

double HnswIndex::DistanceTo(const QueryView& query, uint32_t slot) const {
  if (!query.dense) return Distance(query.values, Slot(slot), stride_);
  thread_local std::vector<float> expanded;
  expanded.resize(dim_);
  ExpandSlot(slot, expanded.data());
  return Distance(query.values, expanded.data(), dim_);
}

void HnswIndex::ActivatePendingColumns() {
  std::vector<bool> active = active_;
  for (const auto& [id, vec] : pending_) {
    for (size_t c = 0; c < dim_; ++c) {
      if (!IsPositiveZero(vec[c])) active[c] = true;
    }
  }
  if (active == active_) return;
  // Lane k takes its active columns in ascending order; pad to the longest.
  const size_t body = dim_ - dim_ % 4;
  std::vector<int32_t> lanes[4];
  for (size_t c = 0; c < dim_; ++c) {
    if (!active[c]) continue;
    lanes[c < body ? c % 4 : 0].push_back(static_cast<int32_t>(c));
  }
  size_t lane_length = 0;
  for (const auto& lane : lanes) {
    lane_length = std::max(lane_length, lane.size());
  }
  std::vector<int32_t> layout(4 * lane_length, -1);
  for (size_t k = 0; k < 4; ++k) {
    for (size_t j = 0; j < lanes[k].size(); ++j) {
      layout[4 * j + k] = lanes[k][j];
    }
  }
  std::vector<float> relaid(ids_.size() * layout.size());
  std::vector<float> dense(dim_);
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    ExpandSlot(slot, dense.data());
    Project(layout, dense.data(), relaid.data() + slot * layout.size());
  }
  active_ = std::move(active);
  layout_ = std::move(layout);
  stride_ = layout_.size();
  vectors_ = std::move(relaid);
}

const uint32_t* HnswIndex::LinkData(uint32_t slot, int layer) const {
  if (layer == 0) {
    return &links0_[static_cast<size_t>(slot) * 2 *
                    static_cast<size_t>(options_.max_neighbors)];
  }
  const auto it = upper_.find(slot);
  return it->second[static_cast<size_t>(layer) - 1].data();
}

size_t HnswIndex::LinkCount(uint32_t slot, int layer) const {
  if (layer == 0) return link0_count_[slot];
  const auto it = upper_.find(slot);
  return it->second[static_cast<size_t>(layer) - 1].size();
}

void HnswIndex::SetLinks(uint32_t slot, int layer,
                         const std::vector<uint32_t>& links) {
  if (layer == 0) {
    const size_t cap = 2 * static_cast<size_t>(options_.max_neighbors);
    const size_t n = std::min(links.size(), cap);
    std::copy_n(links.begin(), n,
                links0_.begin() + static_cast<size_t>(slot) * cap);
    link0_count_[slot] = static_cast<uint16_t>(n);
    return;
  }
  upper_[slot][static_cast<size_t>(layer) - 1] = links;
}

uint32_t HnswIndex::GreedyDescend(const QueryView& query, uint32_t start,
                                  int layer) const {
  uint32_t cur = start;
  double best = DistanceTo(query, cur);
  bool improved = true;
  while (improved) {
    improved = false;
    const uint32_t* nb = LinkData(cur, layer);
    const size_t n = LinkCount(cur, layer);
    for (size_t i = 0; i < n; ++i) {
      const double d = DistanceTo(query, nb[i]);
      if (d < best) {
        best = d;
        cur = nb[i];
        improved = true;
      }
    }
  }
  return cur;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const QueryView& query, uint32_t entry, size_t ef, int layer) const {
  VisitedTable& vis = VisitedScratch(ids_.size());
  // Frontier: nearest-first expansion. Best: farthest-first bounded result.
  BeamHeaps& heaps = BeamScratch();
  std::vector<HeapItem>& frontier = heaps.frontier;
  std::vector<HeapItem>& best = heaps.best;
  const auto push_frontier = [&frontier](double d, uint32_t slot) {
    frontier.emplace_back(d, slot);
    std::push_heap(frontier.begin(), frontier.end(), std::greater<HeapItem>());
  };
  const auto push_best = [&best](double d, uint32_t slot) {
    best.emplace_back(d, slot);
    std::push_heap(best.begin(), best.end(), std::less<HeapItem>());
  };
  const double d0 = DistanceTo(query, entry);
  push_frontier(d0, entry);
  push_best(d0, entry);
  vis.mark[entry] = vis.epoch;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<HeapItem>());
    const auto [d, slot] = frontier.back();
    frontier.pop_back();
    if (best.size() >= ef && d > best.front().first) break;
    const uint32_t* nb = LinkData(slot, layer);
    const size_t n = LinkCount(slot, layer);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t next = nb[i];
      if (vis.mark[next] == vis.epoch) continue;
      vis.mark[next] = vis.epoch;
      const double dn = DistanceTo(query, next);
      if (best.size() < ef || dn < best.front().first) {
        push_frontier(dn, next);
        push_best(dn, next);
        if (best.size() > ef) {
          std::pop_heap(best.begin(), best.end(), std::less<HeapItem>());
          best.pop_back();
        }
      }
    }
  }
  std::vector<Candidate> out;
  out.reserve(best.size());
  for (const auto& [d, slot] : best) out.push_back(Candidate{d, slot});
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.slot < b.slot;
  });
  return out;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    const float* query, const std::vector<Candidate>& sorted,
    size_t m) const {
  // Relative-neighborhood heuristic: keep a candidate only if no already
  // kept neighbor is closer to it than the query is — spreads links across
  // directions instead of clustering them.
  (void)query;
  std::vector<uint32_t> kept;
  kept.reserve(std::min(m, sorted.size()));
  for (const Candidate& c : sorted) {
    if (kept.size() >= m) break;
    bool good = true;
    for (const uint32_t r : kept) {
      if (Distance(Slot(c.slot), Slot(r), stride_) < c.distance) {
        good = false;
        break;
      }
    }
    if (good) kept.push_back(c.slot);
  }
  return kept;
}

void HnswIndex::LinkInto(uint32_t slot, uint32_t neighbor, int layer) {
  const size_t cap = layer == 0
                         ? 2 * static_cast<size_t>(options_.max_neighbors)
                         : static_cast<size_t>(options_.max_neighbors);
  const size_t n = LinkCount(slot, layer);
  if (n < cap) {
    if (layer == 0) {
      links0_[static_cast<size_t>(slot) * 2 *
                  static_cast<size_t>(options_.max_neighbors) +
              n] = neighbor;
      link0_count_[slot] = static_cast<uint16_t>(n + 1);
    } else {
      upper_[slot][static_cast<size_t>(layer) - 1].push_back(neighbor);
    }
    return;
  }
  // Over capacity: re-select over existing links plus the newcomer.
  std::vector<Candidate> cands;
  cands.reserve(n + 1);
  const uint32_t* links = LinkData(slot, layer);
  for (size_t i = 0; i < n; ++i) {
    cands.push_back(
        Candidate{Distance(Slot(slot), Slot(links[i]), stride_), links[i]});
  }
  cands.push_back(
      Candidate{Distance(Slot(slot), Slot(neighbor), stride_), neighbor});
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.slot < b.slot;
            });
  SetLinks(slot, layer, SelectNeighbors(Slot(slot), cands, cap));
}

Status HnswIndex::Validate(const std::vector<double>& vector) const {
  if (vector.size() != dim_) {
    return Status::InvalidArgument("hnsw: vector dimension " +
                                   std::to_string(vector.size()) +
                                   " != index dimension " +
                                   std::to_string(dim_));
  }
  for (const double v : vector) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "hnsw: non-finite vector component rejected");
    }
  }
  return Status::OK();
}

Status HnswIndex::Insert(uint64_t id, const std::vector<double>& vector) {
  const Status status = Validate(vector);
  if (!status.ok()) return status;
  if (Contains(id)) return Status::OK();
  pending_.emplace(id, Quantize(vector));
  return Status::OK();
}

void HnswIndex::BuildWave(const std::vector<uint64_t>& wave,
                          common::ThreadPool* pool) {
  const int m = options_.max_neighbors;
  const size_t m0 = 2 * static_cast<size_t>(m);
  const uint32_t base = static_cast<uint32_t>(ids_.size());
  const size_t frozen_count = ids_.size();
  const uint32_t frozen_entry = entry_slot_;
  const int frozen_top = entry_level_;

  // Stage the wave's storage up front (ascending id order fixes the slot
  // numbering). The new slots are unreachable from the frozen graph, so the
  // candidate phase below never sees a half-linked node.
  for (const uint64_t id : wave) {
    const uint32_t slot = static_cast<uint32_t>(ids_.size());
    auto it = pending_.find(id);
    vectors_.resize(vectors_.size() + stride_);
    Project(layout_, it->second.data(),
            vectors_.data() + vectors_.size() - stride_);
    ids_.push_back(id);
    const int level = LevelFor(id);
    levels_.push_back(level);
    slot_of_.emplace(id, slot);
    links0_.resize(links0_.size() + m0, 0u);
    link0_count_.push_back(0);
    if (level > 0) {
      upper_.emplace(slot, std::vector<std::vector<uint32_t>>(
                               static_cast<size_t>(level)));
    }
    pending_.erase(it);
  }

  // Phase 1 (parallelizable): each wave member's per-layer candidate beams
  // against the frozen pre-wave graph. Thread count cannot change the
  // result: every search reads only frozen state.
  std::vector<std::vector<std::vector<Candidate>>> plans(wave.size());
  auto search_one = [&](size_t i) {
    if (frozen_count == 0) return;
    const uint32_t slot = base + static_cast<uint32_t>(i);
    const QueryView q{Slot(slot), false};
    const int level = levels_[slot];
    uint32_t ep = frozen_entry;
    for (int l = frozen_top; l > level; --l) ep = GreedyDescend(q, ep, l);
    const int top = std::min(level, frozen_top);
    plans[i].resize(static_cast<size_t>(top) + 1);
    for (int l = top; l >= 0; --l) {
      std::vector<Candidate> beam = SearchLayer(
          q, ep, static_cast<size_t>(options_.ef_construction), l);
      ep = beam.front().slot;
      plans[i][static_cast<size_t>(l)] = std::move(beam);
    }
  };
  if (pool != nullptr && wave.size() >= 8) {
    pool->ParallelFor(wave.size(), search_one);
  } else {
    for (size_t i = 0; i < wave.size(); ++i) search_one(i);
  }

  // Phase 2 (serial, ascending id): link each member into the graph. Only
  // this phase mutates adjacency, so the result is a pure function of the
  // wave sequence.
  for (size_t i = 0; i < wave.size(); ++i) {
    const uint32_t slot = base + static_cast<uint32_t>(i);
    const int level = levels_[slot];
    for (int l = static_cast<int>(plans[i].size()) - 1; l >= 0; --l) {
      const std::vector<uint32_t> selected = SelectNeighbors(
          Slot(slot), plans[i][static_cast<size_t>(l)],
          static_cast<size_t>(m));
      SetLinks(slot, l, selected);
      for (const uint32_t nb : selected) LinkInto(nb, slot, l);
    }
    if (level > entry_level_) {
      entry_level_ = level;
      entry_slot_ = slot;
    }
  }
}

void HnswIndex::Flush(common::ThreadPool* pool) {
  ActivatePendingColumns();
  while (!pending_.empty()) {
    const size_t built = ids_.size();
    // Serial bootstrap while the graph is tiny, then waves capped at 1/8 of
    // the built graph so every member still links against a representative
    // frozen majority.
    size_t wave_size =
        built < 256
            ? 1
            : std::min(options_.max_wave, std::max<size_t>(64, built / 8));
    wave_size = std::min(wave_size, pending_.size());
    std::vector<uint64_t> wave;
    wave.reserve(wave_size);
    for (const auto& [id, vec] : pending_) {
      if (wave.size() >= wave_size) break;
      wave.push_back(id);
    }
    BuildWave(wave, pool);
  }
}

std::vector<HnswNeighbor> HnswIndex::Search(const std::vector<double>& query,
                                            size_t k) const {
  std::vector<HnswNeighbor> out;
  if (k == 0 || query.size() != dim_) return out;
  const std::vector<float> q = Quantize(query);

  if (!ids_.empty()) {
    std::vector<float> projected;
    const QueryView view = View(q, &projected);
    uint32_t ep = entry_slot_;
    for (int l = entry_level_; l >= 1; --l) {
      ep = GreedyDescend(view, ep, l);
    }
    const size_t ef = std::max<size_t>(static_cast<size_t>(options_.ef_search),
                                       k);
    std::vector<Candidate> beam = SearchLayer(view, ep, ef, 0);
    const size_t take = std::min(k, beam.size());
    for (size_t i = 0; i < take; ++i) {
      out.push_back(HnswNeighbor{ids_[beam[i].slot], beam[i].distance});
    }
  }
  // Staged-but-unflushed vectors stay visible: brute-force and merge.
  for (const auto& [id, vec] : pending_) {
    out.push_back(HnswNeighbor{id, Distance(q.data(), vec.data(), dim_)});
  }
  std::sort(out.begin(), out.end(),
            [](const HnswNeighbor& a, const HnswNeighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<HnswNeighbor> HnswIndex::ExactKnn(const std::vector<double>& query,
                                              size_t k) const {
  std::vector<HnswNeighbor> all;
  if (k == 0 || query.size() != dim_) return all;
  const std::vector<float> q = Quantize(query);
  std::vector<float> projected;
  const QueryView view = View(q, &projected);
  all.reserve(ids_.size() + pending_.size());
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    all.push_back(HnswNeighbor{ids_[slot], DistanceTo(view, slot)});
  }
  for (const auto& [id, vec] : pending_) {
    all.push_back(HnswNeighbor{id, Distance(q.data(), vec.data(), dim_)});
  }
  const auto cmp = [](const HnswNeighbor& a, const HnswNeighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  };
  if (all.size() > k) {
    std::nth_element(all.begin(), all.begin() + static_cast<long>(k) - 1,
                     all.end(), cmp);
    all.resize(k);
  }
  std::sort(all.begin(), all.end(), cmp);
  return all;
}

bool HnswIndex::Contains(uint64_t id) const {
  return slot_of_.count(id) > 0 || pending_.count(id) > 0;
}

Result<std::vector<float>> HnswIndex::Vector(uint64_t id) const {
  const auto it = slot_of_.find(id);
  if (it != slot_of_.end()) {
    std::vector<float> dense(dim_);
    ExpandSlot(it->second, dense.data());
    return dense;
  }
  const auto pit = pending_.find(id);
  if (pit != pending_.end()) return pit->second;
  return Status::NotFound("hnsw: id not indexed");
}

size_t HnswIndex::Size() const { return ids_.size() + pending_.size(); }

size_t HnswIndex::PendingSize() const { return pending_.size(); }

int HnswIndex::MaxLevel() const { return entry_level_; }

std::string HnswIndex::ContentDigest() const {
  uint32_t crc = common::Crc32("rockhopper-hnsw-content");
  crc = FoldU64(crc, dim_);
  crc = FoldU64(crc, static_cast<uint64_t>(options_.max_neighbors));
  crc = FoldU64(crc, static_cast<uint64_t>(options_.ef_construction));
  crc = FoldU64(crc, options_.level_seed);
  crc = FoldU64(crc, options_.max_wave);
  std::vector<uint64_t> all;
  all.reserve(Size());
  for (const uint64_t id : ids_) all.push_back(id);
  for (const auto& [id, vec] : pending_) all.push_back(id);
  std::sort(all.begin(), all.end());
  std::vector<float> dense(dim_);
  for (const uint64_t id : all) {
    crc = FoldU64(crc, id);
    crc = common::Crc32(DenseVector(id, &dense), dim_ * sizeof(float), crc);
  }
  return Hex8(crc);
}

std::string HnswIndex::GraphDigest() const {
  uint32_t crc = common::Crc32("rockhopper-hnsw-graph");
  crc = FoldU64(crc, ids_.empty() ? ~0ULL : ids_[entry_slot_]);
  crc = FoldU64(crc, static_cast<uint64_t>(static_cast<int64_t>(entry_level_)));
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    crc = FoldU64(crc, ids_[slot]);
    const int level = levels_[slot];
    crc = FoldU64(crc, static_cast<uint64_t>(level));
    for (int l = 0; l <= level; ++l) {
      const uint32_t* nb = LinkData(slot, l);
      const size_t n = LinkCount(slot, l);
      crc = FoldU64(crc, n);
      for (size_t i = 0; i < n; ++i) crc = FoldU64(crc, ids_[nb[i]]);
    }
  }
  return Hex8(crc);
}

std::string HnswIndex::CanonicalGraphDigest() const {
  HnswIndex canonical(options_);
  for (uint32_t slot = 0; slot < ids_.size(); ++slot) {
    std::vector<float> dense(dim_);
    ExpandSlot(slot, dense.data());
    canonical.pending_.emplace(ids_[slot], std::move(dense));
  }
  for (const auto& [id, vec] : pending_) canonical.pending_.emplace(id, vec);
  canonical.Flush(nullptr);
  return canonical.GraphDigest();
}

Result<std::string> HnswIndex::Serialize() const {
  std::string payload;
  payload.reserve(16 + Size() * (sizeof(uint64_t) + dim_ * sizeof(float)));
  AppendU64(&payload, dim_);
  AppendU64(&payload, Size());
  std::vector<uint64_t> all;
  all.reserve(Size());
  for (const uint64_t id : ids_) all.push_back(id);
  for (const auto& [id, vec] : pending_) all.push_back(id);
  std::sort(all.begin(), all.end());
  std::vector<float> dense(dim_);
  for (const uint64_t id : all) {
    AppendU64(&payload, id);
    AppendFloats(&payload, DenseVector(id, &dense), dim_);
  }
  char header[96];
  std::snprintf(header, sizeof(header), "%s %s %08x %zu\n", kMagic, kVersion,
                common::Crc32(payload), payload.size());
  return std::string(header) + payload;
}

Status HnswIndex::Load(const std::string& artifact,
                       const std::vector<uint64_t>* keep) {
  const size_t newline = artifact.find('\n');
  if (newline == std::string::npos) {
    return Status::DataLoss("hnsw artifact: missing header line");
  }
  char magic[32] = {0};
  char version[16] = {0};
  uint32_t expected_crc = 0;
  size_t payload_size = 0;
  const std::string header = artifact.substr(0, newline);
  if (std::sscanf(header.c_str(), "%31s %15s %x %zu", magic, version,
                  &expected_crc, &payload_size) != 4 ||
      std::string(magic) != kMagic) {
    return Status::DataLoss("hnsw artifact: damaged header");
  }
  if (std::string(version) != kVersion) {
    return Status::InvalidArgument("hnsw artifact: unsupported version " +
                                   std::string(version));
  }
  if (artifact.size() - newline - 1 != payload_size) {
    return Status::DataLoss("hnsw artifact: truncated payload");
  }
  const char* payload = artifact.data() + newline + 1;
  if (common::Crc32(payload, payload_size) != expected_crc) {
    return Status::DataLoss("hnsw artifact: CRC mismatch");
  }
  if (payload_size < 2 * sizeof(uint64_t)) {
    return Status::DataLoss("hnsw artifact: payload too short");
  }
  const uint64_t dim = ReadU64(payload);
  const uint64_t count = ReadU64(payload + sizeof(uint64_t));
  if (dim != dim_) {
    return Status::InvalidArgument(
        "hnsw artifact: dimension " + std::to_string(dim) +
        " != index dimension " + std::to_string(dim_));
  }
  const size_t record = sizeof(uint64_t) + dim_ * sizeof(float);
  if (payload_size != 2 * sizeof(uint64_t) + count * record) {
    return Status::DataLoss("hnsw artifact: record count mismatch");
  }
  std::unordered_set<uint64_t> filter;
  if (keep != nullptr) filter.insert(keep->begin(), keep->end());
  const char* p = payload + 2 * sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i, p += record) {
    const uint64_t id = ReadU64(p);
    if (keep != nullptr && filter.count(id) == 0) continue;
    if (Contains(id)) continue;
    std::vector<float> vec(dim_);
    std::memcpy(vec.data(), p + sizeof(uint64_t), dim_ * sizeof(float));
    pending_.emplace(id, std::move(vec));
  }
  return Status::OK();
}

void HnswIndex::Clear() {
  active_.assign(dim_, false);
  layout_.clear();
  stride_ = 0;
  vectors_.clear();
  ids_.clear();
  levels_.clear();
  slot_of_.clear();
  links0_.clear();
  link0_count_.clear();
  upper_.clear();
  entry_slot_ = 0;
  entry_level_ = -1;
  pending_.clear();
}

size_t HnswIndex::ApproxBytes() const {
  size_t bytes = vectors_.capacity() * sizeof(float) +
                 layout_.capacity() * sizeof(int32_t) + dim_ / 8 +
                 ids_.capacity() * sizeof(uint64_t) +
                 levels_.capacity() * sizeof(int) +
                 links0_.capacity() * sizeof(uint32_t) +
                 link0_count_.capacity() * sizeof(uint16_t) +
                 slot_of_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + 16);
  for (const auto& [slot, layers] : upper_) {
    bytes += sizeof(slot) + layers.size() * sizeof(std::vector<uint32_t>);
    for (const auto& l : layers) bytes += l.capacity() * sizeof(uint32_t);
  }
  bytes += pending_.size() * (sizeof(uint64_t) + dim_ * sizeof(float) + 48);
  return bytes;
}

}  // namespace rockhopper::ml
