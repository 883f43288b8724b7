#include "ml/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/embedding.h"
#include "gtest/gtest.h"
#include "sparksim/workloads.h"

namespace rockhopper::ml {
namespace {

constexpr size_t kDim = 16;

HnswOptions SmallOptions() {
  HnswOptions options;
  options.dim = kDim;
  options.max_neighbors = 12;
  options.ef_construction = 96;
  options.ef_search = 64;
  return options;
}

std::vector<double> RandomVector(common::Rng& rng, size_t dim = kDim) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  return v;
}

// Clustered data: HNSW's realistic regime (embeddings of recurring
// workloads cluster), and harder for recall than uniform noise.
std::vector<std::vector<double>> ClusteredData(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> centers;
  for (int c = 0; c < 16; ++c) centers.push_back(RandomVector(rng));
  std::vector<std::vector<double>> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v = centers[rng.Index(centers.size())];
    for (double& x : v) x += rng.Normal(0.0, 0.15);
    data.push_back(std::move(v));
  }
  return data;
}

TEST(HnswIndexTest, EmptyIndexSearchesEmpty) {
  HnswIndex index(SmallOptions());
  EXPECT_TRUE(index.Search(std::vector<double>(kDim, 0.0), 5).empty());
  EXPECT_TRUE(index.ExactKnn(std::vector<double>(kDim, 0.0), 5).empty());
  EXPECT_EQ(index.Size(), 0u);
  EXPECT_EQ(index.MaxLevel(), -1);
}

TEST(HnswIndexTest, InsertValidation) {
  HnswIndex index(SmallOptions());
  EXPECT_EQ(index.Insert(1, std::vector<double>(kDim - 1, 0.0)).code(),
            StatusCode::kInvalidArgument);
  std::vector<double> bad(kDim, 0.0);
  bad[3] = std::nan("");
  EXPECT_EQ(index.Insert(1, bad).code(), StatusCode::kInvalidArgument);
  bad[3] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(index.Insert(1, bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Size(), 0u);

  common::Rng rng(7);
  ASSERT_TRUE(index.Insert(1, RandomVector(rng)).ok());
  // Duplicate registration is an idempotent no-op (replay paths depend on
  // this), both before and after the flush.
  ASSERT_TRUE(index.Insert(1, RandomVector(rng)).ok());
  EXPECT_EQ(index.Size(), 1u);
  index.Flush();
  ASSERT_TRUE(index.Insert(1, RandomVector(rng)).ok());
  EXPECT_EQ(index.Size(), 1u);
  EXPECT_TRUE(index.Contains(1));
}

TEST(HnswIndexTest, PendingVectorsAreSearchableBeforeFlush) {
  HnswIndex index(SmallOptions());
  common::Rng rng(11);
  const std::vector<double> target = RandomVector(rng);
  ASSERT_TRUE(index.Insert(42, target).ok());
  ASSERT_EQ(index.PendingSize(), 1u);
  const auto hits = index.Search(target, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-6);
}

TEST(HnswIndexTest, SearchMatchesExactOnSmallSets) {
  HnswIndex index(SmallOptions());
  const auto data = ClusteredData(60, 21);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
  }
  index.Flush();
  common::Rng rng(22);
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomVector(rng);
    const auto approx = index.Search(query, 10);
    const auto exact = index.ExactKnn(query, 10);
    ASSERT_EQ(approx.size(), exact.size());
    // ef_search (64) exceeds the set size, so the beam must be exhaustive.
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(approx[i].id, exact[i].id);
      EXPECT_DOUBLE_EQ(approx[i].distance, exact[i].distance);
    }
  }
}

TEST(HnswIndexTest, RecallAtTenOnClusteredData) {
  HnswIndex index(SmallOptions());
  const auto data = ClusteredData(4000, 31);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
  }
  index.Flush();
  common::Rng rng(32);
  size_t hit = 0, total = 0;
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query = data[rng.Index(data.size())];
    for (double& x : query) x += rng.Normal(0.0, 0.05);
    const auto approx = index.Search(query, 10);
    const auto exact = index.ExactKnn(query, 10);
    for (const auto& e : exact) {
      ++total;
      for (const auto& a : approx) {
        if (a.id == e.id) {
          ++hit;
          break;
        }
      }
    }
  }
  const double recall = static_cast<double>(hit) / static_cast<double>(total);
  EXPECT_GE(recall, 0.95) << "recall@10 " << recall;
}

TEST(HnswIndexTest, BuildIsByteIdenticalAcrossThreadCounts) {
  const auto data = ClusteredData(1500, 41);
  std::vector<std::string> graph_digests;
  std::vector<std::string> content_digests;
  for (const int threads : {0, 1, 2, 4}) {
    HnswIndex index(SmallOptions());
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
    }
    if (threads == 0) {
      index.Flush();
    } else {
      common::ThreadPool pool(threads);
      index.Flush(&pool);
    }
    graph_digests.push_back(index.GraphDigest());
    content_digests.push_back(index.ContentDigest());
  }
  for (size_t i = 1; i < graph_digests.size(); ++i) {
    EXPECT_EQ(graph_digests[i], graph_digests[0]);
    EXPECT_EQ(content_digests[i], content_digests[0]);
  }
}

TEST(HnswIndexTest, ContentDigestIsInsertionOrderIndependent) {
  const auto data = ClusteredData(300, 51);
  HnswIndex forward(SmallOptions());
  HnswIndex backward(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(forward.Insert(i + 1, data[i]).ok());
  }
  for (size_t i = data.size(); i > 0; --i) {
    ASSERT_TRUE(backward.Insert(i, data[i - 1]).ok());
  }
  forward.Flush();
  backward.Flush();
  EXPECT_EQ(forward.ContentDigest(), backward.ContentDigest());
  // The live graphs were built from identical flush sequences here (one
  // Flush of the same ascending-id staged set), so they agree too.
  EXPECT_EQ(forward.GraphDigest(), backward.GraphDigest());
}

TEST(HnswIndexTest, CanonicalRebuildNormalizesIncrementalBatching) {
  const auto data = ClusteredData(900, 61);
  // Incremental: many small flushes in arrival order.
  HnswIndex incremental(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(incremental.Insert(i + 1, data[i]).ok());
    if (i % 37 == 0) incremental.Flush();
  }
  incremental.Flush();
  // Canonical: the whole set staged at once, one flush.
  HnswIndex canonical(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(canonical.Insert(i + 1, data[i]).ok());
  }
  canonical.Flush();
  EXPECT_EQ(incremental.ContentDigest(), canonical.ContentDigest());
  EXPECT_EQ(incremental.CanonicalGraphDigest(), canonical.GraphDigest());
  EXPECT_EQ(canonical.CanonicalGraphDigest(), canonical.GraphDigest());
}

TEST(HnswIndexTest, SerializeRoundTripsAndRebuildsCanonically) {
  const auto data = ClusteredData(500, 71);
  HnswIndex index(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
    if (i % 101 == 0) index.Flush();
  }
  index.Flush();
  Result<std::string> artifact = index.Serialize();
  ASSERT_TRUE(artifact.ok());

  HnswIndex restored(SmallOptions());
  ASSERT_TRUE(restored.Load(*artifact).ok());
  restored.Flush();
  EXPECT_EQ(restored.Size(), index.Size());
  EXPECT_EQ(restored.ContentDigest(), index.ContentDigest());
  // A loaded index is built in one canonical pass; it must equal the
  // canonical rebuild of the original, whatever batching the original saw.
  EXPECT_EQ(restored.GraphDigest(), index.CanonicalGraphDigest());
}

TEST(HnswIndexTest, LoadFilterKeepsOnlyRequestedIds) {
  const auto data = ClusteredData(100, 81);
  HnswIndex index(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
  }
  Result<std::string> artifact = index.Serialize();
  ASSERT_TRUE(artifact.ok());
  const std::vector<uint64_t> keep = {3, 50, 97};
  HnswIndex filtered(SmallOptions());
  ASSERT_TRUE(filtered.Load(*artifact, &keep).ok());
  filtered.Flush();
  EXPECT_EQ(filtered.Size(), keep.size());
  for (const uint64_t id : keep) EXPECT_TRUE(filtered.Contains(id));
  EXPECT_FALSE(filtered.Contains(4));
}

TEST(HnswIndexTest, DamagedArtifactsAreDataLoss) {
  const auto data = ClusteredData(50, 91);
  HnswIndex index(SmallOptions());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
  }
  Result<std::string> artifact = index.Serialize();
  ASSERT_TRUE(artifact.ok());

  // Truncation at any point past the header is a CRC/size failure.
  {
    HnswIndex fresh(SmallOptions());
    const std::string torn = artifact->substr(0, artifact->size() / 2);
    EXPECT_EQ(fresh.Load(torn).code(), StatusCode::kDataLoss);
    EXPECT_EQ(fresh.Size(), 0u);
  }
  // A single flipped payload byte fails the CRC.
  {
    HnswIndex fresh(SmallOptions());
    std::string flipped = *artifact;
    flipped[flipped.size() - 3] ^= 0x40;
    EXPECT_EQ(fresh.Load(flipped).code(), StatusCode::kDataLoss);
  }
  // Unknown version is invalid-argument, not data loss.
  {
    HnswIndex fresh(SmallOptions());
    std::string other = *artifact;
    const size_t pos = other.find(" v1 ");
    ASSERT_NE(pos, std::string::npos);
    other.replace(pos, 4, " v9 ");
    EXPECT_EQ(fresh.Load(other).code(), StatusCode::kInvalidArgument);
  }
  // Dimension mismatch against the receiving index.
  {
    HnswOptions wide = SmallOptions();
    wide.dim = kDim + 1;
    HnswIndex fresh(wide);
    EXPECT_EQ(fresh.Load(*artifact).code(), StatusCode::kInvalidArgument);
  }
}

TEST(HnswIndexTest, VectorLookupQuantizesToFloat) {
  HnswIndex index(SmallOptions());
  common::Rng rng(101);
  const std::vector<double> v = RandomVector(rng);
  ASSERT_TRUE(index.Insert(9, v).ok());
  Result<std::vector<float>> stored = index.Vector(9);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->size(), kDim);
  for (size_t i = 0; i < kDim; ++i) {
    EXPECT_EQ((*stored)[i], static_cast<float>(v[i]));
  }
  index.Flush();
  Result<std::vector<float>> flushed = index.Vector(9);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(*flushed, *stored);
  EXPECT_EQ(index.Vector(10).status().code(), StatusCode::kNotFound);
}

// Plan embeddings as the transfer tier indexes them: 252 columns, of which a
// plan fills about a dozen and the whole population well under half.
std::vector<std::vector<double>> PlanEmbeddings(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  const core::EmbeddingOptions options;
  std::vector<std::vector<double>> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back(core::ComputeEmbedding(
        sparksim::GeneratePlan(sparksim::PlanProfile{}, &rng), options));
  }
  return data;
}

/// Columns that are zero in every vector of `data`, ascending.
std::vector<size_t> UnusedColumns(
    const std::vector<std::vector<double>>& data) {
  std::vector<size_t> unused;
  for (size_t c = 0; c < data.front().size(); ++c) {
    bool used = false;
    for (const auto& v : data) used = used || v[c] != 0.0;
    if (!used) unused.push_back(c);
  }
  return unused;
}

std::string Hex8(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// CRC over the top-10 Search and ExactKnn results of every query, rendered
/// as "id hexfloat-distance" lines: pins ids and distance bits exactly.
std::string ResultsDigest(const HnswIndex& index,
                          const std::vector<std::vector<double>>& queries) {
  std::string text;
  char line[64];
  for (const auto& q : queries) {
    for (const bool exact : {false, true}) {
      for (const HnswNeighbor& n :
           exact ? index.ExactKnn(q, 10) : index.Search(q, 10)) {
        std::snprintf(line, sizeof(line), "%llu %a\n",
                      static_cast<unsigned long long>(n.id), n.distance);
        text += line;
      }
      text += "--\n";
    }
  }
  return Hex8(common::Crc32(text));
}

std::string ArtifactCrc(const HnswIndex& index) {
  Result<std::string> artifact = index.Serialize();
  return artifact.ok() ? Hex8(common::Crc32(*artifact)) : "error";
}

struct Pins {
  std::string graph, content, canonical, artifact, results;
};

Pins PinsOf(const HnswIndex& index,
            const std::vector<std::vector<double>>& queries) {
  return Pins{index.GraphDigest(), index.ContentDigest(),
              index.CanonicalGraphDigest(), ArtifactCrc(index),
              ResultsDigest(index, queries)};
}

void ExpectPins(const Pins& got, const Pins& want) {
  EXPECT_EQ(got.graph, want.graph);
  EXPECT_EQ(got.content, want.content);
  EXPECT_EQ(got.canonical, want.canonical);
  EXPECT_EQ(got.artifact, want.artifact);
  EXPECT_EQ(got.results, want.results);
}

// The stored-vector layout is an internal detail: graph, digests, artifact
// bytes and every search result (ids and distance bits) are pinned to the
// values of the plain dense float32 layout. The data holds a -0.0f in a
// column no plan uses; one query uses another such column, which no stored
// vector has, and so takes the dense fallback path.
TEST(HnswIndexTest, PlanEmbeddingResultsArePinned) {
  std::vector<std::vector<double>> data = PlanEmbeddings(2000, 0x706c616eULL);
  const std::vector<size_t> unused = UnusedColumns(data);
  ASSERT_GE(unused.size(), 2u);
  data[500][unused[0]] = -0.0;
  std::vector<std::vector<double>> queries = PlanEmbeddings(20, 0x71ULL);
  queries[7][unused[1]] = 1.0;

  HnswOptions options;
  options.dim = data.front().size();
  HnswIndex index(options);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(i + 1, data[i]).ok());
    if (i % 13 == 12) index.Flush();  // the transfer tier's flush cadence
  }
  index.Flush();
  Result<std::vector<float>> signed_zero = index.Vector(501);
  ASSERT_TRUE(signed_zero.ok());
  EXPECT_TRUE(std::signbit((*signed_zero)[unused[0]]));
  ExpectPins(PinsOf(index, queries),
             {"e29a9c5f", "b16c0b2d", "0965d253", "8c6e95fc", "328c548d"});
}

// Dense data with a dimension that is not a multiple of 4: every column is
// active and the last two fall in the kernel's tail lane.
TEST(HnswIndexTest, DenseTailLaneResultsArePinned) {
  constexpr size_t kTailDim = 10;
  common::Rng rng(0x64656e73ULL);
  HnswOptions options = SmallOptions();
  options.dim = kTailDim;
  HnswIndex index(options);
  for (uint64_t id = 1; id <= 1500; ++id) {
    ASSERT_TRUE(index.Insert(id, RandomVector(rng, kTailDim)).ok());
    if (id % 250 == 0) index.Flush();
  }
  std::vector<std::vector<double>> queries;
  for (int q = 0; q < 20; ++q) queries.push_back(RandomVector(rng, kTailDim));
  ExpectPins(PinsOf(index, queries),
             {"81edc523", "74a7dbee", "5f724609", "16e469f9", "09c8d3e0"});
}

// A column first used after 1000 flushed vectors forces the stored vectors
// to be re-laid out; the index must stay the one the dense layout builds,
// and agree with a one-flush canonical build of the same set.
TEST(HnswIndexTest, LateNewColumnRelayoutMatchesCanonicalBuild) {
  std::vector<std::vector<double>> data = PlanEmbeddings(1300, 0x6c617465ULL);
  const std::vector<size_t> unused =
      UnusedColumns({data.begin(), data.begin() + 1000});
  ASSERT_FALSE(unused.empty());
  for (size_t i = 1000; i < data.size(); i += 7) data[i][unused.back()] = 2.0;
  std::vector<std::vector<double>> queries = PlanEmbeddings(10, 0x6c71ULL);
  queries[3][unused.back()] = 2.0;

  HnswOptions options;
  options.dim = data.front().size();
  HnswIndex incremental(options);
  HnswIndex canonical(options);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(incremental.Insert(i + 1, data[i]).ok());
    ASSERT_TRUE(canonical.Insert(i + 1, data[i]).ok());
    if (i + 1 == 1000 || i + 1 == data.size()) incremental.Flush();
  }
  canonical.Flush();
  EXPECT_EQ(incremental.GraphDigest(), "9bc51781");
  EXPECT_EQ(incremental.ContentDigest(), canonical.ContentDigest());
  EXPECT_EQ(incremental.CanonicalGraphDigest(), canonical.GraphDigest());
  EXPECT_EQ(ArtifactCrc(incremental), ArtifactCrc(canonical));
  for (const auto& q : queries) {
    const std::vector<HnswNeighbor> a = incremental.ExactKnn(q, 10);
    const std::vector<HnswNeighbor> b = canonical.ExactKnn(q, 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
  // A stored vector that carries the late column is its own nearest match.
  const std::vector<HnswNeighbor> self = incremental.Search(data[1000], 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].id, 1001u);
  EXPECT_EQ(self[0].distance, 0.0);
}

// Stored vectors hold only the columns in use: plan embeddings take well
// under half the vector bytes of the same vectors with every column in use.
TEST(HnswIndexTest, ApproxBytesShrinksOnPlanEmbeddings) {
  const std::vector<std::vector<double>> sparse =
      PlanEmbeddings(1000, 0x73697a65ULL);
  std::vector<std::vector<double>> dense = sparse;
  for (auto& v : dense) {
    for (double& x : v) x += 1.0;  // same pairwise differences, all columns
  }
  HnswOptions options;
  options.dim = sparse.front().size();
  HnswIndex sparse_index(options);
  HnswIndex dense_index(options);
  for (size_t i = 0; i < sparse.size(); ++i) {
    ASSERT_TRUE(sparse_index.Insert(i + 1, sparse[i]).ok());
    ASSERT_TRUE(dense_index.Insert(i + 1, dense[i]).ok());
  }
  sparse_index.Flush();
  dense_index.Flush();
  const size_t dense_vector_bytes = sparse.size() * options.dim * sizeof(float);
  EXPECT_LT(sparse_index.ApproxBytes() + dense_vector_bytes / 2,
            dense_index.ApproxBytes());
}

}  // namespace
}  // namespace rockhopper::ml
