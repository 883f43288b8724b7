#include "core/state_codec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/centroid_learning.h"
#include "core/embedding.h"
#include "core/model_store.h"
#include "core/scorer.h"
#include "core/tuning_service.h"
#include "support/test_temp_dir.h"
#include "sparksim/workloads.h"

namespace rockhopper::core {
namespace {

/// Builds a QueryState the way TuningService::BuildState does — same shared
/// context on both sides of an Encode/Decode round trip.
QueryState MakeState(const sparksim::ConfigSpace& space,
                     const sparksim::QueryPlan& plan, uint64_t seed) {
  QueryState state;
  state.embedding = ComputeEmbedding(plan, EmbeddingOptions());
  auto scorer = std::make_unique<SurrogateScorer>(
      space, nullptr, state.embedding, SurrogateScorer::Options());
  state.tuner = std::make_unique<CentroidLearner>(
      space, space.Defaults(), std::move(scorer), CentroidLearningOptions(),
      seed);
  state.guardrail = Guardrail(Guardrail::Options());
  return state;
}

class StateCodecTest : public ::testing::Test {
 protected:
  StateCodecTest() : space_(sparksim::QueryLevelSpace()) {}

  TuningServiceOptions FastOptions() {
    TuningServiceOptions options;
    options.guardrail.min_iterations = 10;
    options.centroid.num_candidates = 8;
    return options;
  }

  /// Overwrites the payload of every stored artifact under the model store
  /// (header intact, bytes flipped) — the torn-cold-artifact fault.
  size_t CorruptStoredArtifacts() {
    size_t corrupted = 0;
    if (!std::filesystem::exists(store_dir_)) return 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(store_dir_)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::string bytes{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
      in.close();
      if (bytes.size() < 4) continue;
      bytes[bytes.size() / 2] ^= 0x5a;
      bytes[bytes.size() - 1] ^= 0x5a;
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << bytes;
      ++corrupted;
    }
    return corrupted;
  }

  sparksim::ConfigSpace space_;
  const test_support::TestTempDir temp_;
  const std::string store_dir_ = temp_.File("store");
};

TEST_F(StateCodecTest, EncodeDecodeReencodeByteIdentical) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(1);
  QueryState original = MakeState(space_, plan, 42);
  // Advance the tuner so the archive carries a nontrivial centroid, window,
  // step sizes, and mt19937_64 stream position.
  for (int i = 0; i < 12; ++i) {
    const sparksim::ConfigVector c = original.tuner->Propose(1e9);
    original.tuner->Observe(c, 1e9, 50.0 - 0.5 * i);
  }
  original.consecutive_failures = 2;
  original.backoff = 4;

  Result<std::string> artifact = EncodeQueryState(original);
  ASSERT_TRUE(artifact.ok());

  QueryState restored = MakeState(space_, plan, 42);
  ASSERT_TRUE(DecodeQueryState(*artifact, &restored).ok());

  // Byte-identical round trip: re-encoding the decoded state reproduces the
  // artifact exactly (hexfloat + generator stream state).
  Result<std::string> reencoded = EncodeQueryState(restored);
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(*artifact, *reencoded);
  EXPECT_EQ(restored.consecutive_failures, 2);
  EXPECT_EQ(restored.backoff, 4);

  // And the decision stream continues bit-identically.
  for (int i = 0; i < 6; ++i) {
    const sparksim::ConfigVector a = original.tuner->Propose(2e9);
    const sparksim::ConfigVector b = restored.tuner->Propose(2e9);
    ASSERT_EQ(a, b) << "proposal diverged at post-restore round " << i;
    original.tuner->Observe(a, 2e9, 40.0 + i);
    restored.tuner->Observe(b, 2e9, 40.0 + i);
  }
}

TEST_F(StateCodecTest, DecodeRejectsDamage) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(2);
  QueryState state = MakeState(space_, plan, 7);
  Result<std::string> artifact = EncodeQueryState(state);
  ASSERT_TRUE(artifact.ok());

  // Bit flip in the payload: CRC mismatch.
  std::string flipped = *artifact;
  flipped[flipped.size() - 3] ^= 0x01;
  QueryState target1 = MakeState(space_, plan, 7);
  EXPECT_EQ(DecodeQueryState(flipped, &target1).code(),
            StatusCode::kDataLoss);

  // Truncation: declared payload length no longer matches.
  QueryState target2 = MakeState(space_, plan, 7);
  EXPECT_EQ(DecodeQueryState(artifact->substr(0, artifact->size() / 2),
                             &target2)
                .code(),
            StatusCode::kDataLoss);

  // Foreign bytes: bad header.
  QueryState target3 = MakeState(space_, plan, 7);
  EXPECT_EQ(DecodeQueryState("not a state artifact", &target3).code(),
            StatusCode::kDataLoss);
}

TEST_F(StateCodecTest, ApproxBytesNonTrivial) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(3);
  QueryState state = MakeState(space_, plan, 9);
  // The footprint estimate is the eviction budget's accounting unit: it must
  // be solidly nonzero and grow as the observation window fills.
  const size_t empty_bytes = ApproxQueryStateBytes(state);
  EXPECT_GT(empty_bytes, sizeof(QueryState));
  for (int i = 0; i < 20; ++i) {
    const sparksim::ConfigVector c = state.tuner->Propose(1e9);
    state.tuner->Observe(c, 1e9, 30.0);
  }
  EXPECT_GE(ApproxQueryStateBytes(state), empty_bytes);
}

/// The tentpole contract: with tiering armed and a budget so small every
/// release evicts, proposals stay bit-identical to an untiered twin — the
/// serialize → evict → fault-in cycle is invisible to decision trajectories.
TEST_F(StateCodecTest, EvictFaultInKeepsProposalsBitIdentical) {
  std::map<uint64_t, sparksim::QueryPlan> plans;
  for (int q = 1; q <= 4; ++q) {
    const sparksim::QueryPlan plan = sparksim::TpchPlan(q);
    plans.emplace(plan.Signature(), plan);
  }

  ModelStore store(store_dir_);
  TuningService tiered(space_, nullptr, FastOptions(), 11);
  // Budget of one byte: every guard release pushes the resident tier over
  // budget, so every touch is a fresh decode fault-in.
  StateTierOptions tier;
  tier.shared_budget_bytes = 1;
  tier.state_budget_fraction = 1.0;
  tier.plan_resolver = [&plans](uint64_t signature) {
    auto it = plans.find(signature);
    return it == plans.end() ? nullptr : &it->second;
  };
  tiered.AttachStateTier(&store, tier);
  TuningService plain(space_, nullptr, FastOptions(), 11);

  for (int round = 0; round < 15; ++round) {
    for (const auto& [signature, plan] : plans) {
      const sparksim::ConfigVector a = tiered.OnQueryStart(plan, 1e9);
      const sparksim::ConfigVector b = plain.OnQueryStart(plan, 1e9);
      ASSERT_EQ(a, b) << "signature " << signature << " round " << round;
      const QueryEndEvent event =
          QueryEndEvent::FromRun(a, 1e9, 60.0 - round + 0.1 * (signature % 7));
      tiered.OnQueryEnd(plan, event);
      plain.OnQueryEnd(plan, event);
    }
  }

  const TierStats stats = tiered.StateTierStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.faultins, 0u);
  EXPECT_EQ(tiered.NumSignatures(), plans.size());
  for (const auto& [signature, plan] : plans) {
    EXPECT_EQ(tiered.observations().Count(signature),
              plain.observations().Count(signature));
  }
}

/// Torn cold artifacts must not resurrect garbage: the CRC rejects the
/// decode and fault-in falls back to a deterministic replay of the journaled
/// history — the same trajectory a fresh service replaying that history
/// produces.
TEST_F(StateCodecTest, TornArtifactFallsBackToDeterministicReplay) {
  std::map<uint64_t, sparksim::QueryPlan> plans;
  for (int q = 1; q <= 3; ++q) {
    const sparksim::QueryPlan plan = sparksim::TpchPlan(q);
    plans.emplace(plan.Signature(), plan);
  }

  ModelStore store(store_dir_);
  TuningService tiered(space_, nullptr, FastOptions(), 13);
  StateTierOptions tier;
  tier.shared_budget_bytes = 1;
  tier.state_budget_fraction = 1.0;
  tier.plan_resolver = [&plans](uint64_t signature) {
    auto it = plans.find(signature);
    return it == plans.end() ? nullptr : &it->second;
  };
  tiered.AttachStateTier(&store, tier);

  for (int round = 0; round < 12; ++round) {
    for (const auto& [signature, plan] : plans) {
      const sparksim::ConfigVector c = tiered.OnQueryStart(plan, 1e9);
      tiered.OnQueryEnd(plan,
                        QueryEndEvent::FromRun(c, 1e9, 55.0 - round));
    }
  }
  // Budget 1 ⇒ everything was evicted on the last release.
  const TierStats stats = tiered.StateTierStats();
  ASSERT_GT(stats.evictions, 0u);
  ASSERT_EQ(stats.resident_signatures, 0u);
  ASSERT_GT(CorruptStoredArtifacts(), 0u);

  // Twin rebuilt by replaying the identical history through fresh tuners —
  // what the fallback path must reproduce bit-identically.
  TuningService twin(space_, nullptr, FastOptions(), 13);
  for (const auto& [signature, plan] : plans) {
    twin.ReplayHistory(plan, tiered.observations().History(signature));
  }

  for (const auto& [signature, plan] : plans) {
    const sparksim::ConfigVector a = tiered.OnQueryStart(plan, 1e9);
    const sparksim::ConfigVector b = twin.OnQueryStart(plan, 1e9);
    EXPECT_EQ(a, b) << "fallback replay diverged for signature " << signature;
  }
  EXPECT_GT(tiered.StateTierStats().faultins, stats.faultins);
}

}  // namespace
}  // namespace rockhopper::core
