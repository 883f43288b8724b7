#include "core/state_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/baseline_model.h"
#include "core/centroid_learning.h"
#include "core/embedding.h"
#include "core/model_store.h"
#include "core/scorer.h"
#include "core/tuning_service.h"
#include "ml/dataset.h"
#include "sparksim/simulator.h"
#include "support/test_temp_dir.h"
#include "sparksim/workloads.h"

namespace rockhopper::core {
namespace {

/// Builds a QueryState the way TuningService::BuildState does — same shared
/// context on both sides of an Encode/Decode round trip. `scorer`, when
/// given, receives the state's surrogate (owned by its tuner).
QueryState MakeState(const sparksim::ConfigSpace& space,
                     const sparksim::QueryPlan& plan, uint64_t seed,
                     const BaselineModel* baseline = nullptr,
                     SurrogateScorer** scorer_out = nullptr) {
  QueryState state;
  auto scorer = std::make_unique<SurrogateScorer>(
      space, baseline, ComputeEmbedding(plan, EmbeddingOptions()),
      SurrogateScorer::Options());
  if (scorer_out != nullptr) *scorer_out = scorer.get();
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

/// A resident state holds only what its decisions read: without a baseline
/// the scorer keeps no embedding, the learner no candidate set and the
/// guardrail no configs. Keeping those puts 40 observations at 17.2 KB.
TEST_F(StateCodecTest, FootprintHoldsOnlyWhatDecisionsRead) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(4);
  SurrogateScorer* scorer = nullptr;
  QueryState state = MakeState(space_, plan, 5, nullptr, &scorer);
  ASSERT_NE(scorer, nullptr);
  for (int i = 0; i < 40; ++i) {
    Observation obs;
    obs.config = state.tuner->Propose(1e9);
    obs.data_size = 1e9;
    obs.runtime = 60.0 - 0.5 * i;
    obs.iteration = i;
    state.tuner->Observe(obs.config, obs.data_size, obs.runtime);
    ASSERT_TRUE(state.guardrail.Record(obs));
  }
  EXPECT_TRUE(scorer->embedding().empty());
  EXPECT_LE(ApproxQueryStateBytes(state), 11'000u);
}

/// With a fitted baseline the embedding is the baseline's input: the scorer
/// keeps it, and the baseline blend still decides SelectBest before the GP
/// has history.
TEST_F(StateCodecTest, BaselineScorerKeepsEmbeddingAndSteersSelectBest) {
  BaselineModel baseline(space_);
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::None();
  sparksim::SparkSimulator sim(sim_options);
  common::Rng rng(3);
  ml::Dataset trace;
  for (int q = 1; q <= 4; ++q) {
    const sparksim::QueryPlan trace_plan = sparksim::TpchPlan(q);
    const std::vector<double> embedding =
        ComputeEmbedding(trace_plan, EmbeddingOptions());
    for (int c = 0; c < 12; ++c) {
      const sparksim::ConfigVector config = space_.Sample(&rng);
      const sparksim::ExecutionResult r =
          sim.ExecuteQuery(trace_plan, config, 1.0);
      trace.Add(baseline.Features(embedding, config, r.input_bytes),
                r.runtime_seconds);
    }
  }
  ASSERT_TRUE(baseline.Fit(trace).ok());

  const sparksim::QueryPlan plan = sparksim::TpchPlan(2);
  SurrogateScorer* blended = nullptr;
  QueryState state = MakeState(space_, plan, 6, &baseline, &blended);
  ASSERT_NE(blended, nullptr);
  EXPECT_EQ(blended->embedding(), ComputeEmbedding(plan, EmbeddingOptions()));

  // Candidates ordered worst-first by the baseline: its pick is the last
  // one, while a scorer with no information keeps candidate 0.
  const double data_size = plan.LeafInputBytes(1.0);
  const auto predicted = [&](const sparksim::ConfigVector& config) {
    return baseline.PredictRuntime(blended->embedding(), config, data_size);
  };
  std::vector<sparksim::ConfigVector> candidates;
  for (int i = 0; i < 8; ++i) candidates.push_back(space_.Sample(&rng));
  std::sort(candidates.begin(), candidates.end(),
            [&](const sparksim::ConfigVector& a,
                const sparksim::ConfigVector& b) {
              return predicted(a) > predicted(b);
            });
  ASSERT_GT(predicted(candidates[candidates.size() - 2]),
            predicted(candidates.back()));
  // A finite incumbent, so expected improvement ranks by predicted runtime.
  const double best_observed = 1e6;
  EXPECT_EQ(blended->SelectBest(candidates, data_size, best_observed),
            candidates.size() - 1);

  SurrogateScorer* plain = nullptr;
  QueryState plain_state = MakeState(space_, plan, 6, nullptr, &plain);
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->embedding().empty());
  EXPECT_EQ(plain->SelectBest(candidates, data_size, best_observed), 0u);
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

/// The rationale text survives an evict → fault-in round trip byte for
/// byte, the last proposal's candidate count included.
TEST_F(StateCodecTest, ExplainQueryIdenticalAcrossEvictFaultIn) {
  std::map<uint64_t, sparksim::QueryPlan> plans;
  for (int q = 1; q <= 3; ++q) {
    const sparksim::QueryPlan plan = sparksim::TpchPlan(q);
    plans.emplace(plan.Signature(), plan);
  }

  ModelStore store(store_dir_);
  TuningService service(space_, nullptr, FastOptions(), 17);
  StateTierOptions tier;
  tier.shared_budget_bytes = size_t{1} << 30;
  tier.state_budget_fraction = 1.0;
  tier.plan_resolver = [&plans](uint64_t signature) {
    auto it = plans.find(signature);
    return it == plans.end() ? nullptr : &it->second;
  };
  service.AttachStateTier(&store, tier);

  for (int round = 0; round < 12; ++round) {
    for (const auto& [signature, plan] : plans) {
      const sparksim::ConfigVector c = service.OnQueryStart(plan, 1e9);
      service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1e9, 55.0 - round));
    }
  }
  std::map<uint64_t, std::string> before;
  for (const auto& [signature, plan] : plans) {
    Result<std::string> text = service.ExplainQuery(signature);
    ASSERT_TRUE(text.ok());
    EXPECT_NE(text->find("8 candidates scored"), std::string::npos) << *text;
    before[signature] = *text;
  }
  ASSERT_EQ(service.StateTierStats().evictions, 0u);

  // A one-byte budget drains every resident state to its artifact.
  service.SetSharedBudgetBytes(1);
  const TierStats evicted = service.StateTierStats();
  ASSERT_EQ(evicted.resident_signatures, 0u);
  ASSERT_GE(evicted.evictions, plans.size());

  for (const auto& [signature, plan] : plans) {
    Result<std::string> text = service.ExplainQuery(signature);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, before[signature]);
  }
  EXPECT_GE(service.StateTierStats().faultins,
            evicted.faultins + plans.size());
}

}  // namespace
}  // namespace rockhopper::core
