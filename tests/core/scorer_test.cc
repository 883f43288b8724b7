#include "core/scorer.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "ml/svr.h"

namespace rockhopper::core {
namespace {

Observation Obs(const sparksim::ConfigVector& config, double data_size,
                double runtime) {
  Observation o;
  o.config = config;
  o.data_size = data_size;
  o.runtime = runtime;
  return o;
}

class ScorerTest : public ::testing::Test {
 protected:
  sparksim::SyntheticFunction function_ =
      sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space_ = function_.space();

  std::vector<sparksim::ConfigVector> SpreadCandidates(int n, uint64_t seed) {
    common::Rng rng(seed);
    std::vector<sparksim::ConfigVector> out;
    for (int i = 0; i < n; ++i) out.push_back(space_.Sample(&rng));
    return out;
  }
};

TEST_F(ScorerTest, PseudoLevel1PicksNearBest) {
  PseudoSurrogateScorer scorer(&function_, 1);
  const auto candidates = SpreadCandidates(40, 1);
  const size_t pick = scorer.SelectBest(candidates, 1.0, 1e18);
  // Rank the pick among candidates by true performance.
  const double picked_perf = function_.TruePerformance(candidates[pick], 1.0);
  int better = 0;
  for (const auto& c : candidates) {
    if (function_.TruePerformance(c, 1.0) < picked_perf) ++better;
  }
  EXPECT_NEAR(static_cast<double>(better) / candidates.size(), 0.1, 0.05);
}

TEST_F(ScorerTest, PseudoLevel9PicksNearWorst) {
  PseudoSurrogateScorer scorer(&function_, 9);
  const auto candidates = SpreadCandidates(40, 2);
  const size_t pick = scorer.SelectBest(candidates, 1.0, 1e18);
  const double picked_perf = function_.TruePerformance(candidates[pick], 1.0);
  int better = 0;
  for (const auto& c : candidates) {
    if (function_.TruePerformance(c, 1.0) < picked_perf) ++better;
  }
  EXPECT_GT(static_cast<double>(better) / candidates.size(), 0.75);
}

TEST_F(ScorerTest, PseudoNameEncodesLevel) {
  PseudoSurrogateScorer scorer(&function_, 5);
  EXPECT_EQ(scorer.name(), "pseudo-level-5");
}

TEST_F(ScorerTest, PseudoEmptyCandidatesSafe) {
  PseudoSurrogateScorer scorer(&function_, 3);
  EXPECT_EQ(scorer.SelectBest({}, 1.0, 0.0), 0u);
}

TEST_F(ScorerTest, RandomScorerStaysInBoundsAndVaries) {
  RandomScorer scorer(7);
  const auto candidates = SpreadCandidates(10, 3);
  std::set<size_t> picks;
  for (int i = 0; i < 50; ++i) {
    const size_t p = scorer.SelectBest(candidates, 1.0, 0.0);
    ASSERT_LT(p, candidates.size());
    picks.insert(p);
  }
  EXPECT_GT(picks.size(), 3u);
}

TEST_F(ScorerTest, SurrogateScorerLearnsFromHistory) {
  SurrogateScorer scorer(space_, nullptr, {}, {});
  // Feed a clean history over spread configs.
  common::Rng rng(4);
  ObservationWindow history;
  for (int i = 0; i < 30; ++i) {
    const sparksim::ConfigVector c = space_.Sample(&rng);
    history.push_back(Obs(c, 1.0, function_.TruePerformance(c, 1.0)));
    scorer.Update(FeaturedCopy(space_, history).view());
  }
  // Candidates: optimum vs a far corner; GP should prefer the optimum.
  std::vector<sparksim::ConfigVector> candidates = {
      space_.Denormalize({0.99, 0.99, 0.99}), function_.optimum()};
  const size_t pick = scorer.SelectBest(candidates, 1.0,
                                        function_.OptimalPerformance(1.0) * 2);
  EXPECT_EQ(pick, 1u);
}

TEST_F(ScorerTest, SurrogateScorerNoInfoReturnsFirstCandidate) {
  SurrogateScorer scorer(space_, nullptr, {}, {});
  const auto candidates = SpreadCandidates(5, 5);
  // No history, no baseline: candidate 0 (the centroid) is the sane pick.
  EXPECT_EQ(scorer.SelectBest(candidates, 1.0, 1e18), 0u);
}

TEST_F(ScorerTest, SurrogateScorerUsesBaselineBeforeHistoryExists) {
  // Warm start (§4.2): with zero query-specific observations, candidate
  // selection must be driven by the offline baseline model.
  BaselineModel baseline(space_);
  // Train the baseline to "know" the synthetic function: features come from
  // a fixed embedding, targets from the true surface.
  const std::vector<double> embedding(EmbeddingLength(EmbeddingOptions{}),
                                      1.0);
  ml::Dataset trace;
  common::Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    const sparksim::ConfigVector c = space_.Sample(&rng);
    trace.Add(baseline.Features(embedding, c, 1.0),
              function_.TruePerformance(c, 1.0));
  }
  ASSERT_TRUE(baseline.Fit(trace).ok());

  SurrogateScorer scorer(space_, &baseline, embedding, {});
  // No Update() calls: iteration-0 behaviour.
  std::vector<sparksim::ConfigVector> candidates = {
      space_.Denormalize({0.99, 0.99, 0.99}), function_.optimum(),
      space_.Denormalize({0.01, 0.01, 0.01})};
  EXPECT_EQ(scorer.SelectBest(candidates, 1.0, 1e18), 1u);
}

TEST_F(ScorerTest, RegressorScorerUsesSvr) {
  RegressorScorer scorer(space_, std::make_unique<ml::EpsilonSVR>(), "svr",
                         /*min_history=*/3);
  EXPECT_EQ(scorer.name(), "regressor-svr");
  common::Rng rng(6);
  ObservationWindow history;
  for (int i = 0; i < 25; ++i) {
    const sparksim::ConfigVector c = space_.Sample(&rng);
    history.push_back(Obs(c, 1.0, function_.TruePerformance(c, 1.0)));
  }
  scorer.Update(FeaturedCopy(space_, history).view());
  std::vector<sparksim::ConfigVector> candidates = {
      space_.Denormalize({0.99, 0.99, 0.99}), function_.optimum()};
  EXPECT_EQ(scorer.SelectBest(candidates, 1.0, 0.0), 1u);
}

TEST_F(ScorerTest, RegressorScorerBelowMinHistoryPicksFirst) {
  RegressorScorer scorer(space_, std::make_unique<ml::EpsilonSVR>(), "svr",
                         /*min_history=*/5);
  ObservationWindow tiny = {Obs(space_.Defaults(), 1.0, 10.0)};
  scorer.Update(FeaturedCopy(space_, tiny).view());
  const auto candidates = SpreadCandidates(4, 7);
  EXPECT_EQ(scorer.SelectBest(candidates, 1.0, 0.0), 0u);
}

}  // namespace
}  // namespace rockhopper::core
