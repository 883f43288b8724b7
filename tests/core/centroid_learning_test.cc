#include "core/centroid_learning.h"

#include <gtest/gtest.h>

#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "common/archive.h"
#include "sparksim/synthetic.h"

namespace rockhopper::core {
namespace {

class CentroidLearningTest : public ::testing::Test {
 protected:
  sparksim::SyntheticFunction function_ =
      sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space_ = function_.space();

  std::unique_ptr<CentroidLearner> MakeLearner(
      int pseudo_level, CentroidLearningOptions options,
      sparksim::ConfigVector start, uint64_t seed) {
    return std::make_unique<CentroidLearner>(
        space_, std::move(start),
        std::make_unique<PseudoSurrogateScorer>(&function_, pseudo_level),
        options, seed);
  }

  // Runs `iters` iterations against the synthetic function and returns the
  // final true performance of the centroid.
  double RunLoop(CentroidLearner* learner, int iters,
                 const sparksim::NoiseParams& noise, uint64_t seed) {
    common::Rng rng(seed);
    for (int t = 0; t < iters; ++t) {
      const sparksim::ConfigVector c = learner->Propose(1.0);
      learner->Observe(c, 1.0, function_.Observe(c, 1.0, noise, &rng));
    }
    return function_.TruePerformance(learner->centroid(), 1.0);
  }
};

TEST_F(CentroidLearningTest, ProposalsStayInNeighborhoodOfCentroid) {
  CentroidLearningOptions options;
  options.beta = 0.1;
  auto learner = MakeLearner(1, options, space_.Defaults(), 1);
  const sparksim::ConfigVector proposal = learner->Propose(1.0);
  EXPECT_TRUE(space_.Validate(proposal).ok());
  const std::vector<double> c0 = space_.Normalize(learner->centroid());
  const std::vector<double> p = space_.Normalize(proposal);
  // beta = 0.1 in log space: proposals within exp(0.1) of centroid
  // multiplicatively, i.e. bounded normalized distance.
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(p[i], c0[i], 0.1);
  }
}

/// Records every candidate set SelectBest receives and keeps candidate 0.
class RecordingScorer : public CandidateScorer {
 public:
  explicit RecordingScorer(
      std::vector<std::vector<sparksim::ConfigVector>>* seen)
      : seen_(seen) {}

  void Update(FeaturedWindow history) override { (void)history; }
  size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                    double data_size, double best_observed) override {
    (void)data_size;
    (void)best_observed;
    seen_->push_back(candidates);
    return 0;
  }
  std::string name() const override { return "recording"; }

 private:
  std::vector<std::vector<sparksim::ConfigVector>>* seen_;
};

TEST_F(CentroidLearningTest, CandidateZeroIsCentroid) {
  CentroidLearningOptions options;
  std::vector<std::vector<sparksim::ConfigVector>> seen;
  CentroidLearner learner(space_, space_.Defaults(),
                          std::make_unique<RecordingScorer>(&seen), options,
                          2);
  EXPECT_EQ(learner.last_candidate_count(), 0u);
  common::Rng rng(2);
  for (int t = 0; t < 5; ++t) {
    const sparksim::ConfigVector centroid = learner.centroid();
    const sparksim::ConfigVector proposal = learner.Propose(1.0);
    ASSERT_EQ(seen.size(), static_cast<size_t>(t + 1));
    ASSERT_EQ(seen.back().size(),
              static_cast<size_t>(options.num_candidates));
    EXPECT_EQ(seen.back()[0], centroid) << "proposal " << t;
    EXPECT_EQ(proposal, centroid) << "proposal " << t;
    EXPECT_EQ(learner.last_candidate_count(),
              static_cast<size_t>(options.num_candidates));
    learner.Observe(proposal, 1.0,
                    function_.Observe(proposal, 1.0,
                                      sparksim::NoiseParams::None(), &rng));
  }
}

TEST_F(CentroidLearningTest, ConvergesNoiselessFromBadStart) {
  CentroidLearningOptions options;
  auto learner =
      MakeLearner(1, options, space_.Denormalize({0.95, 0.95, 0.95}), 3);
  const double final_perf =
      RunLoop(learner.get(), 120, sparksim::NoiseParams::None(), 3);
  const double start_perf = function_.TruePerformance(
      space_.Denormalize({0.95, 0.95, 0.95}), 1.0);
  const double optimal = function_.OptimalPerformance(1.0);
  // Most of the optimality gap must be closed.
  EXPECT_LT(final_perf - optimal, 0.25 * (start_perf - optimal));
}

TEST_F(CentroidLearningTest, ConvergesUnderHighNoise) {
  // The headline claim (Fig. 9c): even a Level-5 surrogate converges under
  // FL = SL = 1 noise. Median over several seeded runs, as in the paper's
  // repeated-run methodology.
  std::vector<double> finals;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    CentroidLearningOptions options;
    options.window_size = 20;
    auto learner = MakeLearner(5, options,
                               space_.Denormalize({0.9, 0.9, 0.9}), 40 + seed);
    finals.push_back(
        RunLoop(learner.get(), 250, sparksim::NoiseParams::High(), 80 + seed));
  }
  std::sort(finals.begin(), finals.end());
  const double median = finals[finals.size() / 2];
  const double start_perf =
      function_.TruePerformance(space_.Denormalize({0.9, 0.9, 0.9}), 1.0);
  const double optimal = function_.OptimalPerformance(1.0);
  EXPECT_LT(median - optimal, 0.5 * (start_perf - optimal));
}

TEST_F(CentroidLearningTest, WindowIsBounded) {
  CentroidLearningOptions options;
  options.window_size = 10;
  auto learner = MakeLearner(1, options, space_.Defaults(), 5);
  RunLoop(learner.get(), 30, sparksim::NoiseParams::None(), 5);
  EXPECT_EQ(learner->history().size(), 10u);
  EXPECT_EQ(learner->iteration(), 30);
}

TEST_F(CentroidLearningTest, GradientExposedAfterUpdates) {
  auto learner = MakeLearner(1, {}, space_.Defaults(), 6);
  EXPECT_TRUE(learner->last_gradient().empty());
  RunLoop(learner.get(), 5, sparksim::NoiseParams::None(), 6);
  EXPECT_EQ(learner->last_gradient().size(), space_.size());
}

TEST_F(CentroidLearningTest, RestrictedExplorationLimitsRegression) {
  // The guardrail property of §4.3: starting from a good configuration,
  // no executed candidate should be drastically worse than the start —
  // unlike global-search BO. beta bounds the step.
  CentroidLearningOptions options;
  options.beta = 0.15;
  auto learner = MakeLearner(5, options, function_.optimum(), 7);
  common::Rng rng(7);
  const double start_perf = function_.OptimalPerformance(1.0);
  double worst = 0.0;
  for (int t = 0; t < 60; ++t) {
    const sparksim::ConfigVector c = learner->Propose(1.0);
    worst = std::max(worst, function_.TruePerformance(c, 1.0));
    learner->Observe(
        c, 1.0, function_.Observe(c, 1.0, sparksim::NoiseParams::Low(), &rng));
  }
  // True performance of any executed config stays within 2.5x of optimal
  // (global random search would routinely exceed this on this function).
  EXPECT_LT(worst, 2.5 * start_perf);
}

TEST_F(CentroidLearningTest, UpdateEveryKDefersCentroidMoves) {
  CentroidLearningOptions options;
  options.update_every = 5;
  auto learner =
      MakeLearner(1, options, space_.Denormalize({0.8, 0.8, 0.8}), 8);
  common::Rng rng(8);
  const sparksim::ConfigVector before = learner->centroid();
  for (int t = 0; t < 4; ++t) {
    const sparksim::ConfigVector c = learner->Propose(1.0);
    learner->Observe(c, 1.0, function_.TruePerformance(c, 1.0));
  }
  EXPECT_EQ(learner->centroid(), before);  // not yet
  const sparksim::ConfigVector c = learner->Propose(1.0);
  learner->Observe(c, 1.0, function_.TruePerformance(c, 1.0));
  EXPECT_NE(learner->centroid(), before);  // 5th observation triggers update
}

TEST_F(CentroidLearningTest, LinearGradientVariantAlsoConverges) {
  CentroidLearningOptions options;
  options.gradient_method = GradientMethod::kLinearSign;
  options.find_best_version = FindBestVersion::kNormalized;
  auto learner =
      MakeLearner(3, options, space_.Denormalize({0.9, 0.9, 0.9}), 9);
  const double final_perf =
      RunLoop(learner.get(), 150, sparksim::NoiseParams::Low(), 9);
  const double start_perf =
      function_.TruePerformance(space_.Denormalize({0.9, 0.9, 0.9}), 1.0);
  EXPECT_LT(final_perf, start_perf);
}

// Pins the GP-free Centroid Learning trajectory bit for bit: the window
// model, FIND_BEST and FIND_GRADIENT must keep moving the centroid to
// exactly these values (hexfloat literals): the final centroid, then the
// running sum of every centroid along the way. Data sizes vary so the
// log-data-size feature takes part in every fit.
TEST_F(CentroidLearningTest, PseudoSurrogateTrajectoryIsPinned) {
  struct Case {
    FindBestVersion find_best;
    GradientMethod gradient;
    int window_size;
    int elite_size;
    std::vector<double> expected;  // final centroid, then trajectory sum
  };
  const std::vector<Case> cases = {
      {FindBestVersion::kModelPredicted, GradientMethod::kModelSign, 15, 3,
       {0x1.545accp+22, 0x1.5459ep+19, 0x1.2cp+8,
        0x1.0c56b7e5p+32}},
      {FindBestVersion::kModelPredicted, GradientMethod::kModelSign, 10, 0,
       {0x1.7a2d638p+25, 0x1.66ab44p+22, 0x1.d24p+10,
        0x1.92e703ecp+31}},
      {FindBestVersion::kNormalized, GradientMethod::kLinearSign, 15, 3,
       {0x1.809bfcap+27, 0x1.a487p+17, 0x1.01p+8,
        0x1.81b918cc8p+33}},
  };
  for (const Case& c : cases) {
    CentroidLearningOptions options;
    options.find_best_version = c.find_best;
    options.gradient_method = c.gradient;
    options.window_size = c.window_size;
    options.elite_size = c.elite_size;
    auto learner =
        MakeLearner(5, options, space_.Denormalize({0.8, 0.2, 0.7}), 11);
    common::Rng rng(12);
    double trajectory_sum = 0.0;
    for (int t = 0; t < 60; ++t) {
      const double data_size = 0.5 + 0.25 * static_cast<double>(t % 7);
      const sparksim::ConfigVector config = learner->Propose(data_size);
      learner->Observe(config, data_size,
                       function_.Observe(config, data_size,
                                         sparksim::NoiseParams::High(), &rng));
      for (double v : learner->centroid()) trajectory_sum += v;
    }
    std::vector<double> actual = learner->centroid();
    actual.push_back(trajectory_sum);
    ASSERT_EQ(actual.size(), c.expected.size());
    for (size_t i = 0; i < c.expected.size(); ++i) {
      EXPECT_EQ(actual[i], c.expected[i]) << std::hexfloat << actual[i];
    }
  }
}

// Save/Load once the history ring has wrapped and the GP surrogate is
// between refits of its sliding window: the restored learner (features
// recomputed, ring rebuilt oldest-first) must continue bit-identically.
TEST_F(CentroidLearningTest, SaveLoadWithWrappedRingIsBitIdentical) {
  const auto make = [this] {
    return std::make_unique<CentroidLearner>(
        space_, space_.Denormalize({0.8, 0.3, 0.6}),
        std::make_unique<SurrogateScorer>(space_, nullptr,
                                          std::vector<double>{}),
        CentroidLearningOptions{}, 21);
  };
  auto original = make();
  common::Rng rng(22);
  const auto step = [&](CentroidLearner* learner, int t) {
    const double data_size = 0.5 + 0.25 * static_cast<double>(t % 5);
    const sparksim::ConfigVector c = learner->Propose(data_size);
    learner->Observe(c, data_size,
                     function_.Observe(c, data_size,
                                       sparksim::NoiseParams::High(), &rng));
    return c;
  };
  for (int t = 0; t < 37; ++t) step(original.get(), t);  // 15-row ring wraps
  common::ArchiveWriter writer;
  ASSERT_TRUE(original->Save("cl", &writer).ok());
  Result<common::ArchiveReader> reader =
      common::ArchiveReader::Parse(writer.Finish());
  ASSERT_TRUE(reader.ok());
  auto restored = make();
  ASSERT_TRUE(restored->Load("cl", *reader).ok());
  EXPECT_EQ(restored->history().size(), 15u);
  EXPECT_EQ(restored->ApproxBytes(), original->ApproxBytes());
  for (int t = 37; t < 60; ++t) {
    common::Rng saved = rng;
    const sparksim::ConfigVector a = step(original.get(), t);
    rng = saved;  // both learners see the same runtime
    const sparksim::ConfigVector b = step(restored.get(), t);
    ASSERT_EQ(a, b) << "proposal diverged at round " << t;
    ASSERT_EQ(original->centroid(), restored->centroid()) << "round " << t;
  }
}

TEST_F(CentroidLearningTest, NameIsStable) {
  auto learner = MakeLearner(1, {}, space_.Defaults(), 10);
  EXPECT_EQ(learner->name(), "centroid-learning");
}

}  // namespace
}  // namespace rockhopper::core
