#include "core/find_gradient.h"

#include <gtest/gtest.h>

#include "core/find_best.h"
#include "sparksim/synthetic.h"

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

class FindGradientTest : public ::testing::Test {
 protected:
  // A window sampled around `center` with runtimes from `f`, optional noise.
  ObservationWindow SampleWindow(const sparksim::SyntheticFunction& f,
                                 const sparksim::ConfigVector& center,
                                 int n, double noise_fl, uint64_t seed) {
    common::Rng rng(seed);
    sparksim::NoiseParams noise{noise_fl, 0.0};
    ObservationWindow w;
    for (int i = 0; i < n; ++i) {
      const sparksim::ConfigVector c =
          f.space().SampleNeighbor(center, 0.25, &rng);
      w.push_back(Obs(c, 1.0, f.Observe(c, 1.0, noise, &rng)));
    }
    return w;
  }
};

TEST_F(FindGradientTest, RequiresTwoObservations) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  ObservationWindow w = {Obs(space.Defaults(), 1.0, 1.0)};
  EXPECT_FALSE(FindGradient(space, w, GradientMethod::kLinearSign,
                            space.Defaults(), 1.0, 0.2)
                   .ok());
}

TEST_F(FindGradientTest, LinearSignPointsDownhill) {
  // Center the window well above the optimum in every dimension: runtime
  // increases with each config, so Delta should be all +1 (shrink).
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigVector high = f.space().Denormalize({0.95, 0.95, 0.95});
  const ObservationWindow w = SampleWindow(f, high, 20, 0.0, 1);
  Result<GradientSigns> delta = FindGradient(
      f.space(), w, GradientMethod::kLinearSign, high, 1.0, 0.2);
  ASSERT_TRUE(delta.ok());
  for (size_t i = 0; i < delta->size(); ++i) {
    EXPECT_EQ((*delta)[i], 1) << "dim " << i;
  }
}

TEST_F(FindGradientTest, LinearSignFlipsBelowOptimum) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigVector low = f.space().Denormalize({0.05, 0.05, 0.05});
  const ObservationWindow w = SampleWindow(f, low, 20, 0.0, 2);
  Result<GradientSigns> delta = FindGradient(
      f.space(), w, GradientMethod::kLinearSign, low, 1.0, 0.2);
  ASSERT_TRUE(delta.ok());
  for (size_t i = 0; i < delta->size(); ++i) {
    EXPECT_EQ((*delta)[i], -1) << "dim " << i;
  }
}

TEST_F(FindGradientTest, LinearSignSurvivesHeavyNoiseWithLargeN) {
  // The paper's de-noising claim: with N = 20 the sign estimate holds even
  // under FL = 1 fluctuation noise (majority across seeds).
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigVector high = f.space().Denormalize({0.9, 0.9, 0.9});
  int correct = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const ObservationWindow w = SampleWindow(f, high, 20, 1.0, 100 + t);
    Result<GradientSigns> delta = FindGradient(
        f.space(), w, GradientMethod::kLinearSign, high, 1.0, 0.2);
    ASSERT_TRUE(delta.ok());
    if ((*delta)[0] == 1) ++correct;  // the most impactful dimension
  }
  // A clear majority of windows recover the right sign; single-observation
  // comparisons (hill-climbing, FLOW2) are coin flips at this noise level.
  EXPECT_GE(correct, trials * 6 / 10);
}

TEST_F(FindGradientTest, ModelSignMatchesLinearOnMonotoneRegion) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigVector high = f.space().Denormalize({0.9, 0.9, 0.9});
  const ObservationWindow w = SampleWindow(f, high, 25, 0.0, 3);
  Result<GradientSigns> model_delta = FindGradient(
      f.space(), w, GradientMethod::kModelSign, high, 1.0, 0.2);
  ASSERT_TRUE(model_delta.ok());
  // Downhill means shrinking the over-sized configs: all +1.
  EXPECT_EQ((*model_delta)[0], 1);
}

TEST_F(FindGradientTest, ModelSignReturnsFullSignVector) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const ObservationWindow w =
      SampleWindow(f, f.space().Defaults(), 15, 0.0, 4);
  Result<GradientSigns> delta =
      FindGradient(f.space(), w, GradientMethod::kModelSign,
                   f.space().Defaults(), 1.0, 0.2);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->size(), 3u);
  for (int s : *delta) {
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(UpdateCentroidTest, MultiplicativeMovesAgainstGradient) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::ConfigVector c = space.Defaults();
  // Delta=+1 on a log dim shrinks it; -1 grows it; 0 leaves it.
  const sparksim::ConfigVector next =
      UpdateCentroid(space, c, {1, -1, 0}, 0.25, /*multiplicative=*/true);
  EXPECT_LT(next[0], c[0]);
  EXPECT_GT(next[1], c[1]);
  EXPECT_DOUBLE_EQ(next[2], c[2]);
}

TEST(UpdateCentroidTest, AdditiveWorksInNormalizedSpace) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::ConfigVector c = space.Defaults();
  const sparksim::ConfigVector next =
      UpdateCentroid(space, c, {1, 1, 1}, 0.1, /*multiplicative=*/false);
  const std::vector<double> before = space.Normalize(c);
  const std::vector<double> after = space.Normalize(next);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(after[i], before[i] - 0.1, 0.02);  // integer-rounding slack
  }
}

TEST(UpdateCentroidTest, ResultAlwaysInRange) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  // Huge alpha pushes past the boundary; clamp must hold.
  sparksim::ConfigVector edge = space.Denormalize({0.01, 0.99, 0.5});
  const sparksim::ConfigVector next =
      UpdateCentroid(space, edge, {1, -1, 1}, 5.0, true);
  EXPECT_TRUE(space.Validate(next).ok());
}

// Centroid Learning fits the window model once and hands it to FIND_BEST
// and FIND_GRADIENT; that must pick the same c* and the same signs as the
// standalone calls, which each fit their own model.
TEST_F(FindGradientTest, SharedWindowModelMatchesStandaloneCalls) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(100 + seed);
    ObservationWindow w;
    const sparksim::ConfigVector center = space.Sample(&rng);
    for (int i = 0; i < 18; ++i) {
      const sparksim::ConfigVector c = space.SampleNeighbor(center, 0.3, &rng);
      const double p = rng.Uniform(0.5, 3.0);
      w.push_back(Obs(c, p, f.Observe(c, p, sparksim::NoiseParams::High(),
                                      &rng)));
    }
    const double reference = rng.Uniform(0.5, 3.0);
    const double alpha = 0.1;
    Result<Observation> standalone_best =
        FindBest(space, w, FindBestVersion::kModelPredicted, reference);
    ASSERT_TRUE(standalone_best.ok());
    Result<GradientSigns> standalone_gradient =
        FindGradient(space, w, GradientMethod::kModelSign,
                     standalone_best->config, reference, alpha);
    ASSERT_TRUE(standalone_gradient.ok());

    const FeaturedCopy rows(space, w);
    WindowModel model(&space);
    ASSERT_TRUE(model.FitFeatures(rows.view()).ok());
    Result<size_t> shared_best = FindBestIndex(
        rows.view(), FindBestVersion::kModelPredicted, reference, &model);
    ASSERT_TRUE(shared_best.ok());
    EXPECT_EQ(w[*shared_best].config, standalone_best->config);
    EXPECT_EQ(w[*shared_best].runtime, standalone_best->runtime);
    Result<GradientSigns> shared_gradient =
        FindGradient(space, rows.view(), GradientMethod::kModelSign,
                     w[*shared_best].config, reference, alpha, &model);
    ASSERT_TRUE(shared_gradient.ok());
    EXPECT_EQ(*shared_gradient, *standalone_gradient);

    // Without a model (a failed fit) FIND_BEST falls back to v2 and the
    // model-sign gradient reports the failure.
    Result<size_t> fallback = FindBestIndex(
        rows.view(), FindBestVersion::kModelPredicted, reference, nullptr);
    Result<Observation> normalized =
        FindBest(space, w, FindBestVersion::kNormalized, reference);
    ASSERT_TRUE(fallback.ok() && normalized.ok());
    EXPECT_EQ(w[*fallback].config, normalized->config);
    EXPECT_FALSE(FindGradient(space, rows.view(), GradientMethod::kModelSign,
                              w[*fallback].config, reference, alpha, nullptr)
                     .ok());
  }
}

}  // namespace
}  // namespace rockhopper::core
