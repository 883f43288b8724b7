#include "core/window_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>

#include "ml/linear_regression.h"
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

TEST(WindowFeaturesTest, NormalizedConfigPlusLogSize) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::vector<double> f =
      WindowFeatures(space, space.Defaults(), 100.0);
  ASSERT_EQ(f.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(f[i], 0.0);
    EXPECT_LE(f[i], 1.0);
  }
  EXPECT_NEAR(f[3], std::log1p(100.0), 1e-12);
}

TEST(WindowModelTest, RejectsEmptyWindow) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  WindowModel model(&space);
  EXPECT_FALSE(model.Fit({}).ok());
  EXPECT_FALSE(model.is_fitted());
}

TEST(WindowModelTest, LearnsBowlFromCleanWindow) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  common::Rng rng(1);
  ObservationWindow window;
  for (int i = 0; i < 20; ++i) {
    const sparksim::ConfigVector c = space.Sample(&rng);
    window.push_back(Obs(c, 1.0, f.TruePerformance(c, 1.0)));
  }
  WindowModel model(&space);
  ASSERT_TRUE(model.Fit(window).ok());
  // The model should rank the optimum below a far corner.
  sparksim::ConfigVector corner = space.Denormalize({1.0, 1.0, 1.0});
  EXPECT_LT(model.Predict(f.optimum(), 1.0), model.Predict(corner, 1.0));
}

TEST(WindowModelTest, SeparatesDataSizeFromConfigEffect) {
  // Runtime = 100 * p regardless of config: predictions at fixed p must be
  // ~constant across configs.
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  common::Rng rng(2);
  ObservationWindow window;
  for (int i = 0; i < 25; ++i) {
    const double p = rng.Uniform(0.5, 4.0);
    window.push_back(Obs(space.Sample(&rng), p, 100.0 * p));
  }
  WindowModel model(&space);
  ASSERT_TRUE(model.Fit(window).ok());
  const double a = model.Predict(space.Defaults(), 2.0);
  const double b = model.Predict(space.Sample(&rng), 2.0);
  EXPECT_NEAR(a, b, 0.35 * std::max(std::fabs(a), 1.0));
}

TEST(WindowModelTest, SinglePointWindowStillFits) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  WindowModel model(&space);
  ASSERT_TRUE(model.Fit({Obs(space.Defaults(), 1.0, 5.0)}).ok());
  EXPECT_NEAR(model.Predict(space.Defaults(), 1.0), 5.0, 0.5);
}

// Pins the fit and the predictions bit for bit (hexfloat literals): the
// summation order of the centered quadratic ridge is part of the tuner's
// reproducible trajectory.
TEST(WindowModelTest, PredictionsArePinned) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  common::Rng rng(7);
  ObservationWindow window;
  for (int i = 0; i < 18; ++i) {
    window.push_back(Obs(space.Sample(&rng), rng.Uniform(0.5, 4.0),
                         rng.Uniform(10.0, 200.0)));
  }
  WindowModel model(&space);
  ASSERT_TRUE(model.Fit(window).ok());
  const std::vector<double> expected = {
      0x1.497e378f91318p+6, 0x1.3f45dc855a538p+6, 0x1.28570a2743a16p+7,
      0x1.a0f7cd1149238p+6, 0x1.875626c026bd7p+6};
  for (size_t i = 0; i < expected.size(); ++i) {
    const double pred = model.Predict(window[i].config, 1.5);
    EXPECT_EQ(pred, expected[i]) << std::hexfloat << pred;
  }
}

// The reference the flat ridge must match bit for bit: a quadratic
// ml::QuadraticRegression fitted on the centered WindowFeatures of the
// window, with standardized log-runtime targets.
TEST(WindowModelTest, MatchesQuadraticRegressionReference) {
  for (const sparksim::ConfigSpace& space :
       {sparksim::QueryLevelSpace(), sparksim::JointSpace()}) {
    common::Rng rng(9);
    for (int trial = 0; trial < 20; ++trial) {
      ObservationWindow window;
      const int n = 1 + static_cast<int>(rng.Index(25));
      for (int i = 0; i < n; ++i) {
        window.push_back(Obs(space.Sample(&rng), rng.Uniform(0.1, 8.0),
                             rng.Uniform(1.0, 500.0)));
      }
      std::vector<double> targets;
      for (const Observation& obs : window) {
        targets.push_back(std::log1p(obs.runtime));
      }
      ml::TargetScaler y_scaler;
      y_scaler.Fit(targets);
      std::vector<std::vector<double>> rows;
      for (const Observation& obs : window) {
        rows.push_back(WindowFeatures(space, obs.config, obs.data_size));
      }
      std::vector<double> mean(rows[0].size(), 0.0);
      for (const auto& row : rows) {
        for (size_t j = 0; j < row.size(); ++j) mean[j] += row[j];
      }
      for (double& m : mean) m /= static_cast<double>(rows.size());
      ml::Dataset data;
      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = 0; j < mean.size(); ++j) rows[i][j] -= mean[j];
        data.Add(rows[i], y_scaler.Transform(targets[i]));
      }
      ml::QuadraticRegression reference(/*l2=*/0.05);
      ASSERT_TRUE(reference.Fit(data).ok());

      WindowModel model(&space);
      ASSERT_TRUE(model.Fit(window).ok());
      for (int q = 0; q < 5; ++q) {
        const sparksim::ConfigVector config = space.Sample(&rng);
        const double size = rng.Uniform(0.1, 8.0);
        std::vector<double> f = WindowFeatures(space, config, size);
        for (size_t j = 0; j < f.size(); ++j) f[j] -= mean[j];
        const double expected = std::expm1(std::min(
            700.0,
            std::max(0.0, y_scaler.InverseTransform(reference.Predict(f)))));
        EXPECT_EQ(model.Predict(config, size), expected);
      }
    }
  }
}

}  // namespace
}  // namespace rockhopper::core
