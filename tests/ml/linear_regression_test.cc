#include "ml/linear_regression.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rockhopper::ml {
namespace {

Dataset LinearData(double w0, double w1, double intercept, double noise_sd,
                   int n, common::Rng* rng) {
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng->Uniform(-2, 2);
    const double x1 = rng->Uniform(-2, 2);
    // A zero-stddev normal_distribution is undefined behaviour (it aborts
    // under _GLIBCXX_ASSERTIONS), so noiseless data draws no noise at all.
    const double noise = noise_sd > 0.0 ? rng->Normal(0.0, noise_sd) : 0.0;
    d.Add({x0, x1}, intercept + w0 * x0 + w1 * x1 + noise);
  }
  return d;
}

TEST(LinearRegressionTest, RecoversExactCoefficients) {
  common::Rng rng(1);
  Dataset d = LinearData(2.5, -1.5, 4.0, 0.0, 40, &rng);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_TRUE(model.is_fitted());
  EXPECT_NEAR(model.coefficients()[0], 2.5, 1e-8);
  EXPECT_NEAR(model.coefficients()[1], -1.5, 1e-8);
  EXPECT_NEAR(model.intercept(), 4.0, 1e-8);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 5.0, 1e-8);
}

TEST(LinearRegressionTest, RobustToModerateNoise) {
  common::Rng rng(2);
  Dataset d = LinearData(3.0, 0.5, -1.0, 0.2, 500, &rng);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.coefficients()[0], 3.0, 0.1);
  EXPECT_NEAR(model.coefficients()[1], 0.5, 0.1);
}

TEST(LinearRegressionTest, CoefficientSignsSurviveHeavyNoise) {
  // The FIND_GRADIENT use case: only the signs need to be right.
  common::Rng rng(3);
  Dataset d = LinearData(2.0, -2.0, 10.0, 2.0, 300, &rng);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_GT(model.coefficients()[0], 0.0);
  EXPECT_LT(model.coefficients()[1], 0.0);
}

TEST(LinearRegressionTest, RidgeShrinksTowardZero) {
  common::Rng rng(4);
  Dataset d = LinearData(5.0, 0.0, 0.0, 0.0, 50, &rng);
  LinearRegression ols(0.0);
  LinearRegression ridge(50.0);
  ASSERT_TRUE(ols.Fit(d).ok());
  ASSERT_TRUE(ridge.Fit(d).ok());
  EXPECT_GT(ols.coefficients()[0], ridge.coefficients()[0]);
  EXPECT_GT(ridge.coefficients()[0], 0.0);
}

TEST(LinearRegressionTest, RidgeInterceptIsNotPenalized) {
  // A pure-intercept dataset: heavy ridge must still recover the mean.
  Dataset d;
  for (int i = 0; i < 10; ++i) d.Add({static_cast<double>(i % 2)}, 100.0);
  LinearRegression ridge(1000.0);
  ASSERT_TRUE(ridge.Fit(d).ok());
  EXPECT_NEAR(ridge.Predict({0.5}), 100.0, 1e-6);
}

TEST(LinearRegressionTest, RejectsEmptyData) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
  EXPECT_FALSE(model.is_fitted());
}

TEST(LinearRegressionTest, UnderdeterminedStillPredictsTrainingPoints) {
  // More features than rows: jitter makes it solvable; predictions at the
  // training points must match.
  Dataset d;
  d.Add({1.0, 0.0, 0.0}, 1.0);
  d.Add({0.0, 1.0, 0.0}, 2.0);
  LinearRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.Predict({1.0, 0.0, 0.0}), 1.0, 1e-3);
  EXPECT_NEAR(model.Predict({0.0, 1.0, 0.0}), 2.0, 1e-3);
}

TEST(QuadraticFeaturesTest, ExpandsWithPairwiseProducts) {
  const std::vector<double> f = QuadraticFeatures({2.0, 3.0});
  // [x0, x1, x0^2, x0*x1, x1^2]
  ASSERT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
  EXPECT_DOUBLE_EQ(f[2], 4.0);
  EXPECT_DOUBLE_EQ(f[3], 6.0);
  EXPECT_DOUBLE_EQ(f[4], 9.0);
}

TEST(QuadraticRegressionTest, FitsConvexBowl) {
  // y = (x0 - 1)^2 + 2*(x1 + 0.5)^2.
  common::Rng rng(5);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.Uniform(-2, 2);
    const double x1 = rng.Uniform(-2, 2);
    d.Add({x0, x1}, (x0 - 1) * (x0 - 1) + 2 * (x1 + 0.5) * (x1 + 0.5));
  }
  QuadraticRegression model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.Predict({1.0, -0.5}), 0.0, 1e-4);
  EXPECT_NEAR(model.Predict({2.0, -0.5}), 1.0, 1e-4);
  // The bowl's minimum location is preserved: the center predicts lower
  // than points around it.
  EXPECT_LT(model.Predict({1.0, -0.5}), model.Predict({0.0, 0.0}));
}

TEST(QuadraticExpandTest, PreservesTargets) {
  Dataset d;
  d.Add({1.0, 2.0}, 7.0);
  Dataset q = QuadraticExpand(d);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.num_features(), 5u);
  EXPECT_DOUBLE_EQ(q.y[0], 7.0);
}

}  // namespace
}  // namespace rockhopper::ml
