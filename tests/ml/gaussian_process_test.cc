#include "ml/gaussian_process.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/archive.h"
#include "common/rng.h"

namespace rockhopper::ml {
namespace {

GaussianProcessOptions LowNoiseOptions() {
  GaussianProcessOptions options;
  options.noise_variance = 1e-4;
  return options;
}

TEST(GaussianProcessTest, InterpolatesTrainingPointsAtLowNoise) {
  Dataset d;
  for (int i = 0; i <= 10; ++i) {
    const double x = i / 10.0;
    d.Add({x}, std::sin(4.0 * x));
  }
  GaussianProcessRegressor gp(LowNoiseOptions());
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_TRUE(gp.is_fitted());
  for (int i = 0; i <= 10; ++i) {
    const double x = i / 10.0;
    EXPECT_NEAR(gp.Predict({x}), std::sin(4.0 * x), 0.05);
  }
}

TEST(GaussianProcessTest, UncertaintyGrowsAwayFromData) {
  Dataset d;
  for (int i = 0; i <= 8; ++i) d.Add({i / 8.0}, 1.0 + 0.1 * i);
  GaussianProcessRegressor gp(LowNoiseOptions());
  ASSERT_TRUE(gp.Fit(d).ok());
  const Prediction at_data = gp.PredictWithUncertainty({0.5});
  const Prediction far = gp.PredictWithUncertainty({30.0});
  EXPECT_LT(at_data.stddev, far.stddev);
}

TEST(GaussianProcessTest, RevertsToPriorFarFromData) {
  Dataset d;
  for (int i = 0; i < 6; ++i) d.Add({i * 0.1}, 100.0);
  GaussianProcessRegressor gp(LowNoiseOptions());
  ASSERT_TRUE(gp.Fit(d).ok());
  // Far away, the standardized posterior mean reverts toward the target
  // mean (100 here since targets are constant).
  EXPECT_NEAR(gp.Predict({1000.0}), 100.0, 1.0);
}

TEST(GaussianProcessTest, LengthscaleSelectionPrefersDataFit) {
  // Rapidly varying function: the marginal likelihood should not pick the
  // largest lengthscale on the grid.
  Dataset d;
  common::Rng rng(1);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(0, 1);
    d.Add({x}, std::sin(20.0 * x));
  }
  GaussianProcessOptions options;
  options.noise_variance = 1e-3;
  options.lengthscale_grid = {0.05, 8.0};
  GaussianProcessRegressor gp(options);
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_DOUBLE_EQ(gp.selected_lengthscale(), 0.05);
}

TEST(GaussianProcessTest, LogMarginalLikelihoodIsFinite) {
  Dataset d;
  for (int i = 0; i < 10; ++i) d.Add({i * 0.2}, i % 3);
  GaussianProcessRegressor gp;
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
}

TEST(GaussianProcessTest, NoisyTargetsDoNotBreakFit) {
  common::Rng rng(2);
  Dataset d;
  for (int i = 0; i < 50; ++i) {
    const double x = rng.Uniform(0, 1);
    d.Add({x}, 10.0 * x + std::fabs(rng.Normal(0.0, 5.0)));
  }
  GaussianProcessRegressor gp;  // default noise_variance 0.1
  ASSERT_TRUE(gp.Fit(d).ok());
  // The trend should survive the noise.
  EXPECT_GT(gp.Predict({0.9}), gp.Predict({0.1}));
}

TEST(GaussianProcessTest, RejectsEmptyData) {
  GaussianProcessRegressor gp;
  EXPECT_FALSE(gp.Fit(Dataset{}).ok());
  EXPECT_FALSE(gp.is_fitted());
}

TEST(GaussianProcessTest, RefitReplacesState) {
  Dataset d1;
  for (int i = 0; i < 6; ++i) d1.Add({i * 0.1}, 0.0);
  Dataset d2;
  for (int i = 0; i < 6; ++i) d2.Add({i * 0.1}, 50.0);
  GaussianProcessRegressor gp(LowNoiseOptions());
  ASSERT_TRUE(gp.Fit(d1).ok());
  ASSERT_TRUE(gp.Fit(d2).ok());
  EXPECT_NEAR(gp.Predict({0.3}), 50.0, 1.0);
}

TEST(GaussianProcessTest, Matern52KernelFitsAndPredicts) {
  GaussianProcessOptions options;
  options.kernel = GpKernelKind::kMatern52;
  options.noise_variance = 1e-4;
  Dataset d;
  for (int i = 0; i <= 12; ++i) {
    const double x = i / 12.0;
    d.Add({x}, 3.0 * x * x);
  }
  GaussianProcessRegressor gp(options);
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_NEAR(gp.Predict({0.5}), 0.75, 0.1);
  EXPECT_GT(gp.PredictWithUncertainty({10.0}).stddev,
            gp.PredictWithUncertainty({0.5}).stddev);
}

TEST(GaussianProcessTest, KernelChoiceChangesPosterior) {
  Dataset d;
  common::Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const double x = rng.Uniform(0, 1);
    d.Add({x}, std::sin(8.0 * x));
  }
  GaussianProcessOptions rbf;
  rbf.noise_variance = 1e-3;
  GaussianProcessOptions matern = rbf;
  matern.kernel = GpKernelKind::kMatern52;
  GaussianProcessRegressor gp_rbf(rbf), gp_matern(matern);
  ASSERT_TRUE(gp_rbf.Fit(d).ok());
  ASSERT_TRUE(gp_matern.Fit(d).ok());
  // Same data, different priors: posteriors must differ somewhere.
  bool differs = false;
  for (int i = 0; i <= 10 && !differs; ++i) {
    differs = std::fabs(gp_rbf.Predict({i / 10.0}) -
                        gp_matern.Predict({i / 10.0})) > 1e-6;
  }
  EXPECT_TRUE(differs);
}

// --- incremental engine equivalence -----------------------------------

// Synthetic observation stream shared by the equivalence tests.
Dataset NoisyStream(int n, common::Rng* rng) {
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double a = rng->Uniform(0, 1);
    const double b = rng->Uniform(0, 1);
    d.Add({a, b}, std::sin(3.0 * a) + 2.0 * b + rng->Uniform(-0.1, 0.1));
  }
  return d;
}

TEST(GaussianProcessIncrementalTest, AppendMatchesFullFactorization) {
  // The O(n^2) Cholesky row-append must reproduce the O(n^3) ground-truth
  // factorization of the same training set under the same frozen
  // hyperparameters to tight tolerance.
  common::Rng rng(11);
  Dataset d = NoisyStream(30, &rng);
  GaussianProcessOptions options;
  options.refit_interval = 0;       // incremental only
  options.min_incremental_rows = 0; // engage the append path immediately
  options.scaler_drift_zscore = 0.0;
  GaussianProcessRegressor gp(options);
  ASSERT_TRUE(gp.Fit(d).ok());

  common::Rng probe_rng(12);
  Dataset more = NoisyStream(20, &probe_rng);
  for (size_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE(gp.Update(more.x[i], more.y[i]).ok());
  }
  EXPECT_EQ(gp.num_training_rows(), 50u);
  EXPECT_GT(gp.updates_since_refit(), 0);

  // Snapshot incremental predictions, then rebuild the factorization from
  // scratch and compare.
  std::vector<Prediction> incremental;
  std::vector<std::vector<double>> probes;
  common::Rng q_rng(13);
  for (int i = 0; i < 32; ++i) {
    probes.push_back({q_rng.Uniform(0, 1), q_rng.Uniform(0, 1)});
    incremental.push_back(gp.PredictWithUncertainty(probes.back()));
  }
  const double lml_incremental = gp.log_marginal_likelihood();
  ASSERT_TRUE(gp.ForceFullFactorization().ok());
  EXPECT_NEAR(gp.log_marginal_likelihood(), lml_incremental,
              1e-9 * std::abs(lml_incremental) + 1e-9);
  for (size_t i = 0; i < probes.size(); ++i) {
    const Prediction full = gp.PredictWithUncertainty(probes[i]);
    EXPECT_NEAR(incremental[i].mean, full.mean,
                1e-9 * std::abs(full.mean) + 1e-9);
    EXPECT_NEAR(incremental[i].stddev, full.stddev,
                1e-9 * std::abs(full.stddev) + 1e-9);
  }
}

TEST(GaussianProcessIncrementalTest, EveryUpdateRefitEqualsFreshFit) {
  // refit_interval = 1 is the legacy per-observation behavior: feeding a
  // stream through Update() must land in exactly the state of one fresh
  // Fit() on the final window.
  common::Rng rng(21);
  Dataset d = NoisyStream(25, &rng);
  GaussianProcessOptions options;
  options.refit_interval = 1;
  GaussianProcessRegressor via_update(options);
  for (size_t i = 0; i < d.size(); ++i) {
    (void)via_update.Update(d.x[i], d.y[i]);
  }
  ASSERT_TRUE(via_update.is_fitted());
  GaussianProcessRegressor via_fit(options);
  ASSERT_TRUE(via_fit.Fit(d).ok());
  EXPECT_DOUBLE_EQ(via_update.log_marginal_likelihood(),
                   via_fit.log_marginal_likelihood());
  EXPECT_DOUBLE_EQ(via_update.selected_lengthscale(),
                   via_fit.selected_lengthscale());
  common::Rng q_rng(22);
  for (int i = 0; i < 16; ++i) {
    const std::vector<double> q = {q_rng.Uniform(0, 1), q_rng.Uniform(0, 1)};
    const Prediction a = via_update.PredictWithUncertainty(q);
    const Prediction b = via_fit.PredictWithUncertainty(q);
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  }
}

TEST(GaussianProcessIncrementalTest, WindowSlideKeepsLastRows) {
  common::Rng rng(31);
  Dataset d = NoisyStream(10, &rng);
  GaussianProcessOptions options;
  options.max_rows = 10;
  options.refit_interval = 1;
  options.min_incremental_rows = 0;
  GaussianProcessRegressor gp(options);
  ASSERT_TRUE(gp.Fit(d).ok());
  // Push 5 more rows: the window must stay at 10, holding the last 10
  // observations. With refit_interval = 1 every slide refits, so each one
  // lands exactly on a fresh fit of those rows.
  common::Rng more_rng(32);
  Dataset more = NoisyStream(5, &more_rng);
  Dataset last = d;
  common::Rng q_rng(33);
  for (size_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE(gp.Update(more.x[i], more.y[i]).ok());
    EXPECT_EQ(gp.num_training_rows(), 10u);
    last.Add(more.x[i], more.y[i]);
    last.TruncateToLast(10);
    GaussianProcessRegressor fresh(options);
    ASSERT_TRUE(fresh.Fit(last).ok());
    for (int q = 0; q < 8; ++q) {
      const std::vector<double> x = {q_rng.Uniform(0, 1), q_rng.Uniform(0, 1)};
      const Prediction a = gp.PredictWithUncertainty(x);
      const Prediction b = fresh.PredictWithUncertainty(x);
      EXPECT_EQ(a.mean, b.mean);
      EXPECT_EQ(a.stddev, b.stddev);
    }
  }
}

// The production shape of the surrogate: a 15-row window (below
// min_incremental_rows, so the growth phase refits) that then slides. Each
// slide is a rank-1 update plus a row-append of the factor; after hundreds
// of them the posterior must still match the O(n^3) factorization of the
// same window at the same hyperparameters.
TEST(GaussianProcessIncrementalTest, SlidesMatchFullFactorization) {
  GaussianProcessOptions options;
  options.max_rows = 15;
  options.refit_interval = 0;         // hyperparameters stay fixed
  options.scaler_drift_zscore = 0.0;  // so does the scaling
  GaussianProcessRegressor gp(options);
  common::Rng rng(51);
  const auto row = [&rng] {
    return std::vector<double>{rng.Uniform(0, 1), rng.Uniform(0, 1),
                               rng.Uniform(0, 1), rng.Uniform(0, 1)};
  };
  for (int i = 0; i < 15; ++i) {
    const std::vector<double> x = row();
    ASSERT_TRUE(gp.Update(x, std::sin(3.0 * x[0]) + x[1] * x[2]).ok());
  }
  common::Matrix probes;
  for (int i = 0; i < 32; ++i) probes.AppendRow(row());
  for (int slide = 1; slide <= 250; ++slide) {
    const std::vector<double> x = row();
    ASSERT_TRUE(
        gp.Update(x, std::sin(3.0 * x[0]) + x[1] * x[2] +
                         rng.Uniform(-0.1, 0.1))
            .ok());
    ASSERT_EQ(gp.num_training_rows(), 15u);
    ASSERT_EQ(gp.updates_since_refit(), slide);  // never a full refit
    if (slide % 50 != 0) continue;
    GaussianProcessRegressor full = gp;
    ASSERT_TRUE(full.ForceFullFactorization().ok());
    const std::vector<Prediction> a = gp.PredictBatch(probes);
    const std::vector<Prediction> b = full.PredictBatch(probes);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].mean, b[i].mean, 1e-9);
      EXPECT_NEAR(a[i].stddev * a[i].stddev, b[i].stddev * b[i].stddev,
                  1e-9);
    }
    EXPECT_NEAR(gp.log_marginal_likelihood(), full.log_marginal_likelihood(),
                1e-9 * std::abs(full.log_marginal_likelihood()));
  }
}

// A caller-driven slide (drop_oldest) and a max_rows-driven one are the same
// step.
TEST(GaussianProcessIncrementalTest, CallerSlideEqualsMaxRowsSlide) {
  GaussianProcessOptions capped;
  capped.max_rows = 12;
  GaussianProcessOptions uncapped;
  GaussianProcessRegressor by_cap(capped), by_caller(uncapped);
  common::Rng rng(61);
  Dataset d = NoisyStream(60, &rng);
  for (size_t i = 0; i < d.size(); ++i) {
    ASSERT_TRUE(by_cap.Update(d.x[i], d.y[i]).ok());
    ASSERT_TRUE(by_caller.Update(d.x[i], d.y[i], /*drop_oldest=*/i >= 12).ok());
  }
  EXPECT_EQ(by_caller.num_training_rows(), 12u);
  common::Rng q_rng(62);
  for (int q = 0; q < 8; ++q) {
    const std::vector<double> x = {q_rng.Uniform(0, 1), q_rng.Uniform(0, 1)};
    const Prediction a = by_cap.PredictWithUncertainty(x);
    const Prediction b = by_caller.PredictWithUncertainty(x);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
  }
}

// Evicting a sliding GP mid-stream and faulting it back in must not perturb
// anything that follows.
TEST(GaussianProcessIncrementalTest, SaveLoadMidSlideIsBitIdentical) {
  GaussianProcessOptions options;
  options.max_rows = 15;
  GaussianProcessRegressor gp(options);
  common::Rng rng(71);
  Dataset d = NoisyStream(160, &rng);
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(gp.Update(d.x[i], d.y[i]).ok());
  ASSERT_GT(gp.updates_since_refit(), 0);  // mid-way between refits
  common::ArchiveWriter writer;
  ASSERT_TRUE(gp.Save("gp", &writer).ok());
  Result<common::ArchiveReader> reader =
      common::ArchiveReader::Parse(writer.Finish());
  ASSERT_TRUE(reader.ok());
  GaussianProcessRegressor loaded(options);
  ASSERT_TRUE(loaded.Load("gp", *reader).ok());
  common::Matrix probes;
  common::Rng q_rng(72);
  for (int i = 0; i < 16; ++i) {
    probes.AppendRow(std::vector<double>{q_rng.Uniform(0, 1),
                                         q_rng.Uniform(0, 1)});
  }
  for (size_t i = 100; i < d.size(); ++i) {
    ASSERT_TRUE(gp.Update(d.x[i], d.y[i]).ok());
    ASSERT_TRUE(loaded.Update(d.x[i], d.y[i]).ok());
    EXPECT_EQ(gp.updates_since_refit(), loaded.updates_since_refit());
    EXPECT_EQ(gp.log_marginal_likelihood(), loaded.log_marginal_likelihood());
    const std::vector<Prediction> a = gp.PredictBatch(probes);
    const std::vector<Prediction> b = loaded.PredictBatch(probes);
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].mean, b[j].mean);
      EXPECT_EQ(a[j].stddev, b[j].stddev);
    }
  }
}

TEST(GaussianProcessIncrementalTest, UpdateBootstrapsWithoutPriorFit) {
  // Update() on a never-fitted GP accumulates rows and fits from scratch;
  // no separate "initial Fit" call is required by the observe loop.
  GaussianProcessRegressor gp;
  common::Rng rng(41);
  ASSERT_TRUE(gp.Update(std::vector<double>{rng.Uniform(0, 1)}, 1.0).ok());
  EXPECT_TRUE(gp.is_fitted());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        gp.Update(std::vector<double>{rng.Uniform(0, 1)}, rng.Uniform(0, 1))
            .ok());
  }
  EXPECT_EQ(gp.num_training_rows(), 6u);
}

TEST(GaussianProcessIncrementalTest, RejectsWidthMismatch) {
  common::Rng rng(51);
  Dataset d = NoisyStream(10, &rng);
  GaussianProcessRegressor gp;
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_FALSE(gp.Update(std::vector<double>{1.0}, 0.5).ok());
  EXPECT_TRUE(gp.is_fitted());  // failed update keeps the fit
}

TEST(GaussianProcessBatchTest, PredictBatchMatchesPerCandidate) {
  common::Rng rng(61);
  Dataset d = NoisyStream(40, &rng);
  GaussianProcessRegressor gp;
  ASSERT_TRUE(gp.Fit(d).ok());
  std::vector<std::vector<double>> pool;
  common::Rng q_rng(62);
  for (int i = 0; i < 64; ++i) {
    pool.push_back({q_rng.Uniform(-0.5, 1.5), q_rng.Uniform(-0.5, 1.5)});
  }
  const std::vector<Prediction> batch = gp.PredictBatch(pool);
  ASSERT_EQ(batch.size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const Prediction one = gp.PredictWithUncertainty(pool[i]);
    EXPECT_NEAR(batch[i].mean, one.mean, 1e-9 * std::abs(one.mean) + 1e-9);
    EXPECT_NEAR(batch[i].stddev, one.stddev,
                1e-9 * std::abs(one.stddev) + 1e-9);
  }
  EXPECT_TRUE(gp.PredictBatch(std::vector<std::vector<double>>{}).empty());
}

TEST(GaussianProcessBatchTest, BatchAfterIncrementalUpdates) {
  // The batched path must agree with the per-candidate path on the state
  // produced by incremental updates, not just fresh fits.
  common::Rng rng(71);
  Dataset d = NoisyStream(20, &rng);
  GaussianProcessOptions options;
  options.refit_interval = 0;
  options.min_incremental_rows = 0;
  options.scaler_drift_zscore = 0.0;
  GaussianProcessRegressor gp(options);
  ASSERT_TRUE(gp.Fit(d).ok());
  common::Rng more_rng(72);
  Dataset more = NoisyStream(10, &more_rng);
  for (size_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE(gp.Update(more.x[i], more.y[i]).ok());
  }
  std::vector<std::vector<double>> pool;
  common::Rng q_rng(73);
  for (int i = 0; i < 16; ++i) {
    pool.push_back({q_rng.Uniform(0, 1), q_rng.Uniform(0, 1)});
  }
  const std::vector<Prediction> batch = gp.PredictBatch(pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    // The batch path uses the vectorized kernel transform, which is within
    // ~1e-13 of the scalar kernel; the pinned equivalence bound is 1e-9.
    const Prediction one = gp.PredictWithUncertainty(pool[i]);
    EXPECT_NEAR(batch[i].mean, one.mean, 1e-9 * std::abs(one.mean) + 1e-12);
    EXPECT_NEAR(batch[i].stddev, one.stddev, 1e-9 * one.stddev + 1e-12);
  }
}

TEST(GaussianProcessTest, MultiDimensionalInputs) {
  common::Rng rng(3);
  Dataset d;
  for (int i = 0; i < 60; ++i) {
    const double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    d.Add({a, b}, a + 2.0 * b);
  }
  GaussianProcessRegressor gp(LowNoiseOptions());
  ASSERT_TRUE(gp.Fit(d).ok());
  EXPECT_NEAR(gp.Predict({0.5, 0.5}), 1.5, 0.1);
  EXPECT_GT(gp.Predict({0.5, 0.9}), gp.Predict({0.5, 0.1}));
}

}  // namespace
}  // namespace rockhopper::ml
