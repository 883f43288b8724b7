#ifndef ROCKHOPPER_ML_GAUSSIAN_PROCESS_H_
#define ROCKHOPPER_ML_GAUSSIAN_PROCESS_H_

#include <span>
#include <vector>

#include "common/matrix.h"
#include "ml/kernel.h"
#include "ml/model.h"
#include "ml/scaler.h"

namespace rockhopper::ml {

/// Kernel families supported by the Gaussian process surrogate.
enum class GpKernelKind {
  kRbf,       ///< squared-exponential: very smooth posterior means
  kMatern52,  ///< rougher; often a better prior for runtime surfaces
};

/// Hyperparameters of the Gaussian process surrogate.
struct GaussianProcessOptions {
  GpKernelKind kernel = GpKernelKind::kRbf;
  /// Candidate lengthscales tried during Fit; the one maximizing the log
  /// marginal likelihood wins. Leave a single element to skip selection.
  std::vector<double> lengthscale_grid = {0.25, 0.5, 1.0, 2.0, 4.0};
  /// Observation noise variance added to the kernel diagonal (in standardized
  /// target units). Production runtimes are extremely noisy, so the default
  /// is deliberately large.
  double noise_variance = 0.1;
  /// Signal variance of the kernel (standardized targets => near 1).
  double signal_variance = 1.0;

  // --- incremental-observe policy (Update) ---
  /// Every this many Update() calls the feature scaler and lengthscale grid
  /// are refit from scratch; between refits Update() appends (and, on a
  /// window slide, first removes) one row of the Cholesky factor in O(n^2)
  /// under the frozen hyperparameters. The target scaler is refit on every
  /// Update(): the factor does not depend on the targets. 1 refits on every
  /// observation (the legacy per-observation behavior); <= 0 disables
  /// periodic refits entirely (only scaler drift and a failed append still
  /// trigger refits).
  int refit_interval = 8;
  /// While the training window *grows* and holds fewer than this many rows,
  /// Update() refits fully: O(n^3) is cheap at small n and hyperparameter
  /// freshness matters most early, when each observation reshapes the
  /// scalers and lengthscale. A window slide keeps the row count, so it is
  /// not growth and takes the O(n^2) path at any size. 0 engages the
  /// incremental path immediately.
  size_t min_incremental_rows = 20;
  /// Sliding-window cap on training rows retained across Update() calls;
  /// 0 = unbounded. An Update() that would exceed it drops the oldest row
  /// in the same O(n^2) step as Update(..., drop_oldest = true).
  size_t max_rows = 0;
  /// Full refit when a new observation lands more than this many standard
  /// deviations outside the frozen scalers' view of the data (either in a
  /// feature or in the target); guards the incremental path against scaler
  /// staleness. <= 0 disables the check.
  double scaler_drift_zscore = 4.0;
};

/// Exact Gaussian-process regression with an RBF or Matern-5/2 kernel, the
/// surrogate model of the vanilla Bayesian Optimization baseline (paper
/// §4.1, Fig. 2) and of Centroid Learning's SurrogateScorer.
///
/// Inputs and targets are standardized internally; predictions are returned
/// in original units. The engine is built for the per-observation service
/// loop:
///   - Fit() computes the pairwise squared-distance matrix once and reuses
///     it across the entire lengthscale grid (both kernels are distance
///     kernels), keeping the winning factorization — one O(n^2 * d) distance
///     pass plus one O(n^3) Cholesky per grid point, with no duplicate
///     final fit.
///   - Update() appends one observation in O(n^2) (Cholesky row-append and
///     a pair of triangular solves) while the feature scaler and
///     lengthscale stay frozen; a sliding window first drops its oldest
///     row by a rank-1 update of the trailing factor, also O(n^2). It
///     refits fully per the policy knobs above.
///   - PredictBatch() scores a whole candidate pool through one cross-kernel
///     matrix and a multi-right-hand-side triangular solve.
/// Fit cost is O(n^3): callers with long observation histories should window
/// them (Dataset::TruncateToLast or GaussianProcessOptions::max_rows).
class GaussianProcessRegressor : public ProbabilisticRegressor {
 public:
  explicit GaussianProcessRegressor(GaussianProcessOptions options = {})
      : options_(std::move(options)) {}

  Status Fit(const Dataset& data) override;

  /// Incrementally absorbs one observation (the hot observe path). With
  /// `drop_oldest` (a caller's own sliding window) or when max_rows would be
  /// exceeded, the oldest row leaves the window in the same step. Both slide
  /// and append are exact O(n^2) factor updates under the current feature
  /// scaler and lengthscale, escalating to a full internal refit on the policy
  /// triggers (growth below min_incremental_rows, refit cadence, scaler
  /// drift, append failure). Before the first successful fit this
  /// accumulates rows and retries the full fit.
  Status Update(std::span<const double> features, double target,
                bool drop_oldest = false);

  double Predict(const std::vector<double>& features) const override;
  Prediction PredictWithUncertainty(
      const std::vector<double>& features) const override;

  /// Scores a whole candidate pool at once; rows of `queries` are feature
  /// rows in original units. Numerically equivalent to calling
  /// PredictWithUncertainty per row, but the triangular solve streams all
  /// candidates together.
  std::vector<Prediction> PredictBatch(const common::Matrix& queries) const;
  std::vector<Prediction> PredictBatch(
      const std::vector<std::vector<double>>& queries) const;

  bool is_fitted() const override { return fitted_; }

  /// Rebuilds the kernel matrix from the current (standardized) training
  /// set and refactorizes it from scratch under the current hyperparameters
  /// — the O(n^3) ground truth the O(n^2) Update() path must match. Scalers
  /// and lengthscale are left untouched. Exposed so equivalence tests and
  /// audits can pin the incremental state against the full factorization.
  Status ForceFullFactorization();

  /// Persists the complete regressor state — scalers, raw and standardized
  /// training windows, the Cholesky factor, the weight vector, the selected
  /// lengthscale and the refit-policy position — under `prefix`. A Load into
  /// a regressor constructed with the same options reproduces Predict /
  /// PredictBatch / Update bit-identically (hexfloat round-trip), which is
  /// what lets the tiered state layer evict and fault tuners back in without
  /// perturbing proposals.
  Status Save(const std::string& prefix, common::ArchiveWriter* writer) const;
  Status Load(const std::string& prefix, const common::ArchiveReader& reader);

  /// Approximate resident footprint in bytes (training windows, factor,
  /// weights); the eviction tier's accounting unit.
  size_t ApproxBytes() const;

  /// Log marginal likelihood of the selected hyperparameters on the
  /// (standardized) training data.
  double log_marginal_likelihood() const { return log_marginal_likelihood_; }
  double selected_lengthscale() const { return lengthscale_; }
  /// Rows currently in the training window.
  size_t num_training_rows() const { return raw_y_.size(); }
  /// Incremental updates absorbed since the last full refit (policy probe).
  int updates_since_refit() const { return updates_since_refit_; }

 private:
  double KernelFromD2(double d2) const;
  /// Full refit (scalers + lengthscale grid + factorization) from the
  /// retained raw training window.
  Status FitFromRaw();
  /// Refits the target scaler on the raw window and re-standardizes it.
  void StandardizeTargets();
  void AppendRaw(std::span<const double> features, double target);
  void RecomputeLogMarginalLikelihood();

  GaussianProcessOptions options_;
  bool fitted_ = false;
  double lengthscale_ = 1.0;
  StandardScaler x_scaler_;
  TargetScaler y_scaler_;
  common::Matrix raw_x_;             // training window, original units
  std::vector<double> raw_y_;
  common::Matrix train_x_;           // standardized features, flat row-major
  std::vector<double> train_y_std_;  // standardized targets
  common::Matrix chol_;              // L with L L^T = K + noise I
  std::vector<double> alpha_;        // (K + noise I)^{-1} y
  double log_marginal_likelihood_ = 0.0;
  int updates_since_refit_ = 0;
};

}  // namespace rockhopper::ml

#endif  // ROCKHOPPER_ML_GAUSSIAN_PROCESS_H_
