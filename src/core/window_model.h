#ifndef ROCKHOPPER_CORE_WINDOW_MODEL_H_
#define ROCKHOPPER_CORE_WINDOW_MODEL_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/observation.h"
#include "ml/scaler.h"
#include "sparksim/config_space.h"

namespace rockhopper::core {

/// Feature row used by the local models of Centroid Learning: the
/// configuration in normalized ([0, 1], log-geometry-aware) coordinates,
/// followed by SizeFeature(data size). Excluding raw byte counts keeps the
/// tiny window regressions well conditioned.
std::vector<double> WindowFeatures(const sparksim::ConfigSpace& space,
                                   const sparksim::ConfigVector& config,
                                   double data_size);

/// The last entry of a WindowFeatures row: log1p(data size).
inline double SizeFeature(double data_size) {
  return std::log1p(std::max(0.0, data_size));
}

/// An observation with its WindowFeatures row, computed once when the
/// observation entered a Centroid Learning window.
struct FeaturedObservation {
  Observation obs;
  std::vector<double> features;
};

/// A window of featured observations in window order (oldest first). The
/// rows live in the caller's storage (CL's ring of recent observations and
/// its elite list), so building a view copies pointers, not observations.
using FeaturedWindow = std::span<const FeaturedObservation* const>;

/// A featured copy of a plain ObservationWindow, for callers that hold one
/// (the ObservationWindow overloads, tests, tools). Not copyable: the view
/// points into its own rows.
class FeaturedCopy {
 public:
  FeaturedCopy(const sparksim::ConfigSpace& space,
               const ObservationWindow& window);
  FeaturedCopy(const FeaturedCopy&) = delete;
  FeaturedCopy& operator=(const FeaturedCopy&) = delete;

  FeaturedWindow view() const { return pointers_; }

 private:
  std::vector<FeaturedObservation> rows_;
  std::vector<const FeaturedObservation*> pointers_;
};

/// The local model H(c, p) of Eq. (4): a regression fitted on one
/// observation window, able to predict runtime for any (config, data size)
/// pair near the window. Backed by a quadratic ridge surface — expressive
/// enough to bend with the convex runtime bowls, stable on N = 10-20 rows.
///
/// Targets are standardized internally and the ridge penalty is applied on
/// that scale: a 15-observation window fits ~15 quadratic coefficients, so
/// without real shrinkage the surface would memorize the production noise
/// instead of the local trend (exactly what FIND_GRADIENT must not do).
///
/// The fit runs on the window's cached feature rows and on per-thread
/// scratch buffers, and prediction expands the quadratic terms on the fly,
/// so a steady-state fit or prediction allocates nothing. Both keep the
/// summation order of ml::QuadraticRegression's ridge path, so results are
/// bit-identical to fitting that model on the centered features.
class WindowModel {
 public:
  explicit WindowModel(const sparksim::ConfigSpace* space) : space_(space) {}

  /// Fits on the window; fails when the window is empty.
  Status Fit(const ObservationWindow& window);
  /// Fit on a featured window's cached rows.
  Status FitFeatures(FeaturedWindow window);

  bool is_fitted() const { return fitted_; }

  /// Predicted runtime H(config, data_size).
  double Predict(const sparksim::ConfigVector& config, double data_size) const;

  /// Predicted runtime from a normalized config (the leading entries of a
  /// WindowFeatures row; a trailing size entry is ignored) and a
  /// SizeFeature value.
  double PredictFeatures(std::span<const double> unit_config,
                         double size_feature) const;

 private:
  const sparksim::ConfigSpace* space_;
  bool fitted_ = false;
  ml::TargetScaler y_scaler_;
  std::vector<double> feature_mean_;
  /// Ridge slopes over the quadratic expansion of the centered features,
  /// in ml::QuadraticFeatures order.
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_WINDOW_MODEL_H_
