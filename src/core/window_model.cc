#include "core/window_model.h"

#include <cmath>

#include "common/matrix.h"

namespace rockhopper::core {

namespace {

constexpr double kRidgeL2 = 0.05;

// Buffers of one ridge fit, kept per thread so that steady-state fits
// reuse them instead of allocating.
struct RidgeScratch {
  std::vector<double> targets;  // n log-runtimes
  std::vector<double> design;   // n x p centered quadratic rows
  std::vector<double> y;        // n standardized, then centered, targets
  std::vector<double> xmean;    // p column means of the expansion
  std::vector<double> gram;     // p x p, lower triangle
  std::vector<double> chol;     // p x p
};

RidgeScratch& Scratch() {
  thread_local RidgeScratch scratch;
  return scratch;
}

}  // namespace

std::vector<double> WindowFeatures(const sparksim::ConfigSpace& space,
                                   const sparksim::ConfigVector& config,
                                   double data_size) {
  std::vector<double> features = space.Normalize(config);
  features.push_back(SizeFeature(data_size));
  return features;
}

FeaturedCopy::FeaturedCopy(const sparksim::ConfigSpace& space,
                           const ObservationWindow& window) {
  rows_.reserve(window.size());
  pointers_.reserve(window.size());
  for (const Observation& obs : window) {
    rows_.push_back({obs, WindowFeatures(space, obs.config, obs.data_size)});
    pointers_.push_back(&rows_.back());
  }
}

Status WindowModel::Fit(const ObservationWindow& window) {
  return FitFeatures(FeaturedCopy(*space_, window).view());
}

Status WindowModel::FitFeatures(FeaturedWindow window) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  fitted_ = false;
  RidgeScratch& s = Scratch();
  const size_t n = window.size();
  const size_t m = window[0]->features.size();
  const size_t p = m + m * (m + 1) / 2;
  // Production noise is multiplicative (Eq. 8): modelling log-runtime turns
  // it into additive noise of constant variance, so spikes stop dominating
  // the least-squares fit.
  s.targets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.targets[i] = std::log1p(std::max(0.0, window[i]->obs.runtime));
  }
  y_scaler_.Fit(s.targets);
  // Center features at the window mean before the quadratic expansion:
  // uncentered squares/products are nearly collinear with the linear terms
  // on a tight observation cloud, and the ridge would smear the local trend
  // across them.
  feature_mean_.assign(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) feature_mean_[j] += window[i]->features[j];
  }
  for (double& mean : feature_mean_) mean /= static_cast<double>(n);

  // Ridge regression with an unpenalized intercept: center the expansion
  // and the targets, solve (X^T X + l2 I) w = X^T y by Cholesky, recover the
  // intercept from the means.
  s.design.resize(n * p);
  s.y.resize(n);
  s.xmean.assign(p, 0.0);
  double ymean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& f = window[i]->features;
    double* row = s.design.data() + i * p;
    size_t k = 0;
    for (size_t a = 0; a < m; ++a) row[k++] = f[a] - feature_mean_[a];
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a; b < m; ++b) row[k++] = row[a] * row[b];
    }
    s.y[i] = y_scaler_.Transform(s.targets[i]);
    ymean += s.y[i];
    for (size_t j = 0; j < p; ++j) s.xmean[j] += row[j];
  }
  ymean /= static_cast<double>(n);
  for (double& mean : s.xmean) mean /= static_cast<double>(n);
  s.gram.assign(p * p, 0.0);
  coef_.assign(p, 0.0);  // X^T y, solved in place below
  for (size_t i = 0; i < n; ++i) {
    double* row = s.design.data() + i * p;
    for (size_t j = 0; j < p; ++j) row[j] -= s.xmean[j];
    s.y[i] -= ymean;
    for (size_t r = 0; r < p; ++r) {
      const double a = row[r];
      coef_[r] += a * s.y[i];
      if (a == 0.0) continue;
      double* gram_row = s.gram.data() + r * p;
      for (size_t c = 0; c <= r; ++c) gram_row[c] += a * row[c];
    }
  }
  for (size_t r = 0; r < p; ++r) s.gram[r * p + r] += kRidgeL2;
  // The implicit jitter keeps rank-deficient designs solvable; it is far
  // below the scale of any meaningful regularization.
  ROCKHOPPER_RETURN_IF_ERROR(
      common::CholeskyFactorInto(s.gram, p, /*jitter=*/1e-10, &s.chol));
  const double* l = s.chol.data();
  for (size_t i = 0; i < p; ++i) {
    double sum = coef_[i];
    for (size_t k = 0; k < i; ++k) sum -= l[i * p + k] * coef_[k];
    coef_[i] = sum / l[i * p + i];
  }
  for (size_t ii = p; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = coef_[i];
    for (size_t k = i + 1; k < p; ++k) sum -= l[k * p + i] * coef_[k];
    coef_[i] = sum / l[i * p + i];
  }
  intercept_ = ymean - common::Dot(coef_, s.xmean);
  fitted_ = true;
  return Status::OK();
}

double WindowModel::Predict(const sparksim::ConfigVector& config,
                            double data_size) const {
  return PredictFeatures(space_->Normalize(config), SizeFeature(data_size));
}

double WindowModel::PredictFeatures(std::span<const double> unit_config,
                                    double size_feature) const {
  const size_t m = feature_mean_.size();
  // The row is [unit_config..., size_feature]; quadratic terms are
  // expanded on the fly in ml::QuadraticFeatures order.
  const auto centered = [&](size_t j) {
    return (j + 1 < m ? unit_config[j] : size_feature) - feature_mean_[j];
  };
  double dot = 0.0;
  size_t k = 0;
  for (size_t a = 0; a < m; ++a) dot += coef_[k++] * centered(a);
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a; b < m; ++b) {
      dot += coef_[k++] * (centered(a) * centered(b));
    }
  }
  const double log_pred = y_scaler_.InverseTransform(intercept_ + dot);
  return std::expm1(std::min(700.0, std::max(0.0, log_pred)));
}

}  // namespace rockhopper::core
