#include "ml/gaussian_process.h"

#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <utility>

namespace rockhopper::ml {

namespace {

// Builds K = kernel(d2) + noise I for one lengthscale from the cached
// pairwise squared distances.
template <typename Kernel>
common::Matrix KernelFromDistances(const Kernel& kernel,
                                   const common::Matrix& d2,
                                   double noise_variance) {
  const size_t n = d2.rows();
  common::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = kernel.FromSquaredDistance(d2(i, j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  k.AddDiagonal(noise_variance);
  return k;
}

}  // namespace

double GaussianProcessRegressor::KernelFromD2(double d2) const {
  switch (options_.kernel) {
    case GpKernelKind::kRbf:
      return RbfKernel{lengthscale_, options_.signal_variance}
          .FromSquaredDistance(d2);
    case GpKernelKind::kMatern52:
      return Matern52Kernel{lengthscale_, options_.signal_variance}
          .FromSquaredDistance(d2);
  }
  return 0.0;
}

Status GaussianProcessRegressor::Fit(const Dataset& data) {
  ROCKHOPPER_RETURN_IF_ERROR(data.Validate());
  if (data.empty()) return Status::InvalidArgument("empty training data");
  raw_x_ = data.x;
  raw_y_ = data.y;
  if (options_.max_rows > 0 && raw_y_.size() > options_.max_rows) {
    const size_t drop = raw_y_.size() - options_.max_rows;
    raw_x_.DropFirstRows(drop);
    raw_y_.erase(raw_y_.begin(),
                 raw_y_.begin() + static_cast<ptrdiff_t>(drop));
  }
  return FitFromRaw();
}

Status GaussianProcessRegressor::FitFromRaw() {
  fitted_ = false;
  updates_since_refit_ = 0;
  if (raw_y_.empty()) return Status::InvalidArgument("empty training data");
  ROCKHOPPER_RETURN_IF_ERROR(x_scaler_.Fit(raw_x_));
  train_x_ = x_scaler_.TransformBatch(raw_x_);
  StandardizeTargets();

  // One O(n^2 * d) distance pass serves the entire lengthscale grid: both
  // kernels depend on the inputs only through ||a - b||^2.
  const common::Matrix d2 = PairwiseSquaredDistances(train_x_);
  const double n = static_cast<double>(raw_y_.size());
  const double norm_term = 0.5 * n * std::log(2.0 * std::numbers::pi);

  std::vector<double> grid = options_.lengthscale_grid;
  if (grid.empty()) grid = {1.0};
  bool any_ok = false;
  double best_lml = -std::numeric_limits<double>::infinity();
  double best_lengthscale = 1.0;
  common::Matrix best_chol(0, 0);
  std::vector<double> best_alpha;
  for (double ls : grid) {
    common::Matrix k(0, 0);
    switch (options_.kernel) {
      case GpKernelKind::kRbf:
        k = KernelFromDistances(RbfKernel{ls, options_.signal_variance}, d2,
                                options_.noise_variance);
        break;
      case GpKernelKind::kMatern52:
        k = KernelFromDistances(Matern52Kernel{ls, options_.signal_variance},
                                d2, options_.noise_variance);
        break;
    }
    auto l = common::CholeskyFactor(k, /*jitter=*/1e-8);
    if (!l.ok()) continue;
    const std::vector<double> z = common::ForwardSubstitute(*l, train_y_std_);
    std::vector<double> alpha = common::BackSubstituteTranspose(*l, z);
    // log p(y) = -1/2 y^T alpha - sum(log diag L) - n/2 log(2 pi)
    double log_det = 0.0;
    for (size_t i = 0; i < l->rows(); ++i) log_det += std::log((*l)(i, i));
    const double lml =
        -0.5 * common::Dot(train_y_std_, alpha) - log_det - norm_term;
    if (lml > best_lml) {
      best_lml = lml;
      best_lengthscale = ls;
      best_chol = std::move(*l);
      best_alpha = std::move(alpha);
      any_ok = true;
    }
  }
  if (!any_ok) return Status::Internal("GP fit failed for all lengthscales");
  lengthscale_ = best_lengthscale;
  chol_ = std::move(best_chol);
  alpha_ = std::move(best_alpha);
  log_marginal_likelihood_ = best_lml;
  fitted_ = true;
  return Status::OK();
}

void GaussianProcessRegressor::StandardizeTargets() {
  y_scaler_.Fit(raw_y_);
  train_y_std_.resize(raw_y_.size());
  for (size_t i = 0; i < raw_y_.size(); ++i) {
    train_y_std_[i] = y_scaler_.Transform(raw_y_[i]);
  }
}

void GaussianProcessRegressor::AppendRaw(std::span<const double> features,
                                         double target) {
  raw_x_.AppendRow(features);
  raw_y_.push_back(target);
}

Status GaussianProcessRegressor::Update(std::span<const double> features,
                                        double target, bool drop_oldest) {
  if (raw_x_.rows() > 0 && features.size() != raw_x_.cols()) {
    return Status::InvalidArgument("feature width mismatch in GP update");
  }
  AppendRaw(features, target);
  const bool slid =
      (drop_oldest && raw_y_.size() > 1) ||
      (options_.max_rows > 0 && raw_y_.size() > options_.max_rows);
  if (slid) {
    raw_x_.DropFirstRows(1);
    raw_y_.erase(raw_y_.begin());
  }
  // A missing fit leaves nothing to extend. A growing window below
  // min_incremental_rows refits fully: cheap, and hyperparameter freshness
  // matters most early. A slide keeps the window size, so it never counts
  // as growth.
  if (!fitted_ || (!slid && raw_y_.size() < options_.min_incremental_rows)) {
    return FitFromRaw();
  }
  ++updates_since_refit_;
  if (options_.refit_interval > 0 &&
      updates_since_refit_ >= options_.refit_interval) {
    return FitFromRaw();
  }
  const std::vector<double> xs = x_scaler_.Transform(features);
  if (options_.scaler_drift_zscore > 0.0) {
    const double z = options_.scaler_drift_zscore;
    bool drifted = std::abs(y_scaler_.Transform(target)) > z;
    for (size_t j = 0; !drifted && j < xs.size(); ++j) {
      drifted = std::abs(xs[j]) > z;
    }
    if (drifted) return FitFromRaw();
  }

  // Exact O(n^2) update of the factorization under the frozen feature
  // scaler and lengthscale: a row-append, or on a slide a rank-1 update
  // that removes the oldest row followed by the append, in place.
  const size_t first = slid ? 1 : 0;
  const size_t n = train_x_.rows();
  const std::span<const double> xs_span(xs);
  std::vector<double> row(n - first + 1);
  for (size_t i = first; i < n; ++i) {
    row[i - first] =
        KernelFromD2(common::SquaredDistance(train_x_[i], xs_span));
  }
  row.back() = KernelFromD2(0.0) + options_.noise_variance;
  const Status grown =
      slid ? common::CholeskySlide(&chol_, row, /*jitter=*/1e-8)
           : common::CholeskyAppendRow(&chol_, row, /*jitter=*/1e-8);
  if (!grown.ok()) return FitFromRaw();  // numerically degenerate row
  if (slid) train_x_.DropFirstRows(1);
  train_x_.AppendRow(xs_span);
  // The factor does not depend on the targets, so the target scaler is
  // refit on every update for O(n): a window whose runtimes drift keeps a
  // zero-mean, unit-variance target between hyperparameter refits.
  StandardizeTargets();
  const std::vector<double> z = common::ForwardSubstitute(chol_, train_y_std_);
  alpha_ = common::BackSubstituteTranspose(chol_, z);
  RecomputeLogMarginalLikelihood();
  return Status::OK();
}

Status GaussianProcessRegressor::ForceFullFactorization() {
  if (!fitted_) return Status::FailedPrecondition("GP not fitted");
  const common::Matrix d2 = PairwiseSquaredDistances(train_x_);
  const size_t n = d2.rows();
  common::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = KernelFromD2(d2(i, j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  k.AddDiagonal(options_.noise_variance);
  ROCKHOPPER_ASSIGN_OR_RETURN(l, common::CholeskyFactor(k, /*jitter=*/1e-8));
  chol_ = std::move(l);
  const std::vector<double> z = common::ForwardSubstitute(chol_, train_y_std_);
  alpha_ = common::BackSubstituteTranspose(chol_, z);
  RecomputeLogMarginalLikelihood();
  return Status::OK();
}

void GaussianProcessRegressor::RecomputeLogMarginalLikelihood() {
  double log_det = 0.0;
  for (size_t i = 0; i < chol_.rows(); ++i) log_det += std::log(chol_(i, i));
  const double n = static_cast<double>(train_y_std_.size());
  log_marginal_likelihood_ = -0.5 * common::Dot(train_y_std_, alpha_) -
                             log_det -
                             0.5 * n * std::log(2.0 * std::numbers::pi);
}

double GaussianProcessRegressor::Predict(
    const std::vector<double>& features) const {
  return PredictWithUncertainty(features).mean;
}

Prediction GaussianProcessRegressor::PredictWithUncertainty(
    const std::vector<double>& features) const {
  assert(fitted_);
  const std::vector<double> xs = x_scaler_.Transform(features);
  const std::span<const double> xs_span(xs);
  std::vector<double> kv(train_x_.rows());
  for (size_t i = 0; i < train_x_.rows(); ++i) {
    kv[i] = KernelFromD2(common::SquaredDistance(train_x_[i], xs_span));
  }
  const double mean_std = common::Dot(kv, alpha_);
  const std::vector<double> v = common::ForwardSubstitute(chol_, kv);
  double var = KernelFromD2(0.0) + options_.noise_variance - common::Dot(v, v);
  if (var < 0.0) var = 0.0;
  Prediction p;
  p.mean = y_scaler_.InverseTransform(mean_std);
  p.stddev = y_scaler_.InverseTransformStd(std::sqrt(var));
  return p;
}

std::vector<Prediction> GaussianProcessRegressor::PredictBatch(
    const common::Matrix& queries) const {
  assert(fitted_);
  std::vector<Prediction> out(queries.rows());
  if (queries.rows() == 0) return out;
  const common::Matrix q_std = x_scaler_.TransformBatch(queries);
  // n x m cross-kernel block, rows contiguous over the candidate pool so the
  // triangular solve streams all candidates per row.
  common::Matrix kstar = CrossSquaredDistances(train_x_, q_std);
  const size_t n = kstar.rows();
  const size_t m = kstar.cols();
  // One vectorized kernel transform over the contiguous n x m block, with the
  // kernel dispatch hoisted out of the element loop.
  const std::span<double> flat(kstar.MutableRowSpan(0).data(), n * m);
  switch (options_.kernel) {
    case GpKernelKind::kRbf:
      RbfKernel{lengthscale_, options_.signal_variance}
          .ApplyToSquaredDistances(flat);
      break;
    case GpKernelKind::kMatern52:
      Matern52Kernel{lengthscale_, options_.signal_variance}
          .ApplyToSquaredDistances(flat);
      break;
  }
  std::vector<double> mean_std(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double a = alpha_[i];
    const std::span<const double> row = kstar[i];
    for (size_t j = 0; j < m; ++j) mean_std[j] += row[j] * a;
  }
  const common::Matrix v = common::ForwardSubstituteMulti(chol_, kstar);
  const double prior = KernelFromD2(0.0) + options_.noise_variance;
  std::vector<double> vtv(m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const double> row = v[i];
    for (size_t j = 0; j < m; ++j) vtv[j] += row[j] * row[j];
  }
  for (size_t j = 0; j < m; ++j) {
    double var = prior - vtv[j];
    if (var < 0.0) var = 0.0;
    out[j].mean = y_scaler_.InverseTransform(mean_std[j]);
    out[j].stddev = y_scaler_.InverseTransformStd(std::sqrt(var));
  }
  return out;
}

std::vector<Prediction> GaussianProcessRegressor::PredictBatch(
    const std::vector<std::vector<double>>& queries) const {
  if (queries.empty()) return {};
  return PredictBatch(common::Matrix::FromRows(queries));
}

namespace {

// Matrices are archived as shape plus one flat hexfloat row — exact and
// column-count-preserving even for zero-row windows (a slid window keeps its
// width).
Status SaveMatrix(const std::string& key, const common::Matrix& m,
                  common::ArchiveWriter* writer) {
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(key + ".rows", static_cast<int64_t>(m.rows())));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(key + ".cols", static_cast<int64_t>(m.cols())));
  std::vector<double> flat;
  flat.reserve(m.rows() * m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const std::span<const double> row = m.RowSpan(r);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return writer->PutDoubles(key + ".data", flat);
}

Status LoadMatrix(const std::string& key, const common::ArchiveReader& reader,
                  common::Matrix* m) {
  ROCKHOPPER_ASSIGN_OR_RETURN(rows, reader.GetInt(key + ".rows"));
  ROCKHOPPER_ASSIGN_OR_RETURN(cols, reader.GetInt(key + ".cols"));
  ROCKHOPPER_ASSIGN_OR_RETURN(flat, reader.GetDoubles(key + ".data"));
  if (rows < 0 || cols < 0 ||
      flat.size() != static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    return Status::InvalidArgument("matrix shape mismatch in archive: " + key);
  }
  common::Matrix out(static_cast<size_t>(rows), static_cast<size_t>(cols));
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = flat[r * out.cols() + c];
    }
  }
  *m = std::move(out);
  return Status::OK();
}

}  // namespace

Status GaussianProcessRegressor::Save(const std::string& prefix,
                                      common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutBool(prefix + ".fitted", fitted_));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDouble(prefix + ".lengthscale", lengthscale_));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDouble(prefix + ".lml", log_marginal_likelihood_));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(prefix + ".updates_since_refit", updates_since_refit_));
  if (x_scaler_.is_fitted()) {
    ROCKHOPPER_RETURN_IF_ERROR(x_scaler_.Save(prefix + ".xs", writer));
  }
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutBool(prefix + ".has_xs", x_scaler_.is_fitted()));
  if (y_scaler_.is_fitted()) {
    ROCKHOPPER_RETURN_IF_ERROR(y_scaler_.Save(prefix + ".ys", writer));
  }
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutBool(prefix + ".has_ys", y_scaler_.is_fitted()));
  ROCKHOPPER_RETURN_IF_ERROR(SaveMatrix(prefix + ".raw_x", raw_x_, writer));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubles(prefix + ".raw_y", raw_y_));
  ROCKHOPPER_RETURN_IF_ERROR(SaveMatrix(prefix + ".train_x", train_x_, writer));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDoubles(prefix + ".train_y", train_y_std_));
  ROCKHOPPER_RETURN_IF_ERROR(SaveMatrix(prefix + ".chol", chol_, writer));
  return writer->PutDoubles(prefix + ".alpha", alpha_);
}

Status GaussianProcessRegressor::Load(const std::string& prefix,
                                      const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(fitted, reader.GetBool(prefix + ".fitted"));
  ROCKHOPPER_ASSIGN_OR_RETURN(lengthscale,
                              reader.GetDouble(prefix + ".lengthscale"));
  ROCKHOPPER_ASSIGN_OR_RETURN(lml, reader.GetDouble(prefix + ".lml"));
  ROCKHOPPER_ASSIGN_OR_RETURN(updates,
                              reader.GetInt(prefix + ".updates_since_refit"));
  ROCKHOPPER_ASSIGN_OR_RETURN(has_xs, reader.GetBool(prefix + ".has_xs"));
  StandardScaler xs;
  if (has_xs) ROCKHOPPER_RETURN_IF_ERROR(xs.Load(prefix + ".xs", reader));
  ROCKHOPPER_ASSIGN_OR_RETURN(has_ys, reader.GetBool(prefix + ".has_ys"));
  TargetScaler ys;
  if (has_ys) ROCKHOPPER_RETURN_IF_ERROR(ys.Load(prefix + ".ys", reader));
  common::Matrix raw_x, train_x, chol;
  ROCKHOPPER_RETURN_IF_ERROR(LoadMatrix(prefix + ".raw_x", reader, &raw_x));
  ROCKHOPPER_ASSIGN_OR_RETURN(raw_y, reader.GetDoubles(prefix + ".raw_y"));
  ROCKHOPPER_RETURN_IF_ERROR(LoadMatrix(prefix + ".train_x", reader, &train_x));
  ROCKHOPPER_ASSIGN_OR_RETURN(train_y, reader.GetDoubles(prefix + ".train_y"));
  ROCKHOPPER_RETURN_IF_ERROR(LoadMatrix(prefix + ".chol", reader, &chol));
  ROCKHOPPER_ASSIGN_OR_RETURN(alpha, reader.GetDoubles(prefix + ".alpha"));
  fitted_ = fitted;
  lengthscale_ = lengthscale;
  log_marginal_likelihood_ = lml;
  updates_since_refit_ = static_cast<int>(updates);
  x_scaler_ = std::move(xs);
  y_scaler_ = std::move(ys);
  raw_x_ = std::move(raw_x);
  raw_y_ = std::move(raw_y);
  train_x_ = std::move(train_x);
  train_y_std_ = std::move(train_y);
  chol_ = std::move(chol);
  alpha_ = std::move(alpha);
  return Status::OK();
}

size_t GaussianProcessRegressor::ApproxBytes() const {
  const size_t doubles = raw_x_.rows() * raw_x_.cols() + raw_y_.size() +
                         train_x_.rows() * train_x_.cols() +
                         train_y_std_.size() + chol_.rows() * chol_.cols() +
                         alpha_.size() + 2 * x_scaler_.num_features() + 8;
  return doubles * sizeof(double) + sizeof(*this);
}

}  // namespace rockhopper::ml
