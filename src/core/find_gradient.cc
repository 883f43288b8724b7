#include "core/find_gradient.h"

#include <cmath>
#include <limits>

#include "core/window_model.h"
#include "ml/linear_regression.h"

namespace rockhopper::core {

namespace {

// Moves one dimension of `config` by a signed relative step, reflecting at
// the range boundaries (clamping would make boundaries absorbing: the
// clamped probe coincides with c* and "don't move" would win every model
// comparison at an edge).
double StepDimension(const sparksim::ParamSpec& spec, double value, int sign,
                     double alpha) {
  if (sign == 0) return value;
  double next;
  if (spec.log_scale) {
    // Multiplicative probe: c * (1 - alpha * sign).
    next = value * (1.0 - alpha * static_cast<double>(sign));
  } else {
    next = value - alpha * static_cast<double>(sign) *
                       (spec.max_value - spec.min_value);
  }
  return sparksim::ConfigSpace::Reflect(spec, next);
}

Result<GradientSigns> LinearSignGradient(const sparksim::ConfigSpace& space,
                                         FeaturedWindow window) {
  ml::Dataset data;
  for (const FeaturedObservation* row : window) {
    data.Add(row->features, row->obs.runtime);
  }
  ml::LinearRegression model(/*l2=*/1e-6);
  ROCKHOPPER_RETURN_IF_ERROR(model.Fit(data));
  GradientSigns delta(space.size(), 0);
  for (size_t i = 0; i < space.size(); ++i) {
    const double coef = model.coefficients()[i];
    delta[i] = coef > 0.0 ? 1 : (coef < 0.0 ? -1 : 0);
  }
  return delta;
}

GradientSigns ModelSignGradient(const sparksim::ConfigSpace& space,
                                const WindowModel& model,
                                const sparksim::ConfigVector& c_star,
                                double reference_data_size, double alpha) {
  const size_t d = space.size();
  // Every probe steps each dimension one way or the other, so each
  // dimension has just two probe values: normalize those 2d values once
  // instead of all d coordinates of all 2^d probes.
  sparksim::ConfigVector plus = c_star;
  sparksim::ConfigVector minus = c_star;
  for (size_t i = 0; i < d; ++i) {
    plus[i] = StepDimension(space.param(i), c_star[i], 1, alpha);
    minus[i] = StepDimension(space.param(i), c_star[i], -1, alpha);
  }
  const std::vector<double> unit_plus = space.Normalize(space.Clamp(plus));
  const std::vector<double> unit_minus = space.Normalize(space.Clamp(minus));
  const double size_feature = SizeFeature(reference_data_size);
  const size_t combos = static_cast<size_t>(1) << d;
  double best_pred = std::numeric_limits<double>::infinity();
  GradientSigns best_delta(d, 0);
  std::vector<double> probe(d);
  for (size_t mask = 0; mask < combos; ++mask) {
    for (size_t i = 0; i < d; ++i) {
      probe[i] = (mask >> i) & 1 ? unit_plus[i] : unit_minus[i];
    }
    const double pred = model.PredictFeatures(probe, size_feature);
    if (pred < best_pred) {
      best_pred = pred;
      for (size_t i = 0; i < d; ++i) best_delta[i] = (mask >> i) & 1 ? 1 : -1;
    }
  }
  return best_delta;
}

}  // namespace

Result<GradientSigns> FindGradient(const sparksim::ConfigSpace& space,
                                   const ObservationWindow& window,
                                   GradientMethod method,
                                   const sparksim::ConfigVector& c_star,
                                   double reference_data_size, double alpha) {
  const FeaturedCopy rows(space, window);
  WindowModel model(&space);
  if (method == GradientMethod::kModelSign && window.size() >= 2) {
    ROCKHOPPER_RETURN_IF_ERROR(model.FitFeatures(rows.view()));
  }
  return FindGradient(space, rows.view(), method, c_star, reference_data_size,
                      alpha, model.is_fitted() ? &model : nullptr);
}

Result<GradientSigns> FindGradient(const sparksim::ConfigSpace& space,
                                   FeaturedWindow window, GradientMethod method,
                                   const sparksim::ConfigVector& c_star,
                                   double reference_data_size, double alpha,
                                   const WindowModel* model) {
  if (window.size() < 2) {
    return Status::InvalidArgument("need at least 2 observations for gradient");
  }
  switch (method) {
    case GradientMethod::kLinearSign:
      return LinearSignGradient(space, window);
    case GradientMethod::kModelSign:
      if (model == nullptr) {
        return Status::Internal("window model fit failed");
      }
      return ModelSignGradient(space, *model, c_star, reference_data_size,
                               alpha);
  }
  return Status::Internal("unknown GradientMethod");
}

sparksim::ConfigVector UpdateCentroid(const sparksim::ConfigSpace& space,
                                      const sparksim::ConfigVector& c_star,
                                      const GradientSigns& delta, double alpha,
                                      bool multiplicative) {
  if (multiplicative) {
    sparksim::ConfigVector next = c_star;
    for (size_t i = 0; i < space.size() && i < delta.size(); ++i) {
      next[i] = StepDimension(space.param(i), next[i], delta[i], alpha);
    }
    return space.Clamp(std::move(next));
  }
  // Literal Algorithm 1 form: e <- c* - alpha * Delta, interpreted in
  // normalized coordinates so the step is comparable across dimensions.
  std::vector<double> unit = space.Normalize(c_star);
  for (size_t i = 0; i < unit.size() && i < delta.size(); ++i) {
    unit[i] -= alpha * static_cast<double>(delta[i]);
  }
  return space.Denormalize(unit);
}

}  // namespace rockhopper::core
