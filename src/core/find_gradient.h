#ifndef ROCKHOPPER_CORE_FIND_GRADIENT_H_
#define ROCKHOPPER_CORE_FIND_GRADIENT_H_

#include <vector>

#include "common/status.h"
#include "core/observation.h"
#include "core/window_model.h"
#include "sparksim/config_space.h"

namespace rockhopper::core {

/// How the descent direction is extracted from the observation window
/// (paper §4.3, FIND_GRADIENT).
enum class GradientMethod {
  /// Fit a linear surface over (configs, data size) and take per-dimension
  /// coefficient signs (Fig. 6). Assumes linear data-size dependence.
  kLinearSign,
  /// Fit the non-linear H(c, p) model of Eq. (4) and search the sign
  /// vectors D = {-1, +1}^d for the one minimizing H(c*(1 - alpha*delta), p)
  /// (Eq. 6-7). Avoids assumptions about data-size effects; the production
  /// choice.
  kModelSign,
};

/// The "candidate gradient" Delta: one entry per configuration dimension in
/// {-1, 0, +1}. The centroid update then moves the best configuration
/// *against* the gradient: a +1 entry means "runtime grows with this
/// config", so the centroid shrinks it.
using GradientSigns = std::vector<int>;

/// Derives Delta from the latest-N window around the best configuration
/// `c_star`. `alpha` is the relative probe distance of Eq. (6);
/// `reference_data_size` fixes p. Fails on windows of fewer than 2 rows.
Result<GradientSigns> FindGradient(const sparksim::ConfigSpace& space,
                                   const ObservationWindow& window,
                                   GradientMethod method,
                                   const sparksim::ConfigVector& c_star,
                                   double reference_data_size, double alpha);

/// FindGradient over a featured window. `model` is the window model already
/// fitted on exactly `window` (shared with FindBestIndex), or null when that
/// fit failed — kModelSign then fails, as above. kLinearSign ignores it.
Result<GradientSigns> FindGradient(const sparksim::ConfigSpace& space,
                                   FeaturedWindow window, GradientMethod method,
                                   const sparksim::ConfigVector& c_star,
                                   double reference_data_size, double alpha,
                                   const WindowModel* model);

/// Applies the centroid update of Algorithm 1. With
/// `multiplicative` (the scale-invariant reading of Eq. 6; default) the new
/// centroid is c* with each dimension scaled by (1 -+ alpha); log-scale
/// dimensions move multiplicatively, linear dimensions move by an
/// alpha-fraction of their range. The result is clamped into the space.
sparksim::ConfigVector UpdateCentroid(const sparksim::ConfigSpace& space,
                                      const sparksim::ConfigVector& c_star,
                                      const GradientSigns& delta, double alpha,
                                      bool multiplicative = true);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_FIND_GRADIENT_H_
