#ifndef ROCKHOPPER_CORE_FIND_BEST_H_
#define ROCKHOPPER_CORE_FIND_BEST_H_

#include "common/status.h"
#include "core/observation.h"
#include "core/window_model.h"
#include "sparksim/config_space.h"

namespace rockhopper::core {

/// The three refinements of Algorithm 1's FIND_BEST (paper §4.3).
enum class FindBestVersion {
  /// v1: argmin runtime. Biased toward observations that happened to run on
  /// small inputs.
  kMinRuntime,
  /// v2: argmin runtime / data size (Eq. 3). Fairer, but still biased: r/p
  /// typically shrinks as p grows.
  kNormalized,
  /// v3: fit H(c, p) on the window (Eq. 4) and compare all window configs at
  /// one fixed reference data size (Eq. 5). The production setting.
  kModelPredicted,
};

/// Selects c*, the best configuration among the latest-N observations.
/// `reference_data_size` is the fixed p used by kModelPredicted (typically
/// the most recent observation's size); ignored by the other versions.
/// Fails on an empty window; kModelPredicted falls back to kNormalized when
/// the window model cannot be fitted.
Result<Observation> FindBest(const sparksim::ConfigSpace& space,
                             const ObservationWindow& window,
                             FindBestVersion version,
                             double reference_data_size);

/// FindBest over a featured window; returns the index of c* in `window`.
/// `model` is the window model already fitted on exactly `window` (Centroid
/// Learning fits it once per centroid update and shares it with
/// FindGradient), or null when that fit failed — kModelPredicted then falls
/// back to kNormalized, as above. The other versions ignore it.
Result<size_t> FindBestIndex(FeaturedWindow window, FindBestVersion version,
                             double reference_data_size,
                             const WindowModel* model);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_FIND_BEST_H_
