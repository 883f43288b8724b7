#include "core/find_best.h"

#include <algorithm>

namespace rockhopper::core {

Result<Observation> FindBest(const sparksim::ConfigSpace& space,
                             const ObservationWindow& window,
                             FindBestVersion version,
                             double reference_data_size) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  const FeaturedCopy rows(space, window);
  WindowModel model(&space);
  const bool fitted = version == FindBestVersion::kModelPredicted &&
                      model.FitFeatures(rows.view()).ok();
  ROCKHOPPER_ASSIGN_OR_RETURN(
      best, FindBestIndex(rows.view(), version, reference_data_size,
                          fitted ? &model : nullptr));
  return window[best];
}

Result<size_t> FindBestIndex(FeaturedWindow window, FindBestVersion version,
                             double reference_data_size,
                             const WindowModel* model) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  // Degenerate window (e.g. a single point): fall back to v2.
  if (version == FindBestVersion::kModelPredicted && model == nullptr) {
    version = FindBestVersion::kNormalized;
  }
  const double size_feature = SizeFeature(reference_data_size);
  const auto score = [&](const FeaturedObservation& row) {
    switch (version) {
      case FindBestVersion::kMinRuntime:
        return row.obs.runtime;
      case FindBestVersion::kNormalized:
        return row.obs.runtime / std::max(1e-12, row.obs.data_size);
      case FindBestVersion::kModelPredicted:
        return model->PredictFeatures(row.features, size_feature);
    }
    return row.obs.runtime;
  };
  size_t best = 0;
  double best_score = score(*window[0]);
  for (size_t i = 1; i < window.size(); ++i) {
    const double s = score(*window[i]);
    if (s < best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

}  // namespace rockhopper::core
