#include "core/centroid_learning.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace rockhopper::core {

namespace {

// Observation lists are archived one row per observation: [data_size,
// runtime, iteration, failed, config...]. Iteration counts and the failed
// flag fit exactly in doubles, so the round-trip is lossless.
std::vector<double> ObservationToRow(const Observation& obs) {
  std::vector<double> row;
  row.reserve(4 + obs.config.size());
  row.push_back(obs.data_size);
  row.push_back(obs.runtime);
  row.push_back(static_cast<double>(obs.iteration));
  row.push_back(obs.failed ? 1.0 : 0.0);
  row.insert(row.end(), obs.config.begin(), obs.config.end());
  return row;
}

size_t FeaturedBytes(const FeaturedObservation& row) {
  return sizeof(FeaturedObservation) +
         (row.obs.config.size() + row.features.size()) * sizeof(double);
}

Status RowsToObservations(const std::vector<std::vector<double>>& rows,
                          ObservationWindow* observations) {
  ObservationWindow out;
  out.reserve(rows.size());
  for (const std::vector<double>& row : rows) {
    if (row.size() < 4) {
      return Status::InvalidArgument("observation row too short in archive");
    }
    Observation obs;
    obs.data_size = row[0];
    obs.runtime = row[1];
    obs.iteration = static_cast<int>(row[2]);
    obs.failed = row[3] != 0.0;
    obs.config.assign(row.begin() + 4, row.end());
    out.push_back(std::move(obs));
  }
  *observations = std::move(out);
  return Status::OK();
}

}  // namespace

CentroidLearner::CentroidLearner(const sparksim::ConfigSpace& space,
                                 sparksim::ConfigVector initial_centroid,
                                 std::unique_ptr<CandidateScorer> scorer,
                                 CentroidLearningOptions options, uint64_t seed)
    : space_(space),
      options_(options),
      centroid_(space.Clamp(std::move(initial_centroid))),
      scorer_(std::move(scorer)),
      rng_(seed),
      best_runtime_(std::numeric_limits<double>::infinity()),
      alpha_(options.alpha),
      beta_(options.beta) {}

sparksim::ConfigVector CentroidLearner::Propose(double expected_data_size) {
  // Candidate 0 is the centroid itself, so "stay put" is always on the
  // table; the rest are drawn from the beta-neighborhood.
  std::vector<sparksim::ConfigVector> candidates;
  candidates.reserve(static_cast<size_t>(std::max(1, options_.num_candidates)));
  candidates.push_back(centroid_);
  for (int i = 1; i < options_.num_candidates; ++i) {
    candidates.push_back(space_.SampleNeighbor(centroid_, beta_, &rng_));
  }
  last_candidate_count_ = candidates.size();
  const size_t pick =
      scorer_->SelectBest(candidates, expected_data_size, best_runtime_);
  return std::move(candidates[pick < candidates.size() ? pick : 0]);
}

ObservationWindow CentroidLearner::history() const {
  ObservationWindow out;
  out.reserve(history_.size());
  for (size_t i = 0; i < history_.size(); ++i) out.push_back(HistoryAt(i).obs);
  return out;
}

void CentroidLearner::PushHistory(Observation obs) {
  std::vector<double> features =
      WindowFeatures(space_, obs.config, obs.data_size);
  FeaturedObservation row{std::move(obs), std::move(features)};
  const size_t window =
      static_cast<size_t>(std::max(1, options_.window_size));
  if (history_.size() < window) {
    history_.push_back(std::move(row));
    return;
  }
  history_[history_start_] = std::move(row);
  history_start_ = (history_start_ + 1) % history_.size();
}

void CentroidLearner::AddElite(const FeaturedObservation& candidate) {
  // Keep the all-time-best observations by size-normalized runtime; under
  // one-sided production noise these are also the least-noisy samples.
  // Ties keep arrival order.
  const auto key = [](const Observation& obs) {
    return obs.runtime / std::max(1e-12, obs.data_size);
  };
  const double candidate_key = key(candidate.obs);
  const auto pos = std::upper_bound(
      elites_.begin(), elites_.end(), candidate_key,
      [&key](double k, const FeaturedObservation& e) { return k < key(e.obs); });
  const size_t limit = static_cast<size_t>(options_.elite_size);
  if (static_cast<size_t>(pos - elites_.begin()) >= limit) return;
  elites_.insert(pos, candidate);
  if (elites_.size() > limit) elites_.pop_back();
}

void CentroidLearner::Observe(const sparksim::ConfigVector& config,
                              double data_size, double runtime) {
  Observation obs;
  obs.config = config;
  obs.data_size = data_size;
  obs.runtime = runtime;
  obs.iteration = iteration_++;
  PushHistory(std::move(obs));
  best_runtime_ = std::min(best_runtime_, runtime);
  if (options_.elite_size > 0) AddElite(HistoryAt(history_.size() - 1));
  // The FIND_BEST / FIND_GRADIENT window: the history, oldest first, then
  // the elites. It points into the ring and the elite list; the scorer sees
  // the history part.
  std::vector<const FeaturedObservation*> window;
  window.reserve(history_.size() + elites_.size());
  for (size_t i = 0; i < history_.size(); ++i) window.push_back(&HistoryAt(i));
  for (const FeaturedObservation& elite : elites_) window.push_back(&elite);
  scorer_->Update(FeaturedWindow(window).first(history_.size()));
  if (options_.update_every > 0 && iteration_ % options_.update_every == 0) {
    MaybeUpdateCentroid(window, data_size);
  }
  alpha_ = std::max(options_.min_alpha, alpha_ * options_.step_decay);
  beta_ = std::max(options_.min_beta, beta_ * options_.step_decay);
}

void CentroidLearner::MaybeUpdateCentroid(FeaturedWindow window,
                                          double reference_data_size) {
  // One window-model fit serves both FIND_BEST and FIND_GRADIENT; a failed
  // fit sends each to its fallback.
  WindowModel model(&space_);
  const bool fitted =
      (options_.find_best_version == FindBestVersion::kModelPredicted ||
       options_.gradient_method == GradientMethod::kModelSign) &&
      model.FitFeatures(window).ok();
  const WindowModel* shared = fitted ? &model : nullptr;
  Result<size_t> best = FindBestIndex(window, options_.find_best_version,
                                      reference_data_size, shared);
  if (!best.ok()) return;
  const sparksim::ConfigVector& c_star = window[*best]->obs.config;
  Result<GradientSigns> gradient =
      FindGradient(space_, window, options_.gradient_method, c_star,
                   reference_data_size, alpha_, shared);
  if (!gradient.ok()) {
    // Not enough observations for a gradient yet: anchor on the best point.
    centroid_ = c_star;
    return;
  }
  last_gradient_ = *gradient;
  centroid_ = UpdateCentroid(space_, c_star, last_gradient_, alpha_,
                             options_.multiplicative_update);
}

Status CentroidLearner::Save(const std::string& prefix,
                             common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubles(prefix + ".centroid",
                                                centroid_));
  // mt19937_64's stream inserter emits the full 312-word state as
  // space-separated decimal on one line — exactly reproducible through the
  // matching extractor.
  std::ostringstream rng_state;
  rng_state << rng_.engine();
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutString(prefix + ".rng", rng_state.str()));
  std::vector<std::vector<double>> history_rows, elite_rows;
  for (size_t i = 0; i < history_.size(); ++i) {
    history_rows.push_back(ObservationToRow(HistoryAt(i).obs));
  }
  for (const FeaturedObservation& elite : elites_) {
    elite_rows.push_back(ObservationToRow(elite.obs));
  }
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDoubleRows(prefix + ".history", history_rows));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDoubleRows(prefix + ".elites", elite_rows));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(prefix + ".last_candidate_count",
                     static_cast<int64_t>(last_candidate_count_)));
  std::vector<double> gradient(last_gradient_.begin(), last_gradient_.end());
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDoubles(prefix + ".last_gradient", gradient));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDouble(prefix + ".best_runtime", best_runtime_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDouble(prefix + ".alpha", alpha_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDouble(prefix + ".beta", beta_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".iteration",
                                            iteration_));
  return scorer_->Save(prefix + ".scorer", writer);
}

Status CentroidLearner::Load(const std::string& prefix,
                             const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(centroid, reader.GetDoubles(prefix + ".centroid"));
  ROCKHOPPER_ASSIGN_OR_RETURN(rng_state, reader.GetString(prefix + ".rng"));
  ROCKHOPPER_ASSIGN_OR_RETURN(history_rows,
                              reader.GetDoubleRows(prefix + ".history"));
  ROCKHOPPER_ASSIGN_OR_RETURN(elite_rows,
                              reader.GetDoubleRows(prefix + ".elites"));
  ROCKHOPPER_ASSIGN_OR_RETURN(
      candidate_count, reader.GetInt(prefix + ".last_candidate_count"));
  ROCKHOPPER_ASSIGN_OR_RETURN(gradient,
                              reader.GetDoubles(prefix + ".last_gradient"));
  ROCKHOPPER_ASSIGN_OR_RETURN(best_runtime,
                              reader.GetDouble(prefix + ".best_runtime"));
  ROCKHOPPER_ASSIGN_OR_RETURN(alpha, reader.GetDouble(prefix + ".alpha"));
  ROCKHOPPER_ASSIGN_OR_RETURN(beta, reader.GetDouble(prefix + ".beta"));
  ROCKHOPPER_ASSIGN_OR_RETURN(iteration, reader.GetInt(prefix + ".iteration"));
  ObservationWindow history, elites;
  ROCKHOPPER_RETURN_IF_ERROR(RowsToObservations(history_rows, &history));
  ROCKHOPPER_RETURN_IF_ERROR(RowsToObservations(elite_rows, &elites));
  std::istringstream rng_in(rng_state);
  std::mt19937_64 engine;
  rng_in >> engine;
  if (rng_in.fail()) {
    return Status::InvalidArgument("corrupt rng state in archive: " + prefix);
  }
  ROCKHOPPER_RETURN_IF_ERROR(scorer_->Load(prefix + ".scorer", reader));
  centroid_ = std::move(centroid);
  rng_.engine() = engine;
  // Feature rows are derived state: recomputed here, never archived.
  history_.clear();
  history_start_ = 0;
  for (const Observation& obs : history) PushHistory(obs);
  elites_.clear();
  for (Observation& obs : elites) {
    std::vector<double> features =
        WindowFeatures(space_, obs.config, obs.data_size);
    elites_.push_back({std::move(obs), std::move(features)});
  }
  last_candidate_count_ = static_cast<size_t>(candidate_count);
  last_gradient_.clear();
  last_gradient_.reserve(gradient.size());
  for (double g : gradient) last_gradient_.push_back(static_cast<int>(g));
  best_runtime_ = best_runtime;
  alpha_ = alpha;
  beta_ = beta;
  iteration_ = static_cast<int>(iteration);
  return Status::OK();
}

size_t CentroidLearner::ApproxBytes() const {
  size_t bytes = sizeof(*this) + centroid_.size() * sizeof(double) +
                 last_gradient_.size() * sizeof(int);
  for (const FeaturedObservation& row : history_) bytes += FeaturedBytes(row);
  for (const FeaturedObservation& row : elites_) bytes += FeaturedBytes(row);
  return bytes + scorer_->ApproxBytes();
}

}  // namespace rockhopper::core
