#include "core/scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/matrix.h"

namespace rockhopper::core {

namespace {

ml::GaussianProcessOptions WithWindow(ml::GaussianProcessOptions gp,
                                      size_t max_window) {
  if (gp.max_rows == 0) gp.max_rows = max_window;
  return gp;
}

}  // namespace

SurrogateScorer::SurrogateScorer(const sparksim::ConfigSpace& space,
                                 const BaselineModel* baseline,
                                 std::vector<double> embedding,
                                 Options options)
    : space_(space),
      baseline_(baseline),
      embedding_(baseline != nullptr ? std::move(embedding)
                                     : std::vector<double>()),
      options_(options),
      gp_(WithWindow(options.gp, options.max_window)) {}

std::vector<double> SurrogateScorer::GpFeatures(
    const sparksim::ConfigVector& config, double data_size) const {
  return WindowFeatures(space_, config, data_size);
}

void SurrogateScorer::Update(FeaturedWindow history) {
  const size_t prev_size = history_size_;
  history_size_ = history.size();
  if (history.empty()) return;
  const FeaturedObservation& newest = *history.back();
  if (history.size() < options_.min_history) {
    last_tail_iteration_ = newest.obs.iteration;
    return;
  }
  // Tuning histories move by one row per observation: they grow until the
  // tuner's window is full, then slide. When the new history is the one
  // already absorbed moved by one row, route through the GP's O(n^2)
  // incremental update instead of rebuilding the training set; a slide
  // drops the GP's oldest row in the same step. The GP also windows itself
  // (max_rows) and escalates to full refits per its policy.
  const bool one_row =
      gp_.is_fitted() && history.size() >= 2 &&
      history[history.size() - 2]->obs.iteration == last_tail_iteration_;
  const bool slid = history.size() == prev_size;
  last_tail_iteration_ = newest.obs.iteration;
  if (one_row && (slid || history.size() == prev_size + 1)) {
    // A failed update keeps the previous fit, like a failed refit below.
    (void)gp_.Update(newest.features, newest.obs.runtime, slid);
    return;
  }
  ml::Dataset data;
  const size_t start = history.size() > options_.max_window
                           ? history.size() - options_.max_window
                           : 0;
  for (size_t i = start; i < history.size(); ++i) {
    data.Add(history[i]->features, history[i]->obs.runtime);
  }
  // A failed refit leaves the previous fit in place; scoring degrades to
  // the baseline blend rather than erroring out of the tuning loop.
  (void)gp_.Fit(data);
}

size_t SurrogateScorer::SelectBest(
    const std::vector<sparksim::ConfigVector>& candidates, double data_size,
    double best_observed) {
  if (candidates.empty()) return 0;
  const bool gp_ready =
      gp_.is_fitted() && history_size_ >= options_.min_history;
  const bool baseline_ready = baseline_ != nullptr && baseline_->is_fitted() &&
                              !embedding_.empty();
  // Weight of the query-specific GP relative to the transfer-learned
  // baseline grows with the amount of query-specific evidence.
  const double gp_weight =
      gp_ready ? std::min(1.0, static_cast<double>(history_size_) /
                                   options_.blend_saturation)
               : 0.0;
  if (!gp_ready && !baseline_ready) {
    // No information at all: keep the first candidate (the centroid).
    return 0;
  }
  // Score the whole candidate set through one batched GP pass: one
  // cross-kernel block and a multi-RHS triangular solve instead of a
  // latency-bound solve per candidate.
  std::vector<ml::Prediction> preds;
  if (gp_ready) {
    common::Matrix features;
    for (const auto& candidate : candidates) {
      const std::vector<double> row = GpFeatures(candidate, data_size);
      if (features.rows() == 0) features.Reserve(candidates.size(), row.size());
      features.AppendRow(row);
    }
    preds = gp_.PredictBatch(features);
  }
  size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    double score = 0.0;
    if (gp_ready) {
      score += gp_weight * ml::AcquisitionScore(options_.acquisition, preds[i],
                                                best_observed);
    }
    if (baseline_ready && gp_weight < 1.0) {
      const double runtime =
          baseline_->PredictRuntime(embedding_, candidates[i], data_size);
      // The baseline is a point model: exploit its mean (negated runtime so
      // higher is better), scaled into the acquisition blend.
      score += (1.0 - gp_weight) *
               ml::AcquisitionScore(options_.acquisition,
                                    ml::Prediction{runtime, 0.0},
                                    best_observed);
    }
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

Status SurrogateScorer::Save(const std::string& prefix,
                             common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(
      prefix + ".history_size", static_cast<int64_t>(history_size_)));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(prefix + ".last_tail_iteration", last_tail_iteration_));
  return gp_.Save(prefix + ".gp", writer);
}

Status SurrogateScorer::Load(const std::string& prefix,
                             const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(history_size,
                              reader.GetInt(prefix + ".history_size"));
  ROCKHOPPER_ASSIGN_OR_RETURN(last_tail,
                              reader.GetInt(prefix + ".last_tail_iteration"));
  ROCKHOPPER_RETURN_IF_ERROR(gp_.Load(prefix + ".gp", reader));
  history_size_ = static_cast<size_t>(history_size);
  last_tail_iteration_ = static_cast<int>(last_tail);
  return Status::OK();
}

size_t SurrogateScorer::ApproxBytes() const {
  return sizeof(*this) + embedding_.size() * sizeof(double) + gp_.ApproxBytes();
}

void PseudoSurrogateScorer::Update(FeaturedWindow history) {
  (void)history;  // An oracle has nothing to learn.
}

size_t PseudoSurrogateScorer::SelectBest(
    const std::vector<sparksim::ConfigVector>& candidates, double data_size,
    double best_observed) {
  (void)best_observed;
  if (candidates.empty()) return 0;
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> truth(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    truth[i] = function_->TruePerformance(candidates[i], data_size);
  }
  std::sort(order.begin(), order.end(),
            [&truth](size_t a, size_t b) { return truth[a] < truth[b]; });
  // Level X selects the candidate at the 10*X-th percentile of the true
  // ranking: Level 1 ~ near-best, Level 9 ~ near-worst.
  const double q = std::clamp(0.1 * static_cast<double>(level_), 0.0, 1.0);
  const size_t pick = static_cast<size_t>(std::llround(
      q * static_cast<double>(candidates.size() - 1)));
  return order[pick];
}

std::string PseudoSurrogateScorer::name() const {
  return "pseudo-level-" + std::to_string(level_);
}

RegressorScorer::RegressorScorer(const sparksim::ConfigSpace& space,
                                 std::unique_ptr<ml::Regressor> model,
                                 std::string model_name, size_t min_history,
                                 size_t max_window)
    : space_(space),
      model_(std::move(model)),
      model_name_(std::move(model_name)),
      min_history_(min_history),
      max_window_(max_window) {}

void RegressorScorer::Update(FeaturedWindow history) {
  usable_ = false;
  if (history.size() < min_history_) return;
  ml::Dataset data;
  const size_t start =
      history.size() > max_window_ ? history.size() - max_window_ : 0;
  for (size_t i = start; i < history.size(); ++i) {
    data.Add(history[i]->features, history[i]->obs.runtime);
  }
  usable_ = model_->Fit(data).ok();
}

size_t RegressorScorer::SelectBest(
    const std::vector<sparksim::ConfigVector>& candidates, double data_size,
    double best_observed) {
  (void)best_observed;
  if (candidates.empty() || !usable_) return 0;
  size_t best = 0;
  double best_pred = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double pred =
        model_->Predict(WindowFeatures(space_, candidates[i], data_size));
    if (pred < best_pred) {
      best_pred = pred;
      best = i;
    }
  }
  return best;
}

void RandomScorer::Update(FeaturedWindow history) { (void)history; }

size_t RandomScorer::SelectBest(
    const std::vector<sparksim::ConfigVector>& candidates, double data_size,
    double best_observed) {
  (void)data_size;
  (void)best_observed;
  if (candidates.empty()) return 0;
  return rng_.Index(candidates.size());
}

}  // namespace rockhopper::core
