#ifndef ROCKHOPPER_CORE_CENTROID_LEARNING_H_
#define ROCKHOPPER_CORE_CENTROID_LEARNING_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/find_best.h"
#include "core/find_gradient.h"
#include "core/observation.h"
#include "core/scorer.h"
#include "core/tuner.h"

namespace rockhopper::core {

/// Knobs of Algorithm 1.
struct CentroidLearningOptions {
  /// Centroid update step (the momentum-like overshoot factor alpha).
  double alpha = 0.25;
  /// Candidate-generation step (beta): the relative half-width of the
  /// neighborhood around the centroid from which candidates are drawn.
  /// Restricting exploration to this box is the paper's key regression
  /// guardrail — no drastic jumps into unknown regions.
  double beta = 0.35;
  /// N: observations retained for FIND_BEST / FIND_GRADIENT. The paper
  /// recommends 10-20 under production noise.
  int window_size = 15;
  /// Candidates generated per iteration (the centroid itself is included
  /// as candidate 0).
  int num_candidates = 16;
  FindBestVersion find_best_version = FindBestVersion::kModelPredicted;
  GradientMethod gradient_method = GradientMethod::kModelSign;
  /// Multiplicative (Eq. 6 form) vs. literal-additive centroid update; see
  /// find_gradient.h.
  bool multiplicative_update = true;
  /// Iterations between centroid updates (1 = every observation).
  int update_every = 1;
  /// Per-iteration multiplicative decay applied to alpha and beta, with the
  /// floors below. Fixed steps leave the centroid in a stationary band whose
  /// width is the step size; a gentle decay tightens the band as evidence
  /// accumulates (stochastic-approximation schedule). Set to 1.0 for the
  /// constant-step form of Algorithm 1.
  double step_decay = 0.992;
  double min_alpha = 0.04;
  double min_beta = 0.06;
  /// Extension beyond Algorithm 1's latest-N window: also keep this many
  /// all-time-best observations (by size-normalized runtime) in the
  /// FIND_BEST/FIND_GRADIENT window. Under the paper's one-sided noise the
  /// lowest observations are the least-noisy ones, so a small elite memory
  /// ratchets the anchor the way direct-search incumbents do. 0 disables.
  int elite_size = 3;
};

/// The Centroid Learning tuner (paper Algorithm 1): a hybrid of
/// model-guided search (a CandidateScorer picks within a restricted
/// neighborhood of the centroid) and statistically robust gradient descent
/// (the centroid moves from the windowed best configuration c* against a
/// gradient fitted on the whole window, overshooting by alpha to escape
/// local minima).
class CentroidLearner : public Tuner {
 public:
  /// `scorer` is owned; `initial_centroid` is typically the default config
  /// (cold start) or a known-good configuration.
  CentroidLearner(const sparksim::ConfigSpace& space,
                  sparksim::ConfigVector initial_centroid,
                  std::unique_ptr<CandidateScorer> scorer,
                  CentroidLearningOptions options, uint64_t seed);

  sparksim::ConfigVector Propose(double expected_data_size) override;
  void Observe(const sparksim::ConfigVector& config, double data_size,
               double runtime) override;
  std::string name() const override { return "centroid-learning"; }

  const sparksim::ConfigVector& centroid() const { return centroid_; }
  /// The latest-N window, oldest first (a copy; for tests and reports).
  ObservationWindow history() const;
  int iteration() const { return iteration_; }
  /// Current (decayed) step sizes.
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  /// The most recent gradient signs (empty before the first update).
  const GradientSigns& last_gradient() const { return last_gradient_; }

  /// Size of the candidate set scored at the latest Propose (0 before the
  /// first), for the "explain this recommendation" view. The candidates
  /// themselves live only for the duration of Propose.
  size_t last_candidate_count() const { return last_candidate_count_; }

  /// Persists / restores the full tuner state under `prefix`: centroid,
  /// windows, step sizes, the scorer's learned state (via its Save/Load) and
  /// the exact generator position (mt19937_64 stream round-trip). A Load
  /// into a learner constructed with the same space/options/seed reproduces
  /// the Propose/Observe trajectory bit-identically — the contract the
  /// tiered state layer's evict/fault-in path depends on.
  Status Save(const std::string& prefix, common::ArchiveWriter* writer) const;
  Status Load(const std::string& prefix, const common::ArchiveReader& reader);

  /// Approximate resident footprint in bytes, including the scorer.
  size_t ApproxBytes() const;

 private:
  void PushHistory(Observation obs);
  void AddElite(const FeaturedObservation& candidate);
  /// The i-th history row, oldest first.
  const FeaturedObservation& HistoryAt(size_t i) const {
    return history_[(history_start_ + i) % history_.size()];
  }
  void MaybeUpdateCentroid(FeaturedWindow window, double reference_data_size);

  const sparksim::ConfigSpace& space_;
  CentroidLearningOptions options_;
  sparksim::ConfigVector centroid_;
  std::unique_ptr<CandidateScorer> scorer_;
  common::Rng rng_;
  /// The latest-N window as a ring: once full, a new observation overwrites
  /// the oldest slot, which sits at history_start_.
  std::vector<FeaturedObservation> history_;
  size_t history_start_ = 0;
  /// All-time best by size-normalized runtime, best first.
  std::vector<FeaturedObservation> elites_;
  size_t last_candidate_count_ = 0;
  GradientSigns last_gradient_;
  double best_runtime_;
  double alpha_;
  double beta_;
  int iteration_ = 0;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_CENTROID_LEARNING_H_
