#ifndef ROCKHOPPER_CORE_SCORER_H_
#define ROCKHOPPER_CORE_SCORER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"
#include "core/baseline_model.h"
#include "core/observation.h"
#include "core/window_model.h"
#include "ml/acquisition.h"
#include "ml/gaussian_process.h"
#include "sparksim/config_space.h"
#include "sparksim/synthetic.h"

namespace rockhopper::core {

/// Step 2 of the Centroid Learning loop (Fig. 5): given the candidate set
/// generated around the centroid, pick the one to execute. Implementations
/// range from the production surrogate (GP + acquisition, warm-started by
/// the baseline model) to the pseudo-surrogates of §6.1 that select a fixed
/// true-performance percentile to stress-test the algorithm's robustness to
/// surrogate inaccuracy.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  /// Refits internal models after a new observation landed. `history` is
  /// the full (or windowed) observation list for this query, oldest first,
  /// each row with its cached WindowFeatures.
  virtual void Update(FeaturedWindow history) = 0;

  /// Index of the candidate to execute next; `data_size` is the expected
  /// input size of the upcoming run and `best_observed` the lowest runtime
  /// seen so far (infinity when none).
  virtual size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                            double data_size, double best_observed) = 0;

  virtual std::string name() const = 0;

  /// Persists / restores the scorer's learned state under `prefix` so the
  /// tiered state layer can evict and fault it back in bit-identically.
  /// Scorers without learned state (oracles, random) use these defaults:
  /// Save writes nothing and Load is a no-op, which round-trips trivially.
  virtual Status Save(const std::string& prefix,
                      common::ArchiveWriter* writer) const {
    (void)prefix;
    (void)writer;
    return Status::OK();
  }
  virtual Status Load(const std::string& prefix,
                      const common::ArchiveReader& reader) {
    (void)prefix;
    (void)reader;
    return Status::OK();
  }

  /// Approximate resident footprint of learned state, the eviction tier's
  /// accounting unit. Stateless scorers weigh nothing.
  virtual size_t ApproxBytes() const { return 0; }
};

/// The production scorer: a Gaussian-process surrogate over
/// (embedding-fixed) config + data-size features, scored by an acquisition
/// function, optionally warm-started by an offline BaselineModel. Before
/// `min_history` observations exist, candidates are ranked purely by the
/// baseline model (iteration-0 behaviour of Fig. 5); afterwards the GP and
/// baseline scores are blended with weight growing in history size.
struct SurrogateScorerOptions {
  ml::AcquisitionOptions acquisition;
  /// Surrogate hyperparameters; max_rows defaults to max_window below so the
  /// GP windows itself and both appends and slides stay on the O(n^2)
  /// update path.
  ml::GaussianProcessOptions gp;
  size_t max_window = 60;    ///< cap on GP training rows (O(n^3) fits)
  size_t min_history = 3;    ///< below this, baseline-only
  double blend_saturation = 10.0;  ///< history size at which GP weight ~ 1
};

class SurrogateScorer : public CandidateScorer {
 public:
  using Options = SurrogateScorerOptions;

  /// `baseline` may be null for embedding-free tuning and must outlive the
  /// scorer when provided. `embedding` is the baseline's workload input:
  /// the scorer keeps it only when there is a baseline to feed it to.
  SurrogateScorer(const sparksim::ConfigSpace& space,
                  const BaselineModel* baseline,
                  std::vector<double> embedding, Options options = {});

  /// The embedding the baseline blend reads; empty without a baseline.
  const std::vector<double>& embedding() const { return embedding_; }

  void Update(FeaturedWindow history) override;
  size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                    double data_size, double best_observed) override;
  std::string name() const override { return "surrogate-gp"; }

  /// Round-trips the GP surrogate plus the append-detection cursor; the
  /// space/baseline/embedding references are reconstructed by the caller
  /// (they are shared, not per-signature, state).
  Status Save(const std::string& prefix,
              common::ArchiveWriter* writer) const override;
  Status Load(const std::string& prefix,
              const common::ArchiveReader& reader) override;
  size_t ApproxBytes() const override;

 private:
  std::vector<double> GpFeatures(const sparksim::ConfigVector& config,
                                 double data_size) const;

  const sparksim::ConfigSpace& space_;
  const BaselineModel* baseline_;  // may be null
  std::vector<double> embedding_;  // empty when baseline_ is null
  Options options_;
  ml::GaussianProcessRegressor gp_;
  size_t history_size_ = 0;
  /// Iteration number of the last history row absorbed, used to detect that
  /// a new history is the previous one moved by one row — appended, or
  /// appended with the oldest row dropped (the hot path that routes through
  /// the GP's O(n^2) incremental update).
  int last_tail_iteration_ = -1;
};

/// The pseudo-surrogate of §6.1: an oracle of tunable *inaccuracy*. Level X
/// ranks candidates by true (noise-free) performance and picks the one at
/// the 10*X-th percentile — Level 1 is a near-perfect model, Level 9 close
/// to adversarial (Fig. 9).
class PseudoSurrogateScorer : public CandidateScorer {
 public:
  PseudoSurrogateScorer(const sparksim::SyntheticFunction* function, int level)
      : function_(function), level_(level) {}

  void Update(FeaturedWindow history) override;
  size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                    double data_size, double best_observed) override;
  std::string name() const override;

 private:
  const sparksim::SyntheticFunction* function_;
  int level_;
};

/// Scores candidates with any point Regressor trained on the observation
/// window (e.g. the SVR surrogate of Fig. 10); candidates are ranked by
/// predicted runtime (pure exploitation). Falls back to the first candidate
/// until enough history exists.
class RegressorScorer : public CandidateScorer {
 public:
  RegressorScorer(const sparksim::ConfigSpace& space,
                  std::unique_ptr<ml::Regressor> model,
                  std::string model_name, size_t min_history = 3,
                  size_t max_window = 60);

  void Update(FeaturedWindow history) override;
  size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                    double data_size, double best_observed) override;
  std::string name() const override { return "regressor-" + model_name_; }

 private:
  const sparksim::ConfigSpace& space_;
  std::unique_ptr<ml::Regressor> model_;
  std::string model_name_;
  size_t min_history_;
  size_t max_window_;
  bool usable_ = false;
};

/// Uniform-random candidate choice; the "no surrogate" ablation.
class RandomScorer : public CandidateScorer {
 public:
  explicit RandomScorer(uint64_t seed) : rng_(seed) {}

  void Update(FeaturedWindow history) override;
  size_t SelectBest(const std::vector<sparksim::ConfigVector>& candidates,
                    double data_size, double best_observed) override;
  std::string name() const override { return "random"; }

 private:
  common::Rng rng_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_SCORER_H_
