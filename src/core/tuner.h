#ifndef ROCKHOPPER_CORE_TUNER_H_
#define ROCKHOPPER_CORE_TUNER_H_

#include <string>

#include "sparksim/config_space.h"

namespace rockhopper::core {

/// The propose/observe loop every tuning algorithm implements. One Tuner
/// instance owns the tuning state of one recurrent query (or one synthetic
/// objective):
///   1. Propose(p) returns the configuration for the next execution given
///      the expected input data size p (tuners free to ignore it);
///   2. the caller executes and reports the outcome via Observe().
/// Implementations: CentroidLearner (Rockhopper), BoTuner (vanilla and
/// contextual Bayesian Optimization baselines), Flow2Tuner, and
/// ExpertPolicyTuner (simulated manual tuning).
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Configuration to execute next.
  virtual sparksim::ConfigVector Propose(double expected_data_size) = 0;

  /// Reports the observed runtime of executing `config` on input size
  /// `data_size`. Must be called with the proposed config (or any other
  /// config actually executed) before the next Propose for online learners.
  virtual void Observe(const sparksim::ConfigVector& config, double data_size,
                       double runtime) = 0;

  /// Short algorithm name for reports ("centroid-learning", "bo", ...).
  virtual std::string name() const = 0;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_TUNER_H_
