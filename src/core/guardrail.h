#ifndef ROCKHOPPER_CORE_GUARDRAIL_H_
#define ROCKHOPPER_CORE_GUARDRAIL_H_

#include <string>
#include <vector>

#include "common/archive.h"
#include "core/observation.h"

namespace rockhopper::core {

/// The production guardrail of §4.3: a per-query watchdog that disables
/// autotuning when observations indicate persistent regression instead of
/// improvement.
///
/// After a minimum exploration budget (30 iterations, so every query gets a
/// fair chance even through early noise), a regression of runtime on input
/// cardinality and iteration number is fitted over the history, per §4.3.
/// The fit is two-stage — data size first, then the iteration trend on the
/// residual — so runtime growth explainable by growing inputs is never
/// blamed on the tuner. A strike is recorded when the iteration trend,
/// projected over the history, exceeds `regression_threshold` of the typical
/// runtime (a de-noised version of the paper's "predicted next exceeds the
/// previous execution" check, robust to spike noise); `max_strikes`
/// consecutive strikes disable tuning permanently and the caller reinstates
/// the defaults.
struct GuardrailOptions {
  int min_iterations = 30;
  /// Relative excess of predicted-next over previous runtime that counts
  /// as a regression signal (0.1 = 10%).
  double regression_threshold = 0.1;
  /// Consecutive regression signals before tuning is disabled.
  int max_strikes = 3;
  /// Failure path (§4.3's "insufficient allocations can lead to ...
  /// failures"): every `failure_strike_threshold` *consecutive* failed
  /// executions earns one failure strike; `max_failure_strikes` strikes
  /// disable tuning. A lone sporadic failure resets the consecutive counter
  /// before it reaches the threshold and therefore never strikes. Unlike
  /// regression strikes, failure accounting ignores `min_iterations` — a
  /// configuration that kills jobs must not hide behind the exploration
  /// budget.
  int failure_strike_threshold = 2;
  int max_failure_strikes = 3;
};

class Guardrail {
 public:
  using Options = GuardrailOptions;

  explicit Guardrail(Options options = {}) : options_(options) {}

  /// Feeds one completed execution. Returns true while tuning may continue,
  /// false once disabled (sticky).
  bool Record(const Observation& obs);

  bool disabled() const { return disabled_; }
  int strikes() const { return strikes_; }
  int failure_strikes() const { return failure_strikes_; }
  int consecutive_failures() const { return consecutive_failures_; }
  const Options& options() const { return options_; }

  /// The runtime the trend model predicts for the next iteration, or a
  /// negative value when the model cannot be fitted yet. Exposed for the
  /// monitoring dashboard and tests.
  double PredictNextRuntime() const;

  /// Persists / restores the watchdog state (history, strikes, disabled
  /// flag) under `prefix`; options are reconstructed by the caller. A
  /// round-trip reproduces Record decisions bit-identically.
  Status Save(const std::string& prefix, common::ArchiveWriter* writer) const;
  Status Load(const std::string& prefix, const common::ArchiveReader& reader);

  /// Approximate resident footprint in bytes (dominated by the history).
  size_t ApproxBytes() const;

  /// One history row: the three fields the trend fit reads. An execution's
  /// config and failed flag are consumed by Record and not kept.
  struct TrendRow {
    double data_size = 1.0;
    double runtime = 0.0;
    int iteration = 0;
  };

 private:
  Options options_;
  std::vector<TrendRow> history_;
  bool disabled_ = false;
  int strikes_ = 0;
  int failure_strikes_ = 0;
  int consecutive_failures_ = 0;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_GUARDRAIL_H_
