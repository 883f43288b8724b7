#ifndef PERFBENCH_POPULATION_H_
#define PERFBENCH_POPULATION_H_

// The benchmark's synthetic inputs: a population of generated query plans
// (distinct signatures), the client-side execution of a proposed config
// through the sparksim cost model with the paper's Eq. (8) production noise,
// and the on-disk checkpoint + delta + journal-tail chain a restarting
// service recovers from. Everything is a pure function of the seed.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sparksim/config_space.h"
#include "sparksim/cost_model.h"
#include "sparksim/fault.h"
#include "sparksim/plan.h"

namespace perfbench {

/// Generated plans with pairwise distinct signatures.
struct Population {
  std::vector<rockhopper::sparksim::QueryPlan> plans;
  std::vector<uint64_t> signatures;  ///< index-aligned with plans

  const rockhopper::sparksim::QueryPlan* Find(uint64_t signature) const;
  std::unordered_map<uint64_t, size_t> index;
};
/// `count` plans drawn from `seed`.
Population MakePopulation(uint64_t seed, size_t count);

/// One simulated query execution as the client sees it.
struct Execution {
  double runtime = 0.0;     ///< noisy seconds, what the telemetry reports
  double noise_free = 0.0;  ///< cost-model ground truth
  double data_size = 0.0;   ///< input bytes
  bool failed = false;
  rockhopper::sparksim::FailureKind failure =
      rockhopper::sparksim::FailureKind::kNone;
};

/// Runs configs through the cost model. Const and thread-safe; the noise
/// stream is the caller's.
class Executor {
 public:
  Executor();
  const rockhopper::sparksim::ConfigSpace& space() const { return space_; }

  double NoiseFree(const rockhopper::sparksim::QueryPlan& plan,
                   const rockhopper::sparksim::ConfigVector& config) const;
  /// Eq. (8) noise (FL = SL = 1, the paper's production setting) on top of
  /// the cost model; a fatal broadcast OOM fails the run. `faults`, when
  /// given, adds the production job-fault model (OOM, executor loss,
  /// timeouts, task retries).
  Execution Run(const rockhopper::sparksim::QueryPlan& plan,
                const rockhopper::sparksim::ConfigVector& config,
                rockhopper::common::Rng* noise,
                rockhopper::sparksim::FaultModel* faults = nullptr) const;

  /// Whether every value of `config` lies inside its parameter's range.
  bool InBounds(const rockhopper::sparksim::ConfigVector& config) const;

 private:
  rockhopper::sparksim::ConfigSpace space_;
  rockhopper::sparksim::CostModel cost_model_;
};

/// The noise stream of one execution: a function of (seed, signature,
/// iteration) only, so results do not depend on how signatures interleave
/// across connections.
rockhopper::common::Rng ExecutionRng(uint64_t seed, uint64_t signature,
                                     uint64_t iteration);

/// Writes a recovery chain for the first `count` plans of `population`
/// under `journal_path`: every signature's `history` executions absorbed
/// into a full checkpoint, then 5 % of the signatures re-executed once and
/// absorbed into an incremental delta, then another 5 % left in the live
/// journal tail. Untimed input preparation.
rockhopper::Status WriteChain(const Population& population, size_t count,
                              const Executor& executor, uint64_t seed,
                              int history, const std::string& journal_path);

}  // namespace perfbench

#endif  // PERFBENCH_POPULATION_H_
