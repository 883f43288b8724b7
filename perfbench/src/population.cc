#include "population.h"

#include <cmath>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "sparksim/noise.h"
#include "sparksim/workloads.h"

namespace perfbench {

namespace rh = rockhopper;
namespace sparksim = rockhopper::sparksim;

const sparksim::QueryPlan* Population::Find(uint64_t signature) const {
  auto it = index.find(signature);
  return it == index.end() ? nullptr : &plans[it->second];
}

Population MakePopulation(uint64_t seed, size_t count) {
  Population pop;
  pop.plans.reserve(count);
  pop.signatures.reserve(count);
  pop.index.reserve(count);
  const sparksim::PlanProfile profile;
  for (uint64_t i = 0; pop.plans.size() < count; ++i) {
    rh::common::Rng rng(rh::common::SplitMix64(seed ^ rh::common::SplitMix64(i)));
    sparksim::QueryPlan plan = sparksim::GeneratePlan(profile, &rng);
    const uint64_t signature = plan.Signature();
    if (!pop.index.emplace(signature, pop.plans.size()).second) continue;
    pop.signatures.push_back(signature);
    pop.plans.push_back(std::move(plan));
  }
  return pop;
}

rh::common::Rng ExecutionRng(uint64_t seed, uint64_t signature,
                             uint64_t iteration) {
  return rh::common::Rng(rh::common::SplitMix64(
      seed ^ rh::common::SplitMix64(signature ^
                                    rh::common::SplitMix64(iteration + 1))));
}

Executor::Executor() : space_(sparksim::QueryLevelSpace()) {}

double Executor::NoiseFree(const sparksim::QueryPlan& plan,
                           const sparksim::ConfigVector& config) const {
  return cost_model_.ExecutionSeconds(
      plan, sparksim::EffectiveConfig::FromQueryConfig(config), 1.0);
}

Execution Executor::Run(const sparksim::QueryPlan& plan,
                        const sparksim::ConfigVector& config,
                        rh::common::Rng* noise,
                        sparksim::FaultModel* faults) const {
  const sparksim::EffectiveConfig effective =
      sparksim::EffectiveConfig::FromQueryConfig(config);
  sparksim::ExecutionMetrics metrics;
  Execution run;
  run.noise_free = cost_model_.ExecutionSeconds(plan, effective, 1.0, &metrics);
  run.runtime =
      sparksim::ApplyNoise(run.noise_free, sparksim::NoiseParams::High(), noise);
  run.data_size = plan.stats().leaf_bytes;
  if (metrics.oom_events > 0) {
    run.failed = true;
    run.failure = sparksim::FailureKind::kBroadcastOom;
  }
  if (faults != nullptr) {
    const sparksim::JobFault fault = faults->DrawJobFault(effective, metrics);
    run.runtime *= fault.runtime_multiplier;
    if (fault.failed && !run.failed) {
      run.failed = true;
      run.failure = fault.kind;
    }
  }
  return run;
}

bool Executor::InBounds(const sparksim::ConfigVector& config) const {
  if (config.size() != space_.size()) return false;
  for (size_t i = 0; i < config.size(); ++i) {
    const sparksim::ParamSpec& p = space_.param(i);
    if (!(config[i] >= p.min_value && config[i] <= p.max_value)) return false;
  }
  return true;
}

namespace {

// A config near the defaults: each parameter scaled by a log-normal factor
// (what a tuner's first explorations look like), clamped into range.
sparksim::ConfigVector NearDefaults(const sparksim::ConfigSpace& space,
                                    rh::common::Rng* rng) {
  sparksim::ConfigVector config = space.Defaults();
  for (double& v : config) v *= std::exp(rng->Normal(0.0, 0.25));
  return space.Clamp(std::move(config));
}

rh::Status AppendRun(rh::core::ObservationJournal* journal,
                     const Population& pop, const Executor& executor,
                     uint64_t seed, size_t i, int iteration) {
  rh::common::Rng rng = ExecutionRng(seed, pop.signatures[i],
                                     static_cast<uint64_t>(iteration) + 1000);
  rh::core::Observation obs;
  obs.config = iteration == 0 ? executor.space().Defaults()
                              : NearDefaults(executor.space(), &rng);
  const Execution run = executor.Run(pop.plans[i], obs.config, &rng);
  obs.data_size = run.data_size;
  obs.runtime = run.runtime;
  obs.failed = run.failed;
  obs.iteration = iteration;
  return journal->Append(pop.signatures[i], obs);
}

}  // namespace

rh::Status WriteChain(const Population& pop, size_t count,
                      const Executor& executor, uint64_t seed, int history,
                      const std::string& journal_path) {
  ROCKHOPPER_ASSIGN_OR_RETURN(journal,
                              rh::core::ObservationJournal::Open(journal_path));
  rh::core::GroupCommitOptions gc;
  gc.max_batch = 512;
  gc.queue_capacity = 8192;
  ROCKHOPPER_RETURN_IF_ERROR(journal.StartGroupCommit(gc));
  const size_t n = count;
  for (int it = 0; it < history; ++it) {
    for (size_t i = 0; i < n; ++i) {
      ROCKHOPPER_RETURN_IF_ERROR(
          AppendRun(&journal, pop, executor, seed, i, it));
    }
  }
  ROCKHOPPER_RETURN_IF_ERROR(journal.Sync());
  ROCKHOPPER_RETURN_IF_ERROR(rh::core::CheckpointLive(&journal).status());

  // Churn: a slice of the population runs once more, absorbed into a delta
  // on top of the full image; a second slice stays in the live tail.
  const size_t churn = n / 20;  // 5 % of the signatures
  for (int phase = 0; phase < 2; ++phase) {
    rh::common::Rng pick(rh::common::SplitMix64(seed + 77 + phase));
    for (size_t k = 0; k < churn; ++k) {
      ROCKHOPPER_RETURN_IF_ERROR(AppendRun(&journal, pop, executor, seed,
                                           pick.Index(n), history + phase));
    }
    ROCKHOPPER_RETURN_IF_ERROR(journal.Sync());
    if (phase == 0) {
      ROCKHOPPER_RETURN_IF_ERROR(
          rh::core::CheckpointLive(&journal, rh::core::DeltaCheckpointPolicy{})
              .status());
    }
  }
  journal.StopGroupCommit();
  return journal.Close();
}

}  // namespace perfbench
