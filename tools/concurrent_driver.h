#ifndef ROCKHOPPER_TOOLS_CONCURRENT_DRIVER_H_
#define ROCKHOPPER_TOOLS_CONCURRENT_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tuning_service.h"
#include "sparksim/plan.h"

namespace rockhopper::tools {

struct ConcurrentDriverOptions {
  /// Tenant threads submitting queries concurrently. Plan i is owned by
  /// thread `i % threads`, so every signature's start/end stream stays
  /// ordered (one producer per signature, like one recurring job per
  /// artifact) while distinct signatures overlap freely.
  int threads = 4;
  /// Executions per plan.
  int iterations = 20;
  /// Inject the production fault preset (job failures plus dropped /
  /// duplicated / reordered / corrupted telemetry) per plan.
  bool chaos = false;
  /// Simulated remote-cluster execution latency per query, in microseconds.
  /// The analytic simulator returns instantly; a real Spark job holds the
  /// tenant's thread for the whole run. Sleeping here reproduces that
  /// shape: tenant threads overlap their waits, and service-side CPU is the
  /// only serial resource. 0 measures raw service overhead instead.
  int execution_latency_us = 0;
  /// Runtime noise (fluctuation / spike levels) for the simulators.
  double fluctuation_level = 0.3;
  double spike_level = 0.3;
  uint64_t seed = 42;
};

struct ConcurrentDriverReport {
  /// Queries executed (= OnQueryStart calls; each is followed by at most
  /// one first-try delivery plus chaos duplicates/reorders).
  size_t queries = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
};

/// Multi-tenant load harness for TuningService: K worker threads drive M
/// query plans through the full OnQueryStart → simulate → OnQueryEnd cycle
/// against one shared service. Each plan gets its own simulator seeded from
/// `seed ^ plan.Signature()` and (under chaos) its own fault stream, so the
/// per-signature event sequence does not depend on how threads interleave.
class ConcurrentDriver {
 public:
  ConcurrentDriver(core::TuningService* service,
                   ConcurrentDriverOptions options)
      : service_(service), options_(options) {}

  /// Runs the workload to completion and reports aggregate throughput.
  /// `plans` must outlive the call; the service is left warm (states,
  /// observations, journal) for inspection.
  ConcurrentDriverReport Run(const std::vector<sparksim::QueryPlan>& plans);

  /// Drives a single plan through `options.iterations` start/simulate/end
  /// cycles against `service` on the calling thread — the per-tenant unit of
  /// work Run() fans out. Public so harnesses that bring their own executor
  /// (e.g. a ThreadPool::ParallelFor over plans) can reuse the exact tenant
  /// behavior, chaos injection included.
  static void DrivePlan(core::TuningService* service,
                        const sparksim::QueryPlan& plan,
                        const ConcurrentDriverOptions& options);

 private:
  core::TuningService* service_;
  ConcurrentDriverOptions options_;
};

}  // namespace rockhopper::tools

#endif  // ROCKHOPPER_TOOLS_CONCURRENT_DRIVER_H_
