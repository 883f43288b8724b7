#include "tools/concurrent_driver.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "sparksim/fault.h"
#include "sparksim/simulator.h"

namespace rockhopper::tools {

// One tenant's recurring job: drives a single plan through `iterations`
// start/simulate/end cycles. Event ids are per-signature, which is all the
// sanitizer's per-signature dedup window needs.
void ConcurrentDriver::DrivePlan(core::TuningService* service,
                                 const sparksim::QueryPlan& plan,
                                 const ConcurrentDriverOptions& options) {
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams{options.fluctuation_level,
                                            options.spike_level};
  if (options.chaos) {
    sim_options.faults = sparksim::FaultParams::Production();
  }
  sim_options.seed = options.seed ^ plan.Signature();
  sparksim::SparkSimulator sim(sim_options);

  const core::TuningService::SignatureHandle handle = service->Handle(plan);
  const double data_size_hint = plan.LeafInputBytes(1.0);
  uint64_t next_event_id = 1;
  std::deque<core::QueryEndEvent> delayed;
  for (int run = 0; run < options.iterations; ++run) {
    const sparksim::ConfigVector config =
        service->OnQueryStart(handle, data_size_hint);
    const sparksim::ExecutionResult result =
        sim.ExecuteQuery(plan, config, 1.0);
    if (options.execution_latency_us > 0) {
      // The remote cluster holds this tenant's thread for the job's wall
      // time; the analytic model returned instantly, so sleep it out.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.execution_latency_us));
    }

    core::QueryEndEvent event;
    event.event_id = next_event_id++;
    event.config = config;
    event.data_size = result.input_bytes;
    event.runtime = result.runtime_seconds;
    event.failed = result.failed;
    event.failure = result.failure;

    if (options.chaos) {
      const sparksim::TelemetryFault fault =
          sim.fault_model().DrawTelemetryFault();
      if (fault.corruption != sparksim::TelemetryFault::Corruption::kNone) {
        event.runtime = sparksim::FaultModel::CorruptRuntime(event.runtime,
                                                             fault.corruption);
      }
      if (fault.drop) continue;
      if (fault.reorder) {
        delayed.push_back(event);
        continue;
      }
      service->OnQueryEnd(handle, event);
      if (fault.duplicate) service->OnQueryEnd(handle, event);
      while (!delayed.empty()) {
        service->OnQueryEnd(handle, delayed.front());
        delayed.pop_front();
      }
    } else {
      service->OnQueryEnd(handle, event);
    }
  }
  while (!delayed.empty()) {
    service->OnQueryEnd(handle, delayed.front());
    delayed.pop_front();
  }
}

ConcurrentDriverReport ConcurrentDriver::Run(
    const std::vector<sparksim::QueryPlan>& plans) {
  ConcurrentDriverReport report;
  if (plans.empty() || options_.iterations <= 0) return report;
  const int threads =
      std::max(1, std::min<int>(options_.threads,
                                static_cast<int>(plans.size())));

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < plans.size();
           i += static_cast<size_t>(threads)) {
        DrivePlan(service_, plans[i], options_);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const auto finished = std::chrono::steady_clock::now();

  report.queries =
      plans.size() * static_cast<size_t>(options_.iterations);
  report.wall_seconds =
      std::chrono::duration<double>(finished - started).count();
  report.queries_per_second =
      report.wall_seconds > 0.0 ? report.queries / report.wall_seconds : 0.0;
  return report;
}

}  // namespace rockhopper::tools
