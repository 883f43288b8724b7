// Multi-tenant ingestion throughput of the sharded TuningService: one
// shared service, the TPC-DS suite as tenants, driven by 1 / 4 / 8 threads
// through the full OnQueryStart -> execute -> OnQueryEnd cycle.
//
// Query execution is modeled as blocking wall-clock latency (the remote
// Spark cluster holds a tenant's thread for the job's duration; the
// analytic simulator itself returns instantly). Tenant threads therefore
// overlap their waits, and throughput scales until the service's own
// serial CPU — sharded state + staged ingestion + journal commits —
// becomes the bottleneck. The latency=0 row measures that raw service
// overhead on its own.
//
// Prints queries/s per thread count and the speedup over single-threaded.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/journal.h"
#include "core/tuning_service.h"
#include "sparksim/workloads.h"
#include "tools/concurrent_driver.h"

namespace {

using namespace rockhopper;        // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

struct Row {
  int threads;
  tools::ConcurrentDriverReport report;
};

Row RunOnce(const std::vector<sparksim::QueryPlan>& plans, int threads,
            int iterations, int latency_us, const std::string& journal_path) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  core::TuningService service(space, nullptr, {}, 1234);

  core::ObservationJournal journal;
  if (!journal_path.empty()) {
    auto opened = core::ObservationJournal::Open(journal_path);
    if (opened.ok()) {
      journal = std::move(*opened);
      service.AttachJournal(&journal);
    }
  }

  tools::ConcurrentDriverOptions options;
  options.threads = threads;
  options.iterations = iterations;
  options.execution_latency_us = latency_us;
  options.seed = 1234;
  tools::ConcurrentDriver driver(&service, options);
  return Row{threads, driver.Run(plans)};
}

}  // namespace

int main(int argc, char** argv) {
  int iterations = 20;
  int latency_us = 2000;
  bool overhead_only = false;
  std::string journal_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--iters=", 0) == 0) iterations = std::atoi(arg.c_str() + 8);
    if (arg.rfind("--latency-us=", 0) == 0) {
      latency_us = std::atoi(arg.c_str() + 13);
    }
    if (arg.rfind("--journal=", 0) == 0) journal_path = arg.substr(10);
    // The observability overhead experiment: --metrics=off turns every
    // instrument update into a no-op branch, so metrics-on vs metrics-off
    // runs of the same workload isolate the cost of the metrics layer.
    if (arg == "--metrics=off") rockhopper::common::SetMetricsEnabled(false);
    if (arg == "--metrics=on") rockhopper::common::SetMetricsEnabled(true);
    // Print only the raw service-overhead line (what the overhead gate in
    // tools/run_benchmarks.sh --suite metrics parses) and exit.
    if (arg == "--overhead-only") overhead_only = true;
  }

  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= sparksim::kNumTpcdsQueries; ++q) {
    plans.push_back(sparksim::TpcdsPlan(q));
  }

  if (!overhead_only) {
    std::printf("concurrent ingestion throughput: %zu signatures x %d "
                "iterations, %d us simulated execution latency%s "
                "(metrics %s)\n\n",
                plans.size(), iterations, latency_us,
                journal_path.empty() ? "" : ", journaled",
                rockhopper::common::MetricsEnabled() ? "on" : "off");
  }

  // Raw service overhead: no execution latency, single thread. This is the
  // serial CPU cost per query the concurrent rows must amortize.
  {
    const Row raw = RunOnce(plans, 1, iterations, 0, "");
    std::printf("service overhead (latency=0, 1 thread): %.0f queries/s "
                "(%.1f us/query)\n\n",
                raw.report.queries_per_second,
                1e6 / raw.report.queries_per_second);
    if (overhead_only) return 0;
  }

  std::printf("%8s %12s %12s %10s\n", "threads", "queries/s", "wall (s)",
              "speedup");
  double base_qps = 0.0;
  for (const int threads : {1, 4, 8}) {
    const Row row =
        RunOnce(plans, threads, iterations, latency_us, journal_path);
    if (threads == 1) base_qps = row.report.queries_per_second;
    std::printf("%8d %12.0f %12.2f %9.2fx\n", threads,
                row.report.queries_per_second, row.report.wall_seconds,
                base_qps > 0.0 ? row.report.queries_per_second / base_qps
                               : 0.0);
  }
  return 0;
}
