#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time the run aims for. tune_loop and cold_population are
  /// fixed work sized from it (not timed against it); telemetry_flood
  /// spends it on its rate ladder.
  double seconds = 10.0;
  /// Traced run: an untraced and a traced pass of half the size each;
  /// reports the per-layer metrics and the tracing overhead between them.
  bool trace = false;
  /// Toy sizes for the smoke test.
  bool toy = false;
  /// Scratch directory for chains, journals and cold state (must exist).
  std::string workdir;
  /// Where the traced pass writes its spans (empty: not written).
  std::string spans_path;
};

/// True for tune_loop, telemetry_flood and cold_population.
bool KnownWorkload(const std::string& workload);

/// Writes the workload's untimed on-disk inputs (recovery chains) under
/// workdir/chain. A no-op for tune_loop.
rockhopper::Status Prepare(const RunOptions& options);

/// Runs the workload against a fresh in-process server stack.
Report Run(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
