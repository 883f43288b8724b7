#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Result assembly for one benchmark invocation: named metrics with units,
// named correctness checks, exact latency percentiles, and the process-level
// probes (CPU clocks, peak RSS) the end-to-end metrics are built from.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();
/// CPU time consumed so far by the whole process / the calling thread, in
/// nanoseconds (CLOCK_PROCESS_CPUTIME_ID / CLOCK_THREAD_CPUTIME_ID).
uint64_t ProcessCpuNs();
uint64_t ThreadCpuNs();
/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMib();

/// Exact percentile (nearest rank) of `values`; reorders the vector.
/// 0 when empty.
double Percentile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// A value as measured, with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One invocation's outcome. `attempted` counts requests sent, `failed`
/// those answered with anything but ok/busy or lost to the transport.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Check name -> empty when passed, otherwise what went wrong.
  std::map<std::string, std::string> checks;
  /// Informational values printed on the detail line (ladder rungs,
  /// sample counts, digests); not part of the compared metric set.
  std::map<std::string, Metric> detail;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail[name] = Metric{value, unit};
  }
  /// Records a check; `problem` empty means it passed. A check that fails
  /// once stays failed.
  void Check(const std::string& name, bool passed, const std::string& problem);
  bool correct() const;
};

/// Prints the detail and check lines, then the result line (last line of
/// stdout): {"correct", "attempted", "failed", "metrics"}.
void PrintReport(const Report& report, const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
