#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// JSON number with all its digits; non-finite values have no JSON form and
// are written as null so a broken metric is visible, not silently zero.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quote(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return (*values)[rank];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

void Report::Check(const std::string& name, bool passed,
                   const std::string& problem) {
  auto it = checks.find(name);
  if (it != checks.end() && !it->second.empty()) return;
  checks[name] = passed ? "" : (problem.empty() ? "failed" : problem);
}

bool Report::correct() const {
  if (checks.empty()) return false;
  for (const auto& [name, problem] : checks) {
    if (!problem.empty()) return false;
  }
  return true;
}

void PrintReport(const Report& report, const std::string& workload) {
  std::printf("detail %s: %s\n", workload.c_str(),
              MetricsJson(report.detail).c_str());
  for (const auto& [name, problem] : report.checks) {
    std::printf("check %-28s %s\n", name.c_str(),
                problem.empty() ? "ok" : ("FAILED: " + problem).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(report.metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
