// perfbench: the end-to-end benchmark of the tuning service.
//
//   perfbench prepare --workload W --seed N --workdir DIR [--toy]
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --workdir DIR [--spans FILE] [--toy]
//
// `prepare` writes the workload's untimed inputs (recovery chains) under
// DIR/chain; `run` stands up the server stack in process, drives it, checks
// the outputs and prints the result JSON as its last line. perfbench/run.py
// wraps both (build, prepare, run, clean up).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload "
               "tune_loop|telemetry_flood|cold_population --seed N "
               "[--seconds S] [--trace 0|1] --workdir DIR [--spans FILE] "
               "[--toy]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::RunOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!perfbench::KnownWorkload(options.workload) || options.workdir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage();
  }
  // Warnings from the service (e.g. missing transfer artifacts on a fresh
  // chain) are expected here and would only clutter the output.
  rockhopper::common::SetLogLevel(rockhopper::common::LogLevel::kError);

  if (mode == "prepare") {
    const rockhopper::Status status = perfbench::Prepare(options);
    if (!status.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage();
  const perfbench::Report report = perfbench::Run(options);
  perfbench::PrintReport(report, options.workload);
  return report.correct() ? 0 : 1;
}
