// The fault and determinism verbs: tuning under injected production faults
// (one seed or a checked sweep), the whole-service simulation harness and
// its trace replay, and a metrics scrape over a chaos workload.

#include <stdlib.h>

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <system_error>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "sim/service_digest.h"
#include "sim/sim_runner.h"
#include "sim/trace.h"
#include "sparksim/fault.h"
#include "sparksim/simulator.h"
#include "tools/cli/cli.h"
#include "tools/concurrent_driver.h"

namespace rockhopper::cli {

using namespace rockhopper::core;  // NOLINT(build/namespaces)

namespace {

// A directory of this run's own under the system temp directory, removed
// with its contents at scope exit, so concurrent runs never share a file.
// path() is empty (and the reason printed) when it could not be made.
class RunScratchDir {
 public:
  RunScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "rockhopper-XXXXXX").string();
    if (::mkdtemp(pattern.data()) != nullptr) {
      path_ = pattern;
    } else {
      std::perror("cannot create a scratch directory");
    }
  }
  ~RunScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  RunScratchDir(const RunScratchDir&) = delete;
  RunScratchDir& operator=(const RunScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One chaos run's outcome plus any crash-safety invariant violations.
struct ChaosOutcome {
  size_t failures = 0, dropped = 0, duplicated = 0, reordered = 0,
         corrupted = 0;
  uint64_t accepted = 0;
  uint64_t journal_errors = 0;
  size_t disabled = 0, signatures = 0;
  std::vector<std::string> violations;
};

// Drives the full failure pipeline at one seed: the simulator injects job
// faults, the delivery loop below injects telemetry faults (drop / duplicate
// / reorder / corrupt), and the service sanitizes, imputes, falls back, and
// journals. With a journal attached the run shuts down through the
// Status-checked Close path and then verifies the crash-safety ledger:
// journal appends + lost records == accepted observations, a clean tail on
// recovery, and a recovered service whose guardrail verdicts match the live
// one.
ChaosOutcome RunChaosSeed(const Flags& flags, uint64_t seed,
                          const std::string& journal_path, bool verbose) {
  ChaosOutcome out;
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise =
      sparksim::NoiseParams{flags.Num("fl", 0.3), flags.Num("sl", 0.3)};
  sim_options.faults = sparksim::FaultParams::Production();
  sim_options.seed = seed;
  sparksim::SparkSimulator sim(sim_options);

  const bool journaled = !journal_path.empty();
  // The journal opens in append mode, so a pre-existing file contributes
  // records this run never ingested. Baseline them: the accounting check
  // below compares the *delta*, and the twin-recovery parity check only
  // holds when the twin replays exactly this run's history.
  uint64_t baseline_records = 0;
  if (journaled) {
    if (auto prior = RecoverJournalChain(journal_path); prior.ok()) {
      baseline_records = prior->checkpoint_records + prior->tail_records;
    }
  }
  auto built = BuildServiceStack(flags, "tpch", seed, journal_path);
  if (!built.ok()) {
    out.violations.push_back("cannot open journal: " +
                             built.status().ToString());
    return out;
  }
  ServiceStack& stack = **built;
  TuningService& service = *stack.service;

  const int iters = static_cast<int>(flags.Int("iters", 60));
  if (verbose) {
    std::printf("chaos-tuning %zu queries x %d iterations under injected "
                "faults\n\n",
                stack.plans.size(), iters);
  }

  uint64_t next_event_id = 1;
  for (size_t q = 1; q <= stack.plans.size(); ++q) {
    const sparksim::QueryPlan& plan = stack.plans[q - 1];
    // Reordered events park here and deliver after the next execution.
    std::deque<QueryEndEvent> delayed;
    for (int run = 0; run < iters; ++run) {
      const sparksim::ConfigVector config =
          service.OnQueryStart(plan, plan.LeafInputBytes(1.0));
      const sparksim::ExecutionResult result =
          sim.ExecuteQuery(plan, config, 1.0);
      if (result.failed) ++out.failures;

      QueryEndEvent event;
      event.event_id = next_event_id++;
      event.config = config;
      event.data_size = result.input_bytes;
      event.runtime = result.runtime_seconds;
      event.failed = result.failed;
      event.failure = result.failure;

      const sparksim::TelemetryFault fault =
          sim.fault_model().DrawTelemetryFault();
      if (fault.corruption != sparksim::TelemetryFault::Corruption::kNone) {
        event.runtime = sparksim::FaultModel::CorruptRuntime(event.runtime,
                                                             fault.corruption);
        ++out.corrupted;
      }
      if (fault.drop) {
        ++out.dropped;
      } else if (fault.reorder) {
        ++out.reordered;
        delayed.push_back(event);
      } else {
        service.OnQueryEnd(plan, event);
        if (fault.duplicate) {
          ++out.duplicated;
          service.OnQueryEnd(plan, event);
        }
        while (!delayed.empty()) {
          service.OnQueryEnd(plan, delayed.front());
          delayed.pop_front();
        }
      }
    }
    while (!delayed.empty()) {
      service.OnQueryEnd(plan, delayed.front());
      delayed.pop_front();
    }
    if (verbose && q <= 3) {
      if (auto explanation = service.ExplainQuery(plan.Signature());
          explanation.ok()) {
        std::printf("q%zu: %s\n", q, explanation->c_str());
      }
    }
  }

  const TelemetryStats& stats = service.telemetry_stats();
  out.accepted = stats.accepted;
  out.disabled = service.NumDisabled();
  out.signatures = service.NumSignatures();
  if (verbose) {
    std::printf("\ninjected: %zu job failures, %zu dropped, %zu duplicated, "
                "%zu reordered, %zu corrupted events\n",
                out.failures, out.dropped, out.duplicated, out.reordered,
                out.corrupted);
    std::printf("sanitizer: %" PRIu64 " accepted, %" PRIu64
                " rejected (%" PRIu64 " non-finite, %" PRIu64
                " non-positive, %" PRIu64 " duplicate), %" PRIu64
                " failures imputed\n",
                out.accepted, stats.total_rejected(),
                stats.rejected_nonfinite.load(),
                stats.rejected_nonpositive.load(),
                stats.rejected_duplicate.load(),
                stats.failures_ingested.load());
    std::printf("guardrail disabled %zu/%zu signatures\n", out.disabled,
                out.signatures);
  }

  if (!journaled) return out;
  if (Status st = service.Shutdown(); !st.ok()) {
    out.violations.push_back("journal shutdown failed: " + st.ToString());
  }
  out.journal_errors = stack.journal.lost_records();
  if (verbose) {
    std::printf("journal written to %s (%" PRIu64 " append errors)\n",
                journal_path.c_str(), out.journal_errors);
  }
  auto recovered = RecoverJournalChain(journal_path);
  if (!recovered.ok()) {
    out.violations.push_back("journal recovery failed: " +
                             recovered.status().ToString());
    return out;
  }
  if (!recovered->tail_status.ok()) {
    out.violations.push_back("journal tail unclean after clean shutdown: " +
                             recovered->tail_status.ToString());
  }
  const uint64_t records =
      recovered->checkpoint_records + recovered->tail_records;
  if (records - baseline_records + out.journal_errors != out.accepted) {
    out.violations.push_back(
        "journal accounting broken: recovered " +
        std::to_string(records - baseline_records) +
        " + errors " + std::to_string(out.journal_errors) +
        " != accepted " + std::to_string(out.accepted));
  }
  if (baseline_records > 0) return out;
  auto twin = BuildServiceStack(flags, "tpch", seed);
  if (auto report = (*twin)->service->RecoverFromCheckpoint(journal_path,
                                                            (*twin)->plans);
      !report.ok()) {
    out.violations.push_back("service recovery failed: " +
                             report.status().ToString());
  } else if ((*twin)->service->NumDisabled() != out.disabled) {
    out.violations.push_back(
        "recovered guardrail verdicts diverge: live disabled " +
        std::to_string(out.disabled) + ", recovered " +
        std::to_string((*twin)->service->NumDisabled()));
  }
  return out;
}

}  // namespace

int RunChaos(const Flags& flags) {
  const auto seeds = flags.Range("seeds");
  if (!seeds) {
    const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 29));
    const ChaosOutcome out = RunChaosSeed(
        flags, seed, flags.Text("journal", ""), /*verbose=*/true);
    for (const std::string& violation : out.violations) {
      std::fprintf(stderr, "violation: %s\n", violation.c_str());
    }
    return out.violations.empty() ? 0 : 1;
  }

  const auto [lo, hi] = *seeds;
  const RunScratchDir scratch;
  if (!flags.Has("journal") && scratch.path().empty()) return 1;
  const std::string journal_base =
      flags.Text("journal", scratch.path() + "/chaos.journal");
  std::printf("chaos sweep: seeds %" PRIu64 "..%" PRIu64 "\n", lo, hi);
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    const std::string journal_path =
        journal_base + "." + std::to_string(seed);
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);  // stale run
    const ChaosOutcome out =
        RunChaosSeed(flags, seed, journal_path, /*verbose=*/false);
    std::printf("seed %" PRIu64 ": %s accepted=%" PRIu64 " errors=%" PRIu64
                " disabled=%zu/%zu\n",
                seed, out.violations.empty() ? "PASS" : "FAIL", out.accepted,
                out.journal_errors, out.disabled, out.signatures);
    std::filesystem::remove(journal_path, ec);
    if (!out.violations.empty()) {
      for (const std::string& violation : out.violations) {
        std::fprintf(stderr, "  violation: %s\n", violation.c_str());
      }
      std::fprintf(stderr,
                   "reproduce with: rockhopper chaos --seed=%" PRIu64
                   " --journal=FILE\n",
                   seed);
      return 1;
    }
    if (seed == hi) break;  // ++seed would wrap at UINT64_MAX
  }
  return 0;
}

// Deterministic whole-service simulation (src/sim): each seed drives the
// multi-tenant service through a crash, recovery, and a second serving
// phase, checking the cross-layer invariants; --seeds sweeps a range and
// stops at the first violating seed.
int RunSimulate(const Flags& flags) {
  sim::SimulationOptions options;
  options.tenants = static_cast<int>(flags.Int("tenants", 4));
  options.events_per_tenant = static_cast<int>(flags.Int("events", 32));
  options.crash_fraction = flags.Num("crash-frac", 0.6);
  options.buggify = !flags.Bool("no-buggify");
  options.chaos = !flags.Bool("no-chaos");
  options.scratch_dir = flags.Text("scratch", "");
  const std::string trace_path = flags.Text("trace", "");

  const uint64_t single = static_cast<uint64_t>(flags.Int("seed", 1));
  const auto [lo, hi] =
      flags.Range("seeds").value_or(std::pair(single, single));

  bool warned_not_compiled = false;
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    options.seed = seed;
    if (!trace_path.empty()) {
      options.trace_path = lo == hi
                               ? trace_path
                               : trace_path + "." + std::to_string(seed);
    }
    const sim::SimulationReport report = sim::RunSimulation(options);
    std::printf("%s\n", report.Summary().c_str());
    if (options.buggify && !report.buggify_compiled && !warned_not_compiled) {
      std::fprintf(stderr,
                   "note: built without -DROCKHOPPER_SIM=ON; Buggify fault "
                   "sections are compiled out\n");
      warned_not_compiled = true;
    }
    if (!report.passed()) {
      std::fprintf(stderr,
                   "invariant violation at seed %" PRIu64 "\n"
                   "reproduce with: rockhopper simulate --seed=%" PRIu64 "\n",
                   seed, seed);
      return 1;
    }
    if (seed == hi) break;  // ++seed would wrap at UINT64_MAX
  }
  return 0;
}

// Replays a recorded trace twice into identically-seeded fresh services and
// verifies both replays land on the same state digest and the same metric
// deltas — the determinism contract that makes a recorded failure a
// debuggable artifact instead of a one-off.
int RunReplay(const Flags& flags) {
  const std::string trace_path = flags.Text("trace", "");
  if (trace_path.empty()) {
    std::fprintf(stderr, "replay requires --trace=FILE\n");
    return 2;
  }
  auto trace = sim::TraceReplayer::Read(trace_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));

  // The counters whose per-replay deltas must match exactly.
  const std::pair<const char*, const char*> kCounters[] = {
      {"rockhopper_queries_started_total", ""},
      {"rockhopper_queries_ended_total", ""},
      {"rockhopper_telemetry_events_total", "verdict=\"accepted\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_nonfinite\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_nonpositive\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_duplicate\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_config\""},
  };
  std::string digests[2];
  std::vector<double> deltas[2];
  sim::TraceReplayReport reports[2];
  for (int pass = 0; pass < 2; ++pass) {
    const common::MetricsSnapshot before =
        common::MetricsRegistry::Default().Snapshot();
    auto built = BuildServiceStack(flags, "tpch", seed);
    const ServiceStack& stack = **built;
    auto report =
        sim::TraceReplayer::Replay(*trace, stack.service.get(), stack.plans);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    reports[pass] = *report;
    std::vector<uint64_t> signatures;
    for (const sparksim::QueryPlan& plan : stack.plans) {
      signatures.push_back(plan.Signature());
    }
    digests[pass] = sim::DigestServiceState(*stack.service, signatures);
    const common::MetricsSnapshot after =
        common::MetricsRegistry::Default().Snapshot();
    for (const auto& [name, labels] : kCounters) {
      deltas[pass].push_back(after.Value(name, labels) -
                             before.Value(name, labels));
    }
  }
  std::printf("replayed %zu records (%zu proposals, %zu deliveries, %zu "
              "unknown signatures) twice\n",
              trace->records.size(), reports[0].proposals, reports[0].events,
              reports[0].unknown_signatures);
  if (digests[0] != digests[1]) {
    std::fprintf(stderr, "FAIL: replay diverged: digest %s vs %s\n",
                 digests[0].c_str(), digests[1].c_str());
    return 1;
  }
  if (deltas[0] != deltas[1]) {
    std::fprintf(stderr, "FAIL: replay metric deltas diverged\n");
    return 1;
  }
  std::printf("PASS: both replays converged to digest %s with identical "
              "metric deltas\n",
              digests[0].c_str());
  return 0;
}

// Exercises every instrumented subsystem, then prints one scrape of the
// process metrics registry: a chaos workload (job faults + telemetry faults,
// so the sanitizer / failure-policy / guardrail counters move) driven from a
// thread pool (so the pool's queue-depth / task-latency instruments report)
// through a journal (appends, batch sizes, flush latency). Without
// --journal the journal lives in a scratch directory of the run's own.
int RunMetrics(const Flags& flags) {
  const RunScratchDir scratch;
  if (!flags.Has("journal") && scratch.path().empty()) return 1;
  const std::string journal_path =
      flags.Text("journal", scratch.path() + "/metrics.journal");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 41));
  auto built = BuildServiceStack(flags, "tpch", seed, journal_path);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  ServiceStack& stack = **built;

  tools::ConcurrentDriverOptions driver_options;
  driver_options.iterations = static_cast<int>(flags.Int("iters", 30));
  driver_options.chaos = flags.Bool("chaos", true);
  driver_options.seed = seed;

  common::ThreadPool pool(static_cast<size_t>(flags.Int("threads", 4)));
  pool.ParallelFor(stack.plans.size(), [&](size_t i) {
    tools::ConcurrentDriver::DrivePlan(stack.service.get(), stack.plans[i],
                                       driver_options);
  });
  pool.Shutdown();
  int exit_code = 0;
  if (Status st = stack.service->Shutdown(); !st.ok()) {
    std::fprintf(stderr, "journal close failed: %s\n", st.ToString().c_str());
    exit_code = 1;
  }

  const common::MetricsSnapshot scrape = stack.service->Metrics();
  if (flags.Text("format", "prom") == "json") {
    std::printf("%s\n", scrape.ToJson().c_str());
  } else {
    std::printf("%s", scrape.ToPrometheusText().c_str());
  }
  return exit_code;
}

}  // namespace rockhopper::cli
