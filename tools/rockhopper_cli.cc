// rockhopper — command-line driver for the library, the shape of the
// paper's operational tooling:
//
//   rockhopper flight --suite=tpcds --configs=8 --out=DIR
//       run the offline flighting pipeline, export the trace CSV, train
//       the baseline model, and store the serialized artifact (§4.2, §5);
//
//   rockhopper tune --suite=tpch --iters=40 --model-dir=DIR [--events=FILE]
//       load the stored baseline, tune the chosen suite online against the
//       simulator, print per-query outcomes, and optionally persist the
//       event log;
//
//   rockhopper report --events=FILE
//       reload a persisted event log and print the monitoring dashboard
//       (trend, per-dimension insights, RCA verdict) per query signature
//       (§6.3 posterior analysis);
//
//   rockhopper chaos --suite=tpch --iters=60 [--journal=FILE] [--seeds=A..B]
//       tune under the production fault-injection preset (job failures,
//       dropped/duplicated/corrupted telemetry) and print the sanitizer,
//       failure-policy, and guardrail outcomes; --seeds sweeps a seed range
//       with journal-accounting and recovery invariants checked per seed,
//       exiting non-zero with the reproducing seed on the first violation;
//
//   rockhopper simulate --seed=N | --seeds=A..B [--trace=FILE]
//       run the deterministic whole-service simulation harness (src/sim):
//       multi-tenant virtual-clock serving, a mid-run crash, recovery, and
//       cross-layer invariant checks, all derived from the seed; in
//       ROCKHOPPER_SIM builds Buggify sections also inject journal / model
//       store / pipeline faults (docs/FAULT_MODEL.md);
//
//   rockhopper replay --trace=FILE
//       load a CRC-checked trace recorded by simulate --trace and replay it
//       twice into identically-seeded fresh services, verifying both
//       replays converge to the same state digest and metric deltas;
//
//   rockhopper recover --journal=FILE --suite=tpch
//       restore a tuning service from the crash-safe journal chain
//       (checkpoint + sealed segments + live tail, tolerating a truncated
//       or corrupt tail) and print what survived, including the checkpoint
//       sequence and the replayed tail length;
//
//   rockhopper checkpoint --journal=FILE
//       compact the journal offline: seal the live file, absorb the sealed
//       segments into the checkpoint, and truncate the absorbed prefix;
//
//   rockhopper serve --suite=tpcds --threads=8 --iters=20 [--chaos]
//       drive one shared tuning service from concurrent tenant threads
//       (the multi-tenant deployment shape of §6.3) and print aggregate
//       throughput; --journal=FILE journals every accepted observation;
//       --memory-budget=BYTES arms the tiered state layer (cold-signature
//       eviction with transparent fault-in); --checkpoint-interval=N
//       compacts the journal every N accepted observations while serving;
//       exits with a metrics scrape (--metrics-format=prom|json|off);
//
//   rockhopper metrics --suite=tpch --iters=30 --threads=4 [--format=json]
//       exercise every instrumented subsystem (ingestion spans, journal
//       flushes, thread pool, simulator memo) with a chaos workload,
//       then print one scrape of the service's metrics registry in
//       Prometheus text or JSON exposition;
//
// Every run is deterministic given --seed (serve: per-signature streams are
// seed-deterministic; thread interleaving varies).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"

#include "core/checkpoint.h"
#include "core/embedding.h"
#include "core/flighting.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/monitor.h"
#include "core/tracing.h"
#include "core/transfer.h"
#include "core/tuning_service.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/server_core.h"
#include "sim/service_digest.h"
#include "sim/sim_runner.h"
#include "sim/trace.h"
#include "sparksim/fault.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"
#include "tools/concurrent_driver.h"

namespace {

using namespace rockhopper;        // NOLINT(build/namespaces)
using namespace rockhopper::core;  // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

// The one baseline-model key the CLI uses in its model store ("one model
// per region", §4.2).
constexpr uint64_t kRegionKey = 1;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  int GetInt(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "true";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

// Parses "A..B" (inclusive) or a single "N" into [lo, hi].
bool ParseSeedRange(const std::string& text, uint64_t* lo, uint64_t* hi) {
  if (text.empty()) return false;
  const size_t dots = text.find("..");
  char* end = nullptr;
  if (dots == std::string::npos) {
    *lo = *hi = std::strtoull(text.c_str(), &end, 10);
    return end != text.c_str() && *end == '\0';
  }
  const std::string a = text.substr(0, dots);
  const std::string b = text.substr(dots + 2);
  *lo = std::strtoull(a.c_str(), &end, 10);
  if (end == a.c_str() || *end != '\0') return false;
  *hi = std::strtoull(b.c_str(), &end, 10);
  if (end == b.c_str() || *end != '\0') return false;
  return *lo <= *hi;
}

FlightingConfig::Suite SuiteFromName(const std::string& name) {
  return name == "tpch" ? FlightingConfig::Suite::kTpch
                        : FlightingConfig::Suite::kTpcds;
}

int SuiteSize(FlightingConfig::Suite suite) {
  return suite == FlightingConfig::Suite::kTpch ? sparksim::kNumTpchQueries
                                                : sparksim::kNumTpcdsQueries;
}

int RunFlight(const Args& args) {
  const std::string out_dir = args.Get("out", "rockhopper-out");
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sim_options.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  sparksim::SparkSimulator sim(sim_options);
  FlightingPipeline pipeline(&sim, space);

  FlightingConfig config;
  config.suite = SuiteFromName(args.Get("suite", "tpcds"));
  config.configs_per_query = args.GetInt("configs", 8);
  config.runs_per_config = args.GetInt("runs", 1);
  config.config_generation = args.Get("generation", "Random");
  config.scale_factors = {1.0};
  config.seed = sim_options.seed;

  BaselineModel model(space);
  auto records = pipeline.TrainBaseline(config, &model,
                                        args.GetInt("max-samples", 0));
  if (!records.ok()) {
    std::fprintf(stderr, "flighting failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  ModelStore store(out_dir + "/models");
  const std::string trace_path = out_dir + "/trace.csv";
  if (auto st = pipeline.ExportCsv(trace_path, *records); !st.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto artifact = model.Serialize();
  if (!artifact.ok()) {
    std::fprintf(stderr, "serialize failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  auto generation = store.Put(kRegionKey, *artifact);
  if (!generation.ok()) {
    std::fprintf(stderr, "store failed: %s\n",
                 generation.status().ToString().c_str());
    return 1;
  }
  std::printf("flighting: %zu records -> %s\n", records->size(),
              trace_path.c_str());
  std::printf("baseline model: generation %d in %s/models\n", *generation,
              out_dir.c_str());
  return 0;
}

int RunTune(const Args& args) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::string model_dir = args.Get("model-dir", "rockhopper-out");
  BaselineModel model(space);
  const BaselineModel* baseline = nullptr;
  ModelStore store(model_dir + "/models");
  if (auto artifact = store.GetLatest(kRegionKey); artifact.ok()) {
    if (model.Deserialize(*artifact).ok()) {
      baseline = &model;
      std::printf("loaded baseline model from %s/models\n",
                  model_dir.c_str());
    } else {
      std::fprintf(stderr, "stored baseline model is unreadable; tuning "
                           "cold\n");
    }
  } else if (artifact.status().code() == StatusCode::kNotFound) {
    // Expected cold start: nothing stored under this key yet.
    std::printf("no stored baseline model; tuning cold\n");
  } else {
    // kIOError (or worse): the artifact may exist but could not be read —
    // worth a loud warning, unlike the routine cold start above.
    std::fprintf(stderr, "model store read failed: %s; tuning cold\n",
                 artifact.status().ToString().c_str());
  }

  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams{args.GetDouble("fl", 0.3),
                                            args.GetDouble("sl", 0.3)};
  sim_options.seed = static_cast<uint64_t>(args.GetInt("seed", 23));
  sparksim::SparkSimulator sim(sim_options);

  TuningServiceOptions service_options;
  TuningService service(space, baseline, service_options, sim_options.seed);

  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  const int iters = args.GetInt("iters", 40);
  const int count = SuiteSize(suite);
  std::printf("tuning %d queries x %d iterations (FL=%.2f SL=%.2f)\n\n",
              count, iters, sim_options.noise.fluctuation_level,
              sim_options.noise.spike_level);

  double default_total = 0.0, tuned_total = 0.0;
  for (int q = 1; q <= count; ++q) {
    const sparksim::QueryPlan plan = FlightingPipeline::PlanFor(suite, q);
    const double default_sec = sim.cost_model().ExecutionSeconds(
        plan, sparksim::EffectiveConfig::FromQueryConfig(space.Defaults()),
        1.0);
    double tail = 0.0;
    const int tail_n = std::max(1, iters / 8);
    for (int run = 0; run < iters; ++run) {
      const sparksim::ConfigVector config =
          service.OnQueryStart(plan, plan.LeafInputBytes(1.0));
      const sparksim::ExecutionResult result =
          sim.ExecuteQuery(plan, config, 1.0);
      service.OnQueryEnd(plan,
                         QueryEndEvent::FromRun(config, result.input_bytes,
                                                result.runtime_seconds));
      if (run >= iters - tail_n) tail += result.noise_free_seconds;
    }
    tail /= tail_n;
    default_total += default_sec;
    tuned_total += tail;
    std::printf("q%-3d  %8.2f s -> %8.2f s  (%+6.1f%%)%s\n", q, default_sec,
                tail, 100.0 * (default_sec - tail) / default_sec,
                service.IsTuningEnabled(plan.Signature()) ? ""
                                                          : "  [guardrail]");
  }
  std::printf("\nsuite: %.1f s -> %.1f s (%.1f%% improvement); guardrail "
              "disabled %zu/%zu\n",
              default_total, tuned_total,
              100.0 * (default_total - tuned_total) / default_total,
              service.NumDisabled(), service.NumSignatures());

  const std::string events = args.Get("events", "");
  if (!events.empty()) {
    if (auto st = ExportObservations(space, service.observations(), events);
        !st.ok()) {
      std::fprintf(stderr, "event export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("event log written to %s\n", events.c_str());
  }
  return 0;
}

int RunReport(const Args& args) {
  const std::string events = args.Get("events", "");
  if (events.empty()) {
    std::fprintf(stderr, "report requires --events=FILE\n");
    return 1;
  }
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  auto imported = ImportObservations(space, events);
  if (!imported.ok()) {
    std::fprintf(stderr, "cannot load events: %s\n",
                 imported.status().ToString().c_str());
    return 1;
  }
  if (imported->skipped_rows > 0) {
    std::printf("skipped %zu corrupt rows (non-finite/non-positive values)\n",
                imported->skipped_rows);
  }
  for (uint64_t signature : imported->store.Signatures()) {
    TuningMonitor monitor(&space);
    for (const Observation& obs : imported->store.History(signature)) {
      MonitorRecord record;
      record.iteration = obs.iteration;
      record.config = obs.config;
      record.data_size = obs.data_size;
      record.runtime = obs.runtime;
      record.failed = obs.failed;
      monitor.Record(record);
    }
    std::printf("--- signature %llu ---\n%s\n",
                static_cast<unsigned long long>(signature),
                monitor.Report().c_str());
  }
  return 0;
}

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
ChaosOutcome RunChaosSeed(const Args& args, uint64_t seed,
                          const std::string& journal_path, bool verbose) {
  ChaosOutcome out;
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams{args.GetDouble("fl", 0.3),
                                            args.GetDouble("sl", 0.3)};
  sim_options.faults = sparksim::FaultParams::Production();
  sim_options.seed = seed;
  sparksim::SparkSimulator sim(sim_options);

  TuningServiceOptions service_options;
  TuningService service(space, nullptr, service_options, seed);

  ObservationJournal journal;
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
    auto opened = ObservationJournal::Open(journal_path);
    if (!opened.ok()) {
      out.violations.push_back("cannot open journal: " +
                               opened.status().ToString());
      return out;
    }
    journal = std::move(*opened);
    service.AttachJournal(&journal);
  }

  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  const int iters = args.GetInt("iters", 60);
  const int count = SuiteSize(suite);
  if (verbose) {
    std::printf("chaos-tuning %d queries x %d iterations under injected "
                "faults\n\n",
                count, iters);
  }

  std::vector<sparksim::QueryPlan> plans;
  uint64_t next_event_id = 1;
  for (int q = 1; q <= count; ++q) {
    const sparksim::QueryPlan plan = FlightingPipeline::PlanFor(suite, q);
    plans.push_back(plan);
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
    if (verbose) {
      if (auto explanation = service.ExplainQuery(plan.Signature());
          explanation.ok() && q <= 3) {
        std::printf("q%d: %s\n", q, explanation->c_str());
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
    std::printf("sanitizer: %llu accepted, %llu rejected (%llu non-finite, "
                "%llu non-positive, %llu duplicate), %llu failures imputed\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.total_rejected()),
                static_cast<unsigned long long>(stats.rejected_nonfinite),
                static_cast<unsigned long long>(stats.rejected_nonpositive),
                static_cast<unsigned long long>(stats.rejected_duplicate),
                static_cast<unsigned long long>(stats.failures_ingested));
    std::printf("guardrail disabled %zu/%zu signatures\n", service.NumDisabled(),
                service.NumSignatures());
  }

  if (!journaled) return out;
  if (Status st = service.Shutdown(); !st.ok()) {
    out.violations.push_back("journal shutdown failed: " + st.ToString());
  }
  out.journal_errors = journal.lost_records();
  if (verbose) {
    std::printf("journal written to %s (%llu append errors)\n",
                journal_path.c_str(),
                static_cast<unsigned long long>(out.journal_errors));
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
  TuningService twin(space, nullptr, service_options, seed);
  if (auto report = twin.RecoverFromCheckpoint(journal_path, plans);
      !report.ok()) {
    out.violations.push_back("service recovery failed: " +
                             report.status().ToString());
  } else if (twin.NumDisabled() != out.disabled) {
    out.violations.push_back(
        "recovered guardrail verdicts diverge: live disabled " +
        std::to_string(out.disabled) + ", recovered " +
        std::to_string(twin.NumDisabled()));
  }
  return out;
}

int RunChaos(const Args& args) {
  const std::string seeds_flag = args.Get("seeds", "");
  if (seeds_flag.empty()) {
    const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 29));
    const ChaosOutcome out =
        RunChaosSeed(args, seed, args.Get("journal", ""), /*verbose=*/true);
    for (const std::string& violation : out.violations) {
      std::fprintf(stderr, "violation: %s\n", violation.c_str());
    }
    return out.violations.empty() ? 0 : 1;
  }

  uint64_t lo = 0, hi = 0;
  if (!ParseSeedRange(seeds_flag, &lo, &hi)) {
    std::fprintf(stderr, "chaos: bad --seeds (want A..B): %s\n",
                 seeds_flag.c_str());
    return 2;
  }
  const std::string journal_base =
      args.Get("journal", (std::filesystem::temp_directory_path() /
                           "rockhopper-chaos.journal")
                              .string());
  std::printf("chaos sweep: seeds %llu..%llu\n",
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    const std::string journal_path =
        journal_base + "." + std::to_string(seed);
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);  // stale run
    const ChaosOutcome out =
        RunChaosSeed(args, seed, journal_path, /*verbose=*/false);
    std::printf("seed %llu: %s accepted=%llu errors=%llu disabled=%zu/%zu\n",
                static_cast<unsigned long long>(seed),
                out.violations.empty() ? "PASS" : "FAIL",
                static_cast<unsigned long long>(out.accepted),
                static_cast<unsigned long long>(out.journal_errors),
                out.disabled, out.signatures);
    std::filesystem::remove(journal_path, ec);
    if (!out.violations.empty()) {
      for (const std::string& violation : out.violations) {
        std::fprintf(stderr, "  violation: %s\n", violation.c_str());
      }
      std::fprintf(stderr,
                   "reproduce with: rockhopper chaos --seed=%llu "
                   "--journal=FILE\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
  }
  return 0;
}

// Builds the tiered-state configuration from the shared CLI flags:
// --memory-budget is the one process-wide budget, split between resident
// query state and observation history by --state-budget-fraction; --idle-ttl
// plus --sweep-interval-ms arm the background sweeper; --compress=false
// disables cold-artifact and checkpoint compression. The plan resolver is
// supplied per-command (each owns its plan index).
StateTierOptions StateTierFromArgs(const Args& args, uint64_t memory_budget,
                                   PlanResolver resolver) {
  StateTierOptions tier;
  tier.shared_budget_bytes = memory_budget;
  tier.state_budget_fraction = args.GetDouble(
      "state-budget-fraction", StateTierOptions().state_budget_fraction);
  tier.observation_window =
      static_cast<size_t>(args.GetInt("obs-window", 0));
  tier.idle_ttl_ticks = static_cast<uint64_t>(args.GetInt("idle-ttl", 0));
  tier.sweep_interval_ms = args.GetInt("sweep-interval-ms", 1000);
  tier.compress_artifacts = args.Get("compress", "true") != "false";
  tier.compress_checkpoints = tier.compress_artifacts;
  tier.lazy_recovery = args.Get("lazy-recovery", "") == "true";
  tier.plan_resolver = std::move(resolver);
  return tier;
}

int RunRecover(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "recover requires --journal=FILE\n");
    return 1;
  }
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }
  TuningService service(space, nullptr, {},
                        static_cast<uint64_t>(args.GetInt("seed", 31)));

  // --lazy-recovery (requires a state tier) restores signatures as cold
  // pointers that fault in on first touch instead of decoding everything up
  // front — the bounded-memory restart path.
  const uint64_t memory_budget =
      std::strtoull(args.Get("memory-budget", "0").c_str(), nullptr, 10);
  std::map<uint64_t, const sparksim::QueryPlan*> plan_index;
  for (const sparksim::QueryPlan& plan : plans) {
    plan_index[plan.Signature()] = &plan;
  }
  std::optional<ModelStore> state_store;
  TuningService::RecoveryOptions recovery;
  if (memory_budget > 0 || args.Get("lazy-recovery", "") == "true") {
    state_store.emplace(args.Get("state-dir", "rockhopper-state"));
    service.AttachStateTier(
        &*state_store,
        StateTierFromArgs(
            args, memory_budget,
            [&plan_index](uint64_t signature) -> const sparksim::QueryPlan* {
              auto it = plan_index.find(signature);
              return it == plan_index.end() ? nullptr : it->second;
            }));
    recovery.lazy = service.state_tier_options().lazy_recovery;
  }
  auto report = service.RecoverFromCheckpoint(journal_path, plans, recovery);
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "no journal at %s\n", journal_path.c_str());
    } else {
      std::fprintf(stderr, "recovery failed: %s\n",
                   report.status().ToString().c_str());
    }
    return 1;
  }
  // The tail status distinguishes a clean shutdown from recovered-around
  // damage: kDataLoss means bytes were dropped and re-running recover will
  // not bring them back.
  if (report->journal_status.ok()) {
    std::printf("journal %s: clean\n", journal_path.c_str());
  } else if (report->journal_status.code() == StatusCode::kDataLoss) {
    std::printf("journal %s: recovered around damaged tail (%s)\n",
                journal_path.c_str(),
                report->journal_status.ToString().c_str());
  } else {
    std::printf("journal %s: %s\n", journal_path.c_str(),
                report->journal_status.ToString().c_str());
  }
  std::printf("checkpoint seq %llu; replayed tail of %zu records across "
              "%zu sealed segments + live journal\n",
              static_cast<unsigned long long>(report->checkpoint_seq),
              report->tail_records, report->segments_replayed);
  std::printf("recovered %zu signatures, %zu observations (%zu dropped, "
              "%zu unknown signatures)\n",
              report->signatures_restored, report->observations_replayed,
              report->observations_dropped, report->unknown_signatures);
  for (const sparksim::QueryPlan& plan : plans) {
    const size_t n = service.IterationCount(plan.Signature());
    if (n == 0) continue;
    std::printf("  signature %llu: %zu iterations, tuning %s\n",
                static_cast<unsigned long long>(plan.Signature()), n,
                service.IsTuningEnabled(plan.Signature()) ? "enabled"
                                                          : "disabled");
  }
  return 0;
}

// Operator debugging of bad warm starts: recover a service from the journal
// chain with the transfer tier armed, then print the signature's k nearest
// registered neighbors — raw and normalized embedding distance plus the
// incumbent config the zero-execution recommendation would blend from.
// Uses the exact scan (not HNSW) so the output is the ground truth the
// approximate search is measured against.
int RunNeighbors(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "neighbors requires --journal=FILE\n");
    return 1;
  }
  std::string signature_text = args.Get("signature", "");
  if (signature_text.empty() && !args.positional.empty()) {
    signature_text = args.positional.front();
  }
  if (signature_text.empty()) {
    std::fprintf(stderr,
                 "usage: rockhopper neighbors <signature> --journal=FILE "
                 "[--suite=tpch|tpcds] [--k=N]\n");
    return 1;
  }
  char* end = nullptr;
  const uint64_t signature =
      std::strtoull(signature_text.c_str(), &end, 10);
  if (end == signature_text.c_str() || *end != '\0') {
    std::fprintf(stderr, "neighbors: '%s' is not a signature\n",
                 signature_text.c_str());
    return 1;
  }

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }
  TuningServiceOptions options;
  options.transfer.enabled = true;
  TuningService service(space, nullptr, options,
                        static_cast<uint64_t>(args.GetInt("seed", 31)));
  auto report = service.RecoverFromCheckpoint(journal_path, plans);
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const sparksim::QueryPlan* query_plan = nullptr;
  for (const sparksim::QueryPlan& plan : plans) {
    if (plan.Signature() == signature) {
      query_plan = &plan;
      break;
    }
  }
  if (query_plan == nullptr) {
    std::fprintf(stderr,
                 "signature %llu is not in suite %s; recovered signatures:\n",
                 static_cast<unsigned long long>(signature),
                 args.Get("suite", "tpch").c_str());
    for (const sparksim::QueryPlan& plan : plans) {
      if (service.IterationCount(plan.Signature()) == 0) continue;
      std::fprintf(stderr, "  %llu\n",
                   static_cast<unsigned long long>(plan.Signature()));
    }
    return 1;
  }

  const std::vector<double> embedding =
      ComputeEmbedding(*query_plan, options.embedding);
  const size_t k = static_cast<size_t>(args.GetInt("k", 8));
  const std::vector<TransferNeighbor> neighbors =
      service.transfer_index()->ExactNeighbors(embedding, k, signature);
  std::printf("signature %llu: %zu nearest of %zu registered "
              "(radius %.2f normalized)\n",
              static_cast<unsigned long long>(signature), neighbors.size(),
              service.transfer_index()->Size(),
              options.transfer.max_distance);
  for (const TransferNeighbor& n : neighbors) {
    std::printf("  signature %llu  distance=%.4f  normalized=%.4f  "
                "iterations=%zu  tuning %s\n",
                static_cast<unsigned long long>(n.signature), n.distance,
                n.normalized_distance, service.IterationCount(n.signature),
                service.IsTuningEnabled(n.signature) ? "enabled" : "disabled");
    auto incumbent = service.IncumbentConfig(n.signature);
    if (!incumbent.ok()) {
      std::printf("    incumbent unavailable: %s\n",
                  incumbent.status().ToString().c_str());
      continue;
    }
    std::printf("    incumbent:");
    for (size_t i = 0; i < space.size() && i < incumbent->size(); ++i) {
      std::printf(" %s=%g", space.param(i).name.c_str(), (*incumbent)[i]);
    }
    std::printf("\n");
  }
  return 0;
}

// Offline journal compaction: seal the live file behind a rotation barrier,
// absorb the sealed segments into the checkpoint, truncate the absorbed
// prefix. Safe to re-run; a crashed previous compaction is finished.
int RunCheckpoint(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "checkpoint requires --journal=FILE\n");
    return 1;
  }
  // Open would create an empty journal; an explicit miss is more useful.
  if (!std::filesystem::exists(journal_path)) {
    std::fprintf(stderr, "no journal at %s\n", journal_path.c_str());
    return 1;
  }
  auto opened = ObservationJournal::Open(journal_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open journal: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ObservationJournal journal = std::move(*opened);
  auto report = CheckpointLive(&journal);
  const Status closed = journal.Close();
  if (!report.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!closed.ok()) {
    std::fprintf(stderr, "journal close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint %s: seq %llu, %zu records (%zu segments absorbed,"
              " %zu torn records dropped)\n",
              report->checkpoint_path.c_str(),
              static_cast<unsigned long long>(report->last_segment),
              report->records, report->segments_absorbed,
              report->records_dropped);
  return 0;
}

// Multi-tenant load harness: K threads drive the suite's plans through one
// shared service. With --journal, every accepted observation is journaled
// and committed before OnQueryEnd returns.
// --memory-budget arms the tiered state layer; --checkpoint-interval runs a
// background compactor every N accepted observations.
// SIGINT/SIGTERM → drain-and-exit for `serve --listen`. RequestStop is one
// atomic store, so the handler is async-signal-safe.
std::atomic<net::Server*> g_listen_server{nullptr};

void HandleStopSignal(int) {
  if (net::Server* server = g_listen_server.load(std::memory_order_acquire)) {
    server->RequestStop();
  }
}

// Parses --listen: "" / "true" → ephemeral port on 127.0.0.1; "PORT";
// "HOST:PORT". Returns false on malformed input.
bool ParseListen(const std::string& value, std::string* host,
                 uint16_t* port) {
  *host = "127.0.0.1";
  *port = 0;
  if (value.empty() || value == "true") return true;
  const size_t colon = value.rfind(':');
  std::string port_text = value;
  if (colon != std::string::npos) {
    if (colon > 0) *host = value.substr(0, colon);
    port_text = value.substr(colon + 1);
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || parsed > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(parsed);
  return true;
}

// The network deployment shape: the tuning service behind the wire-protocol
// front end, per-tenant token buckets + the global admission controller in
// front of ingestion, and a drain-first shutdown so the exit-report counters
// cover every request the server acked.
int RunServeListen(const Args& args) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite =
      SuiteFromName(args.Get("suite", "tpcds"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }

  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 37));
  TuningService service(space, nullptr, TuningServiceOptions{}, seed);

  const uint64_t memory_budget =
      std::strtoull(args.Get("memory-budget", "0").c_str(), nullptr, 10);
  std::map<uint64_t, const sparksim::QueryPlan*> plan_index;
  for (const sparksim::QueryPlan& plan : plans) {
    plan_index[plan.Signature()] = &plan;
  }
  std::optional<ModelStore> state_store;
  const int idle_ttl = args.GetInt("idle-ttl", 0);
  if (memory_budget > 0 || idle_ttl > 0) {
    state_store.emplace(args.Get("state-dir", "rockhopper-state"));
    service.AttachStateTier(
        &*state_store,
        StateTierFromArgs(
            args, memory_budget,
            [&plan_index](uint64_t signature) -> const sparksim::QueryPlan* {
              auto it = plan_index.find(signature);
              return it == plan_index.end() ? nullptr : it->second;
            }));
    // The long-running server owns a sweeper thread: idle-TTL eviction and
    // observation-budget enforcement tick without a foreground driver.
    if (service.state_tier_options().sweep_interval_ms > 0) {
      service.StartStateSweeper();
    }
  }

  ObservationJournal journal;
  const std::string journal_path = args.Get("journal", "");
  if (!journal_path.empty()) {
    auto opened = ObservationJournal::Open(journal_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open journal: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    journal = std::move(*opened);
    service.AttachJournal(&journal);
  }

  net::PlanRegistry registry;
  for (const sparksim::QueryPlan& plan : plans) registry.Register(&plan);

  net::ServerCoreOptions core_options;
  core_options.tenant_limits.default_rate = args.GetDouble("tenant-rate", 0.0);
  core_options.tenant_limits.burst_seconds =
      args.GetDouble("tenant-burst-s", 0.25);
  core_options.admission.flush_p99_target =
      args.GetDouble("flush-p99-target", 0.050);
  core_options.admission.queue_depth_target = args.GetDouble(
      "queue-target", net::AdmissionController::Options().queue_depth_target);
  core_options.tiering_budget_bytes = memory_budget;
  core_options.admin_token = args.Get("admin-token", "");
  core_options.max_batch =
      static_cast<size_t>(std::max(1, args.GetInt("net-batch", 64)));
  net::ServerCore core(&service, &registry, core_options);

  net::ServerOptions server_options;
  if (!ParseListen(args.Get("listen", ""), &server_options.host,
                   &server_options.port)) {
    std::fprintf(stderr, "malformed --listen (want PORT or HOST:PORT)\n");
    return 2;
  }
  server_options.io_threads = args.GetInt("io-threads", 1);
  net::Server server(&core, server_options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Scripts wait for this line to learn the ephemeral port.
  std::printf("listening on %s:%u (%zu signatures, suite %s)\n",
              server_options.host.c_str(), server.port(), registry.size(),
              args.Get("suite", "tpcds").c_str());
  std::fflush(stdout);

  g_listen_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  const double duration_s = args.GetDouble("duration-s", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (!server.stop_requested()) {
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain before the final scrape: staged observe batches flush through the
  // service and buffered responses are written, so every request the server
  // acked is inside the counters printed below.
  server.Stop(args.GetInt("drain-ms", 2000));
  g_listen_server.store(nullptr, std::memory_order_release);

  int exit_code = 0;
  if (!journal_path.empty()) {
    if (Status st = service.Shutdown(); !st.ok()) {
      std::fprintf(stderr, "journal shutdown failed: %s\n",
                   st.ToString().c_str());
      exit_code = 1;
    }
  }
  const ServiceMetrics& m = ServiceMetrics::Get();
  const TelemetryStats& stats = service.telemetry_stats();
  std::printf("\nconnections: %llu accepted; rx %llu bytes, tx %llu bytes\n",
              static_cast<unsigned long long>(
                  m.net_connections_accepted->Value()),
              static_cast<unsigned long long>(m.net_rx_bytes->Value()),
              static_cast<unsigned long long>(m.net_tx_bytes->Value()));
  std::printf("requests: %llu observe, %llu propose, %llu metrics, %llu "
              "health\n",
              static_cast<unsigned long long>(
                  m.net_requests_observe->Value()),
              static_cast<unsigned long long>(
                  m.net_requests_propose->Value()),
              static_cast<unsigned long long>(
                  m.net_requests_metrics->Value()),
              static_cast<unsigned long long>(m.net_requests_health->Value()));
  std::printf("shed: %llu tenant-limit, %llu global-admission (final rate "
              "%.3f, pressure %s); frame errors: %llu crc, %llu frame, %llu "
              "payload\n",
              static_cast<unsigned long long>(m.net_shed_tenant->Value()),
              static_cast<unsigned long long>(m.net_shed_global->Value()),
              core.admission().rate(), core.admission().pressure_source(),
              static_cast<unsigned long long>(m.net_bad_crc->Value()),
              static_cast<unsigned long long>(m.net_bad_frame->Value()),
              static_cast<unsigned long long>(m.net_bad_payload->Value()));
  // Histogram-derived latency quantiles (the Percentile helper): the
  // server-side decode-to-response distribution.
  std::printf("request latency: p50 %.6f s, p99 %.6f s over %llu requests; "
              "mean batch %.1f\n",
              m.net_request_seconds->Percentile(0.50),
              m.net_request_seconds->Percentile(0.99),
              static_cast<unsigned long long>(m.net_request_seconds->Count()),
              m.net_batch_size->Count() > 0
                  ? m.net_batch_size->Sum() /
                        static_cast<double>(m.net_batch_size->Count())
                  : 0.0);
  // The drain contract, stated in counters: deliveries == verdicts.
  const unsigned long long delivered =
      static_cast<unsigned long long>(m.queries_ended->Value());
  const unsigned long long verdicts = static_cast<unsigned long long>(
      stats.accepted.load(std::memory_order_relaxed) + stats.total_rejected());
  std::printf("service: %llu deliveries -> %llu verdicts (%llu accepted, "
              "%llu rejected)%s\n",
              delivered, verdicts,
              static_cast<unsigned long long>(
                  stats.accepted.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(stats.total_rejected()),
              delivered == verdicts ? "" : "  [MISMATCH]");
  if (!journal_path.empty()) {
    std::printf("journal written to %s (%llu append errors)\n",
                journal_path.c_str(),
                static_cast<unsigned long long>(journal.lost_records()));
  }
  if (delivered != verdicts) exit_code = 1;

  const std::string metrics_format = args.Get("metrics-format", "prom");
  if (metrics_format != "off") {
    const common::MetricsSnapshot scrape = service.Metrics();
    std::printf("\n# --- metrics scrape at exit ---\n");
    if (metrics_format == "json") {
      std::printf("%s\n", scrape.ToJson().c_str());
    } else {
      std::printf("%s", scrape.ToPrometheusText().c_str());
    }
  }
  return exit_code;
}

// Runtime control plane: one authenticated Admin frame against a running
// `serve --listen --admin-token=SECRET` process. Exactly one operation per
// invocation:
//   rockhopper admin --connect=HOST:PORT --token=SECRET \
//       --set-tenant-rate=RATE --tenant=ID      # pin one tenant's rate
//   rockhopper admin --connect=HOST:PORT --token=SECRET \
//       --set-budget=BYTES                      # shared memory budget
int RunAdmin(const Args& args) {
  std::string host;
  uint16_t port = 0;
  if (!ParseListen(args.Get("connect", ""), &host, &port) || port == 0) {
    std::fprintf(stderr, "admin requires --connect=HOST:PORT\n");
    return 2;
  }
  net::AdminRequest request;
  request.token = args.Get("token", "");
  const bool set_rate = args.flags.count("set-tenant-rate") != 0;
  const bool set_budget = args.flags.count("set-budget") != 0;
  if (set_rate == set_budget) {
    std::fprintf(stderr,
                 "admin requires exactly one of --set-tenant-rate=RATE "
                 "(with --tenant=ID) or --set-budget=BYTES\n");
    return 2;
  }
  if (set_rate) {
    request.op = net::AdminOp::kSetTenantRate;
    request.tenant = static_cast<uint32_t>(args.GetInt("tenant", 0));
    request.value = args.GetDouble("set-tenant-rate", 0.0);
  } else {
    request.op = net::AdminOp::kSetSharedBudget;
    request.value = static_cast<double>(
        std::strtoull(args.Get("set-budget", "0").c_str(), nullptr, 10));
  }

  net::Client client;
  if (Status st = client.Connect(host, port); !st.ok()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                 st.ToString().c_str());
    return 1;
  }
  client.SetRecvTimeout(args.GetInt("timeout-ms", 5000));
  net::Client::Response response;
  if (Status st = client.Call(net::Verb::kAdmin, 0,
                              net::EncodeAdminPayload(request), &response);
      !st.ok()) {
    std::fprintf(stderr, "admin call failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("admin: %s\n", net::WireStatusName(response.status));
  if (response.status == net::WireStatus::kUnauthorized) {
    std::fprintf(stderr,
                 "server rejected the token (started with --admin-token?)\n");
  }
  return response.status == net::WireStatus::kOk ? 0 : 1;
}

// Wire-protocol load generator: open-loop (Poisson) or closed-loop traffic
// against a `serve --listen` process, per-tenant mixes, client-observed
// latency percentiles. --json emits one machine-readable line for the bench
// harness.
int RunLoadgen(const Args& args) {
  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpcds"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }
  std::vector<const sparksim::QueryPlan*> plan_ptrs;
  const int plan_limit = args.GetInt("plans", 0);
  for (const sparksim::QueryPlan& plan : plans) {
    if (plan_limit > 0 &&
        plan_ptrs.size() >= static_cast<size_t>(plan_limit)) {
      break;
    }
    plan_ptrs.push_back(&plan);
  }

  net::LoadGenOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (options.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }
  options.duration_s = args.GetDouble("duration-s", 5.0);
  options.propose_fraction = args.GetDouble("propose-fraction", 0.0);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  const int tenants = std::max(1, args.GetInt("tenants", 1));
  const double rate = args.GetDouble("rate", 0.0);
  const int concurrency = std::max(1, args.GetInt("concurrency", 1));
  for (int t = 1; t <= tenants; ++t) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(t);
    spec.rate = rate;
    spec.concurrency = concurrency;
    options.tenants.push_back(spec);
  }
  // One extra open-loop aggressor on top of the polite tenants — the
  // noisy-neighbor fairness experiment.
  const double noisy_rate = args.GetDouble("noisy-rate", 0.0);
  if (noisy_rate > 0.0) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(tenants + 1);
    spec.rate = noisy_rate;
    options.tenants.push_back(spec);
  }

  auto result = net::RunLoadGen(options, plan_ptrs);
  if (!result.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const net::LoadGenReport& report = result.value();

  if (args.Get("json", "") == "true") {
    std::printf("{\"elapsed_s\":%.3f,\"sent\":%llu,\"ok\":%llu,"
                "\"busy\":%llu,\"errors\":%llu,\"offered_qps\":%.1f,"
                "\"achieved_qps\":%.1f,\"p50\":%.6f,\"p99\":%.6f,"
                "\"fell_behind\":%s,\"tenants\":[",
                report.elapsed_s,
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.busy),
                static_cast<unsigned long long>(report.errors),
                report.offered_qps, report.achieved_qps, report.p50,
                report.p99, report.fell_behind ? "true" : "false");
    for (size_t i = 0; i < report.tenants.size(); ++i) {
      const net::TenantReport& tenant = report.tenants[i];
      std::printf("%s{\"tenant\":%u,\"sent\":%llu,\"ok\":%llu,"
                  "\"busy\":%llu,\"errors\":%llu,\"ok_qps\":%.1f,"
                  "\"p50\":%.6f,\"p99\":%.6f}",
                  i == 0 ? "" : ",", tenant.tenant,
                  static_cast<unsigned long long>(tenant.sent),
                  static_cast<unsigned long long>(tenant.ok),
                  static_cast<unsigned long long>(tenant.busy),
                  static_cast<unsigned long long>(tenant.errors),
                  tenant.ok_qps, tenant.p50, tenant.p99);
    }
    std::printf("]}\n");
  } else {
    std::printf("loadgen: %.2f s, %llu sent, %llu ok, %llu busy, %llu "
                "errors\n",
                report.elapsed_s,
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.busy),
                static_cast<unsigned long long>(report.errors));
    std::printf("throughput: offered %.1f q/s, achieved %.1f q/s; latency "
                "p50 %.6f s, p99 %.6f s%s\n",
                report.offered_qps, report.achieved_qps, report.p50,
                report.p99,
                report.fell_behind ? "  [sender fell behind schedule]" : "");
    for (const net::TenantReport& tenant : report.tenants) {
      std::printf("tenant %u: %llu sent, %llu ok (%.1f q/s), %llu busy, "
                  "%llu errors, p99 %.6f s\n",
                  tenant.tenant,
                  static_cast<unsigned long long>(tenant.sent),
                  static_cast<unsigned long long>(tenant.ok), tenant.ok_qps,
                  static_cast<unsigned long long>(tenant.busy),
                  static_cast<unsigned long long>(tenant.errors),
                  tenant.p99);
    }
  }
  return report.ok == 0 ? 1 : 0;
}

int RunServe(const Args& args) {
  if (args.flags.count("listen") != 0) return RunServeListen(args);
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite =
      SuiteFromName(args.Get("suite", "tpcds"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }

  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 37));
  TuningServiceOptions service_options;
  TuningService service(space, nullptr, service_options, seed);

  // Tiered state layer: a resident-bytes budget plus a cold-artifact store
  // arm clock eviction; evicted signatures fault back in on first touch.
  const uint64_t memory_budget =
      std::strtoull(args.Get("memory-budget", "0").c_str(), nullptr, 10);
  std::map<uint64_t, const sparksim::QueryPlan*> plan_index;
  for (const sparksim::QueryPlan& plan : plans) {
    plan_index[plan.Signature()] = &plan;
  }
  std::optional<ModelStore> state_store;
  if (memory_budget > 0) {
    state_store.emplace(args.Get("state-dir", "rockhopper-state"));
    service.AttachStateTier(
        &*state_store,
        StateTierFromArgs(
            args, memory_budget,
            [&plan_index](uint64_t signature) -> const sparksim::QueryPlan* {
              auto it = plan_index.find(signature);
              return it == plan_index.end() ? nullptr : it->second;
            }));
  }

  ObservationJournal journal;
  const std::string journal_path = args.Get("journal", "");
  if (!journal_path.empty()) {
    auto opened = ObservationJournal::Open(journal_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open journal: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    journal = std::move(*opened);
    service.AttachJournal(&journal);
  }

  // Background compactor: checkpoint the journal every N accepted
  // observations, concurrently with the tenant threads — the online
  // checkpoint shape (rotation barrier vs live appends).
  const int checkpoint_interval = args.GetInt("checkpoint-interval", 0);
  std::atomic<bool> serving{true};
  std::atomic<uint64_t> checkpoints_taken{0};
  std::thread compactor;
  if (checkpoint_interval > 0 && !journal_path.empty()) {
    compactor = std::thread([&] {
      uint64_t last = 0;
      while (serving.load(std::memory_order_relaxed)) {
        const uint64_t accepted =
            service.telemetry_stats().accepted.load(std::memory_order_relaxed);
        if (accepted - last >=
            static_cast<uint64_t>(checkpoint_interval)) {
          if (service.Checkpoint().ok()) {
            checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
          }
          last = accepted;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  tools::ConcurrentDriverOptions driver_options;
  driver_options.threads = args.GetInt("threads", 4);
  driver_options.iterations = args.GetInt("iters", 20);
  driver_options.chaos = args.Get("chaos", "") == "true";
  driver_options.execution_latency_us = args.GetInt("latency-us", 0);
  driver_options.fluctuation_level = args.GetDouble("fl", 0.3);
  driver_options.spike_level = args.GetDouble("sl", 0.3);
  driver_options.seed = seed;

  std::printf("serving %zu signatures x %d iterations from %d tenant "
              "threads%s\n\n",
              plans.size(), driver_options.iterations, driver_options.threads,
              driver_options.chaos ? " under injected faults" : "");
  tools::ConcurrentDriver driver(&service, driver_options);
  const tools::ConcurrentDriverReport report = driver.Run(plans);
  int exit_code = 0;
  serving.store(false, std::memory_order_relaxed);
  if (compactor.joinable()) {
    compactor.join();
    // One final compaction so the chain a restart replays is as short as
    // the interval promises.
    if (service.Checkpoint().ok()) {
      checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!journal_path.empty()) {
    // Status-checked shutdown: a journal that swallowed a write error must
    // fail the run loudly, not exit 0 with silently missing records.
    if (Status st = service.Shutdown(); !st.ok()) {
      std::fprintf(stderr, "journal shutdown failed: %s\n",
                   st.ToString().c_str());
      exit_code = 1;
    }
  }
  std::printf("served %zu queries in %.2f s: %.0f queries/s\n", report.queries,
              report.wall_seconds, report.queries_per_second);
  if (driver_options.chaos) {
    std::printf("injected: %zu job failures, %zu dropped, %zu duplicated, "
                "%zu reordered, %zu corrupted events\n",
                report.job_failures, report.dropped_events,
                report.duplicated_events, report.reordered_events,
                report.corrupted_events);
  }
  const TelemetryStats& stats = service.telemetry_stats();
  std::printf("sanitizer: %llu accepted, %llu rejected; guardrail disabled "
              "%zu/%zu signatures\n",
              static_cast<unsigned long long>(
                  stats.accepted.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(stats.total_rejected()),
              service.NumDisabled(), service.NumSignatures());
  if (!journal_path.empty()) {
    std::printf("journal written to %s (%llu append errors)\n",
                journal_path.c_str(),
                static_cast<unsigned long long>(journal.lost_records()));
  }
  if (checkpoint_interval > 0 && !journal_path.empty()) {
    std::printf("journal checkpoints: %llu (every %d accepted observations)\n",
                static_cast<unsigned long long>(
                    checkpoints_taken.load(std::memory_order_relaxed)),
                checkpoint_interval);
  }
  if (memory_budget > 0) {
    const TierStats tier = service.StateTierStats();
    std::printf("state tier: %zu resident (%zu bytes of %llu budget), "
                "%zu cold; %llu evictions, %llu fault-ins\n",
                tier.resident_signatures, tier.resident_bytes,
                static_cast<unsigned long long>(memory_budget),
                tier.cold_signatures,
                static_cast<unsigned long long>(tier.evictions),
                static_cast<unsigned long long>(tier.faultins));
  }

  const std::string metrics_format = args.Get("metrics-format", "prom");
  if (metrics_format != "off") {
    const common::MetricsSnapshot scrape = service.Metrics();
    std::printf("\n# --- metrics scrape at exit ---\n");
    if (metrics_format == "json") {
      std::printf("%s\n", scrape.ToJson().c_str());
    } else {
      std::printf("%s", scrape.ToPrometheusText().c_str());
    }
  }
  return exit_code;
}

// Exercises every instrumented subsystem, then prints one scrape of the
// process metrics registry: a chaos workload (job faults + telemetry faults,
// so the sanitizer / failure-policy / guardrail counters move) driven from a
// thread pool (so the pool's queue-depth / task-latency instruments report)
// through a journal (appends, batch sizes, flush latency).
int RunMetrics(const Args& args) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }

  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 41));
  TuningService service(space, nullptr, {}, seed);

  ObservationJournal journal;
  std::string journal_path = args.Get("journal", "");
  const bool temp_journal = journal_path.empty();
  if (temp_journal) {
    journal_path = (std::filesystem::temp_directory_path() /
                    "rockhopper-metrics.journal").string();
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);  // stale run
  }
  auto opened = ObservationJournal::Open(journal_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open journal: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  journal = std::move(*opened);
  service.AttachJournal(&journal);

  tools::ConcurrentDriverOptions driver_options;
  driver_options.iterations = args.GetInt("iters", 30);
  driver_options.chaos = args.Get("chaos", "true") == "true";
  driver_options.seed = seed;

  common::ThreadPool pool(static_cast<size_t>(args.GetInt("threads", 4)));
  pool.ParallelFor(plans.size(), [&](size_t i) {
    tools::ConcurrentDriver::DrivePlan(&service, plans[i], driver_options);
  });
  pool.Shutdown();
  int exit_code = 0;
  if (Status st = journal.Close(); !st.ok()) {
    std::fprintf(stderr, "journal close failed: %s\n", st.ToString().c_str());
    exit_code = 1;
  }
  if (temp_journal) {
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);
  }

  const common::MetricsSnapshot scrape = service.Metrics();
  if (args.Get("format", "prom") == "json") {
    std::printf("%s\n", scrape.ToJson().c_str());
  } else {
    std::printf("%s", scrape.ToPrometheusText().c_str());
  }
  return exit_code;
}

// Deterministic whole-service simulation (src/sim): each seed drives the
// multi-tenant service through a crash, recovery, and a second serving
// phase, checking the cross-layer invariants; --seeds sweeps a range and
// stops at the first violating seed.
int RunSimulate(const Args& args) {
  sim::SimulationOptions options;
  options.tenants = args.GetInt("tenants", 4);
  options.events_per_tenant = args.GetInt("events", 32);
  options.crash_fraction = args.GetDouble("crash-frac", 0.6);
  options.buggify = args.Get("no-buggify", "") != "true";
  options.chaos = args.Get("no-chaos", "") != "true";
  options.scratch_dir = args.Get("scratch", "");
  const std::string trace_path = args.Get("trace", "");

  uint64_t lo = 0, hi = 0;
  const std::string seeds_flag = args.Get("seeds", "");
  if (seeds_flag.empty()) {
    lo = hi = static_cast<uint64_t>(args.GetInt("seed", 1));
  } else if (!ParseSeedRange(seeds_flag, &lo, &hi)) {
    std::fprintf(stderr, "simulate: bad --seeds (want A..B): %s\n",
                 seeds_flag.c_str());
    return 2;
  }

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
                   "invariant violation at seed %llu\n"
                   "reproduce with: rockhopper simulate --seed=%llu\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      return 1;
    }
  }
  return 0;
}

// Replays a recorded trace twice into identically-seeded fresh services and
// verifies both replays land on the same state digest and the same metric
// deltas — the determinism contract that makes a recorded failure a
// debuggable artifact instead of a one-off.
int RunReplay(const Args& args) {
  const std::string trace_path = args.Get("trace", "");
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
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const FlightingConfig::Suite suite = SuiteFromName(args.Get("suite", "tpch"));
  std::vector<sparksim::QueryPlan> plans;
  std::vector<uint64_t> signatures;
  for (int q = 1; q <= SuiteSize(suite); ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
    signatures.push_back(plans.back().Signature());
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

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
    TuningService service(space, nullptr, {}, seed);
    auto report = sim::TraceReplayer::Replay(*trace, &service, plans);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    reports[pass] = *report;
    digests[pass] = sim::DigestServiceState(service, signatures);
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

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: rockhopper <command> [--flag=value ...]\n\n"
      "commands:\n"
      "  flight  run offline flighting, train + store the baseline model\n"
      "          flags: --suite=tpcds|tpch --configs=N --runs=N\n"
      "                 --generation=Random|LHS --max-samples=N --out=DIR\n"
      "  tune    tune a suite online with the stored baseline\n"
      "          flags: --suite=tpch|tpcds --iters=N --model-dir=DIR\n"
      "                 --fl=F --sl=F --events=FILE --seed=N\n"
      "  report  print per-signature monitoring dashboards from an event "
      "log\n"
      "          flags: --events=FILE\n"
      "  chaos   tune under injected production faults (failures + corrupt "
      "telemetry)\n"
      "          flags: --suite=tpch|tpcds --iters=N --fl=F --sl=F\n"
      "                 --journal=FILE --seed=N --seeds=A..B (sweep a range;\n"
      "                 exits non-zero with the first violating seed)\n"
      "  simulate run the deterministic whole-service simulation harness\n"
      "          flags: --seed=N --seeds=A..B --tenants=N --events=N\n"
      "                 --crash-frac=F --no-buggify --no-chaos\n"
      "                 --scratch=DIR --trace=FILE\n"
      "  replay  replay a recorded simulation trace twice, verify identical "
      "state\n"
      "          flags: --trace=FILE --suite=tpch|tpcds --seed=N\n"
      "  recover restore tuning state from the journal chain (checkpoint +\n"
      "          delta chain + sealed segments + live tail)\n"
      "          flags: --journal=FILE --suite=tpch|tpcds --seed=N\n"
      "                 --memory-budget=BYTES --state-dir=DIR\n"
      "                 --lazy-recovery (cold pointers, fault in on touch)\n"
      "  neighbors  print a signature's k nearest registered signatures in\n"
      "          the transfer tier's embedding space, with distances and\n"
      "          incumbent configs (debugging bad warm starts)\n"
      "          usage: rockhopper neighbors <signature> --journal=FILE\n"
      "          flags: --suite=tpch|tpcds --k=N --seed=N\n"
      "  checkpoint  compact a journal offline: absorb sealed segments into\n"
      "          the checkpoint, truncate the absorbed prefix\n"
      "          flags: --journal=FILE\n"
      "  serve   drive one shared service from concurrent tenant threads\n"
      "          flags: --suite=tpcds|tpch --threads=N --iters=N --chaos\n"
      "                 --latency-us=N --journal=FILE\n"
      "                 --memory-budget=BYTES --state-dir=DIR\n"
      "                 --checkpoint-interval=N\n"
      "                 --fl=F --sl=F --seed=N --metrics-format=prom|json|off\n"
      "          with --listen[=PORT|HOST:PORT] serve the binary wire\n"
      "          protocol over TCP instead (epoll event loop; Ctrl-C or\n"
      "          --duration-s=N drains and prints the exit report):\n"
      "                 --listen[=PORT|HOST:PORT] --duration-s=N\n"
      "                 --drain-ms=N --io-threads=N\n"
      "                 --tenant-rate=R --tenant-burst-s=S (token buckets)\n"
      "                 --flush-p99-target=S --queue-target=N (admission)\n"
      "                 --net-batch=N --journal=FILE --memory-budget=BYTES\n"
      "                 --admin-token=SECRET (enable the Admin verb)\n"
      "          state-tier flags (both serve modes):\n"
      "                 --state-budget-fraction=F --obs-window=N\n"
      "                 --idle-ttl=N --sweep-interval-ms=N --compress=false\n"
      "  admin   send one authenticated runtime-control frame to a server\n"
      "          flags: --connect=HOST:PORT --token=SECRET and one of\n"
      "                 --set-tenant-rate=RATE --tenant=ID (0 = unlimited)\n"
      "                 --set-budget=BYTES (shared memory budget; 0 = off)\n"
      "  loadgen drive the wire protocol against a serve --listen process\n"
      "          flags: --host=H --port=N (required) --duration-s=N\n"
      "                 --tenants=N --rate=R (per-tenant open-loop Poisson\n"
      "                 q/s; 0 = closed loop) --concurrency=N\n"
      "                 --noisy-rate=R (extra aggressor tenant)\n"
      "                 --propose-fraction=F --plans=N --seed=N --json\n"
      "  metrics exercise the instrumented pipeline, print one registry "
      "scrape\n"
      "          flags: --suite=tpch|tpcds --iters=N --threads=N\n"
      "                 --chaos=true|false --journal=FILE --seed=N\n"
      "                 --format=prom|json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.command == "flight") return RunFlight(args);
  if (args.command == "tune") return RunTune(args);
  if (args.command == "report") return RunReport(args);
  if (args.command == "chaos") return RunChaos(args);
  if (args.command == "simulate") return RunSimulate(args);
  if (args.command == "replay") return RunReplay(args);
  if (args.command == "recover") return RunRecover(args);
  if (args.command == "neighbors") return RunNeighbors(args);
  if (args.command == "checkpoint") return RunCheckpoint(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "admin") return RunAdmin(args);
  if (args.command == "loadgen") return RunLoadgen(args);
  if (args.command == "metrics") return RunMetrics(args);
  PrintUsage();
  return args.command.empty() ? 1 : 2;
}
