// The offline and posterior-analysis verbs: flighting a baseline model
// (§4.2, §5), tuning a suite against the simulator, and the monitoring
// dashboard over a persisted event log (§6.3).

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "core/flighting.h"
#include "core/model_store.h"
#include "core/monitor.h"
#include "core/observation.h"
#include "sparksim/simulator.h"
#include "tools/cli/cli.h"

namespace rockhopper::cli {

using namespace rockhopper::core;  // NOLINT(build/namespaces)

// The one baseline-model key the CLI uses in its model store ("one model
// per region", §4.2).
constexpr uint64_t kRegionKey = 1;

int RunFlight(const Flags& flags) {
  const std::string out_dir = flags.Text("out", "rockhopper-out");
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sim_options.seed = static_cast<uint64_t>(flags.Int("seed", 17));
  sparksim::SparkSimulator sim(sim_options);
  FlightingPipeline pipeline(&sim, space);

  FlightingConfig config;
  config.suite = flags.Text("suite", "tpcds") == "tpch"
                     ? FlightingConfig::Suite::kTpch
                     : FlightingConfig::Suite::kTpcds;
  config.configs_per_query = static_cast<int>(flags.Int("configs", 8));
  config.runs_per_config = static_cast<int>(flags.Int("runs", 1));
  config.config_generation = flags.Text("generation", "Random");
  config.scale_factors = {1.0};
  config.seed = sim_options.seed;

  BaselineModel model(space);
  auto records = pipeline.TrainBaseline(
      config, &model, static_cast<int>(flags.Int("max-samples", 0)));
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

int RunTune(const Flags& flags) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::string model_dir = flags.Text("model-dir", "rockhopper-out");
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
  sim_options.noise =
      sparksim::NoiseParams{flags.Num("fl", 0.3), flags.Num("sl", 0.3)};
  sim_options.seed = static_cast<uint64_t>(flags.Int("seed", 23));
  sparksim::SparkSimulator sim(sim_options);

  TuningServiceOptions service_options;
  TuningService service(space, baseline, service_options, sim_options.seed);

  const std::vector<sparksim::QueryPlan> plans =
      SuitePlans(flags.Text("suite", "tpch"));
  const int iters = static_cast<int>(flags.Int("iters", 40));
  std::printf("tuning %zu queries x %d iterations (FL=%.2f SL=%.2f)\n\n",
              plans.size(), iters, sim_options.noise.fluctuation_level,
              sim_options.noise.spike_level);

  double default_total = 0.0, tuned_total = 0.0;
  for (size_t q = 1; q <= plans.size(); ++q) {
    const sparksim::QueryPlan& plan = plans[q - 1];
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
    std::printf("q%-3zu  %8.2f s -> %8.2f s  (%+6.1f%%)%s\n", q, default_sec,
                tail, 100.0 * (default_sec - tail) / default_sec,
                service.IsTuningEnabled(plan.Signature()) ? ""
                                                          : "  [guardrail]");
  }
  std::printf("\nsuite: %.1f s -> %.1f s (%.1f%% improvement); guardrail "
              "disabled %zu/%zu\n",
              default_total, tuned_total,
              100.0 * (default_total - tuned_total) / default_total,
              service.NumDisabled(), service.NumSignatures());

  const std::string events = flags.Text("events", "");
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

int RunReport(const Flags& flags) {
  const std::string events = flags.Text("events", "");
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
    std::printf("--- signature %" PRIu64 " ---\n%s\n", signature,
                monitor.Report().c_str());
  }
  return 0;
}

}  // namespace rockhopper::cli
