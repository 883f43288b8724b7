// Deployment-lifecycle integration: the full production story of §5 in one
// test — offline flighting trains a baseline; the artifact is serialized
// into the model store; a "client" deserializes it and serves a tuning
// session; the event log is persisted; a restarted service resumes from it;
// and the monitoring dashboard diagnoses the session.

#include <filesystem>
#include <gtest/gtest.h>

#include "core/flighting.h"
#include "core/model_store.h"
#include "core/monitor.h"
#include "core/tuning_service.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"
#include "support/test_temp_dir.h"

namespace rockhopper {
namespace {

using namespace rockhopper::core;       // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

class DeploymentTest : public ::testing::Test {
 protected:
  const test_support::TestTempDir temp_;
  const std::string root_ = temp_.File("root");
};

TEST_F(DeploymentTest, FullLifecycle) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::filesystem::create_directories(root_);

  // --- Offline: flighting + baseline training on the "backend". ---------
  sparksim::SparkSimulator::Options offline_options;
  offline_options.noise = sparksim::NoiseParams::Low();
  sparksim::SparkSimulator offline_sim(offline_options);
  FlightingPipeline pipeline(&offline_sim, space);
  FlightingConfig flighting;
  flighting.suite = FlightingConfig::Suite::kTpcds;
  flighting.query_ids = {2, 4, 8, 16, 32};
  flighting.scale_factors = {1.0};
  flighting.configs_per_query = 8;
  BaselineModel backend_model(space);
  ASSERT_TRUE(pipeline.TrainBaseline(flighting, &backend_model).ok());

  // Persist the flighting trace (the ETL artifact).
  const std::string trace_path = root_ + "/trace.csv";
  const std::vector<FlightingRecord> records = pipeline.Run(flighting);
  ASSERT_TRUE(pipeline.ExportCsv(trace_path, records).ok());
  ASSERT_TRUE(pipeline.ImportCsv(trace_path).ok());

  // Distribute the model through the store.
  ModelStore store(root_ + "/models");
  const uint64_t region_key = 1;  // one baseline per region (§4.2)
  ASSERT_TRUE(store.Put(region_key, *backend_model.Serialize()).ok());

  // --- Client side: load the model and serve tuning. --------------------
  BaselineModel client_model(space);
  ASSERT_TRUE(client_model.Deserialize(*store.GetLatest(region_key)).ok());

  sparksim::SparkSimulator::Options online_options;
  online_options.noise = sparksim::NoiseParams{0.3, 0.3};
  sparksim::SparkSimulator production(online_options);
  TuningServiceOptions service_options;
  service_options.guardrail.min_iterations = 60;  // out of this test's way
  TuningService service(space, &client_model, service_options, 5);

  const sparksim::QueryPlan query = sparksim::TpchPlan(5);
  TuningMonitor monitor(&space);
  for (int run = 0; run < 25; ++run) {
    const sparksim::ConfigVector config =
        service.OnQueryStart(query, query.LeafInputBytes(1.0));
    const sparksim::ExecutionResult result =
        production.ExecuteQuery(query, config, 1.0);
    service.OnQueryEnd(query,
                       QueryEndEvent::FromRun(config, result.input_bytes,
                                              result.runtime_seconds));
    MonitorRecord record;
    record.iteration = run;
    record.config = config;
    record.data_size = result.input_bytes;
    record.runtime = result.runtime_seconds;
    record.metrics = result.metrics;
    monitor.Record(record);
  }
  EXPECT_EQ(service.IterationCount(query.Signature()), 25u);
  ASSERT_TRUE(service.ExplainQuery(query.Signature()).ok());

  // --- Persist the event log; restart; resume. ---------------------------
  const std::string events_path = root_ + "/events.csv";
  ASSERT_TRUE(
      ExportObservations(space, service.observations(), events_path).ok());
  auto reloaded = ImportObservations(space, events_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->skipped_rows, 0u);
  TuningService restarted(space, &client_model, service_options, 6);
  restarted.ReplayHistory(query, reloaded->store.History(query.Signature()));
  EXPECT_EQ(restarted.IterationCount(query.Signature()), 25u);
  const sparksim::ConfigVector next =
      restarted.OnQueryStart(query, query.LeafInputBytes(1.0));
  EXPECT_TRUE(space.Validate(next).ok());

  // --- Dashboard: the session must be diagnosable, not suspect. ----------
  const TuningMonitor::Diagnosis diagnosis = monitor.Diagnose();
  EXPECT_NE(diagnosis.verdict,
            TuningMonitor::Verdict::kSuspectConfiguration);
  EXPECT_FALSE(monitor.Report().empty());

  // --- Retention: cleanup keeps the store bounded. -----------------------
  ASSERT_TRUE(store.Put(region_key, *backend_model.Serialize()).ok());
  ASSERT_TRUE(store.CleanupGenerations(1).ok());
  EXPECT_EQ(store.Generations(region_key).size(), 1u);
}

}  // namespace
}  // namespace rockhopper
