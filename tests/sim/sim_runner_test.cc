#include "sim/sim_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/flighting.h"
#include "core/tuning_service.h"
#include "sim/service_digest.h"
#include "sim/trace.h"
#include "sparksim/config_space.h"
#include "support/test_temp_dir.h"

namespace rockhopper::sim {
namespace {

class SimRunnerTest : public ::testing::Test {
 protected:
  // Small-but-complete runs: every phase (serve, crash, recover, serve
  // again) still happens, just with fewer events so the suite stays fast.
  SimulationOptions SmallRun(uint64_t seed) const {
    SimulationOptions options;
    options.seed = seed;
    options.tenants = 2;
    options.events_per_tenant = 10;
    options.scratch_dir = dir_.path().string();
    return options;
  }

  test_support::TestTempDir dir_;
};

TEST_F(SimRunnerTest, SeedsPassInvariants) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const SimulationReport report = RunSimulation(SmallRun(seed));
    EXPECT_TRUE(report.passed()) << report.Summary();
    EXPECT_EQ(report.executions, 20u);
    EXPECT_EQ(report.seed, seed);
    EXPECT_FALSE(report.recovered_digest.empty());
    EXPECT_FALSE(report.final_digest.empty());
  }
}

TEST_F(SimRunnerTest, SameSeedIsByteReproducible) {
  const SimulationReport first = RunSimulation(SmallRun(42));
  const SimulationReport second = RunSimulation(SmallRun(42));
  EXPECT_EQ(first.Summary(), second.Summary());
  EXPECT_EQ(first.recovered_digest, second.recovered_digest);
  EXPECT_EQ(first.final_digest, second.final_digest);
}

TEST_F(SimRunnerTest, DifferentSeedsDiverge) {
  const SimulationReport a = RunSimulation(SmallRun(1));
  const SimulationReport b = RunSimulation(SmallRun(2));
  EXPECT_NE(a.final_digest, b.final_digest);
}

TEST_F(SimRunnerTest, ChaosOffStillPasses) {
  SimulationOptions options = SmallRun(9);
  options.chaos = false;
  options.buggify = false;
  const SimulationReport report = RunSimulation(options);
  EXPECT_TRUE(report.passed()) << report.Summary();
  // Without bus faults every execution is delivered exactly once and the
  // sanitizer accepts everything.
  EXPECT_EQ(report.delivered, report.executions);
  EXPECT_EQ(report.sim_dropped, 0u);
}

TEST_F(SimRunnerTest, RecordedTraceReplaysDeterministically) {
  SimulationOptions options = SmallRun(11);
  options.trace_path = dir_.File("sim.trace");
  const SimulationReport report = RunSimulation(options);
  EXPECT_TRUE(report.passed()) << report.Summary();

  auto trace = TraceReplayer::Read(options.trace_path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_FALSE(trace->records.empty());

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  std::vector<uint64_t> signatures;
  for (int q = 1; q <= options.tenants; ++q) {
    plans.push_back(core::FlightingPipeline::PlanFor(
        core::FlightingConfig::Suite::kTpch, q));
    signatures.push_back(plans.back().Signature());
  }
  std::string digests[2];
  for (int pass = 0; pass < 2; ++pass) {
    core::TuningService service(space, nullptr, {}, options.seed);
    auto replayed = TraceReplayer::Replay(*trace, &service, plans);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed->unknown_signatures, 0u);
    digests[pass] = DigestServiceState(service, signatures);
  }
  EXPECT_EQ(digests[0], digests[1]);
  std::remove(options.trace_path.c_str());
}

}  // namespace
}  // namespace rockhopper::sim
