// Eviction under fire: 8 tenant threads drive the tuning service through a
// shared journal while the tiered state layer runs with a budget small
// enough that the clock hand evicts continuously. Exercises the
// evict / fault-in / re-evict cycle concurrently with ingestion — the data
// race surface the shard-lock + single-flight-evictor design must keep clean
// (run under TSan by tools/run_sanitized_tests.sh).
//
// Determinism strategy mirrors concurrent_service_test.cc: each signature is
// owned by exactly one thread and its event stream is a pure function of its
// query id, so per-signature observation counts are exact regardless of
// eviction timing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "sparksim/workloads.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

constexpr int kNumPlans = 48;  // spans all 16 shards several times over
constexpr int kEventsPerPlan = 10;
constexpr int kThreads = 8;
constexpr uint64_t kSeed = 77;

class StateTieringConcurrentTest : public ::testing::Test {
 protected:
  // Per test and process, removed with everything in it: the test
  // processes ctest -j runs side by side never share a journal chain.
  const test_support::TestTempDir dir_;
  const std::string journal_path_ = dir_.File("journal");
  const std::string store_dir_ = dir_.File("store");
};

TEST_F(StateTieringConcurrentTest, EvictionUnderEightThreadIngest) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  std::map<uint64_t, const sparksim::QueryPlan*> by_signature;
  for (int q = 1; q <= kNumPlans; ++q) {
    plans.push_back(sparksim::TpcdsPlan(q));
  }
  for (const sparksim::QueryPlan& plan : plans) {
    by_signature.emplace(plan.Signature(), &plan);
  }

  TuningServiceOptions options;
  options.guardrail.min_iterations = 10;
  options.centroid.num_candidates = 8;
  TuningService service(space, nullptr, options, kSeed);

  ModelStore store(store_dir_);
  // A budget of a few KB holds only a handful of the ~48 states resident,
  // so eviction and fault-in run continuously throughout ingestion.
  StateTierOptions tier;
  tier.shared_budget_bytes = 8 * 1024;
  tier.state_budget_fraction = 1.0;
  tier.plan_resolver = [&by_signature](uint64_t signature) {
    auto it = by_signature.find(signature);
    return it == by_signature.end() ? nullptr : it->second;
  };
  service.AttachStateTier(&store, tier);

  auto journal = ObservationJournal::Open(journal_path_);
  ASSERT_TRUE(journal.ok());
  service.AttachJournal(&*journal);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < plans.size();
           i += kThreads) {
        const TuningService::SignatureHandle handle = service.Handle(plans[i]);
        for (int j = 0; j < kEventsPerPlan; ++j) {
          const sparksim::ConfigVector config =
              service.OnQueryStart(handle, 1e9);
          QueryEndEvent event;
          event.event_id = static_cast<uint64_t>(j + 1);
          event.config = config;
          event.data_size = 1e9 + 1e7 * static_cast<double>(i);
          event.runtime = 20.0 + 0.1 * static_cast<double>(i) + j;
          service.OnQueryEnd(handle, event);
        }
        // Read-side probes race with other threads' evictions.
        (void)service.IsTuningEnabled(handle.signature());
        (void)service.StateTierStats();
      }
    });
  }
  // A checkpoint races with ingestion: rotation is the sequence barrier.
  auto mid_checkpoint = service.Checkpoint();
  for (std::thread& w : workers) w.join();

  EXPECT_TRUE(mid_checkpoint.ok()) << mid_checkpoint.status().ToString();
  ASSERT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(journal->lost_records(), 0u);

  // Conservation: every signature ingested exactly its own stream.
  EXPECT_EQ(service.NumSignatures(), static_cast<size_t>(kNumPlans));
  for (const sparksim::QueryPlan& plan : plans) {
    EXPECT_EQ(service.observations().Count(plan.Signature()),
              static_cast<size_t>(kEventsPerPlan));
  }

  // The budget actually bit: states were evicted and faulted back in, and
  // the resident tier ended under (or at the watermark of) the budget.
  const TierStats stats = service.StateTierStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.faultins, 0u);
  EXPECT_EQ(stats.resident_signatures + stats.cold_signatures,
            static_cast<size_t>(kNumPlans));

  // Every acked record is recoverable through the checkpoint + tail chain.
  Result<JournalChain> chain = RecoverJournalChain(journal_path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  size_t recovered = 0;
  for (const sparksim::QueryPlan& plan : plans) {
    recovered += chain->store.Count(plan.Signature());
  }
  EXPECT_EQ(recovered, static_cast<size_t>(kNumPlans) * kEventsPerPlan);
}

// The background sweeper thread (StartStateSweeper) races 8 ingest threads:
// idle-TTL eviction, compressed artifact saves, fault-ins, and a delta
// checkpoint all interleave with live traffic. Budget is unbounded so every
// eviction here is the sweeper's doing — the surface under test is the
// sweeper thread itself, not budget pressure.
TEST_F(StateTieringConcurrentTest, BackgroundSweeperRacesEightThreadIngest) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  std::map<uint64_t, const sparksim::QueryPlan*> by_signature;
  for (int q = 1; q <= kNumPlans; ++q) {
    plans.push_back(sparksim::TpcdsPlan(q));
  }
  for (const sparksim::QueryPlan& plan : plans) {
    by_signature.emplace(plan.Signature(), &plan);
  }

  TuningServiceOptions options;
  options.guardrail.min_iterations = 10;
  options.centroid.num_candidates = 8;
  TuningService service(space, nullptr, options, kSeed + 1);

  ModelStore store(store_dir_);
  StateTierOptions tier;
  tier.shared_budget_bytes = 0;  // no budget pressure: sweeper-only eviction
  tier.idle_ttl_ticks = 1;       // everything untouched for one tick is idle
  tier.sweep_interval_ms = 1;    // as hot a race as the scheduler allows
  tier.compress_artifacts = true;
  tier.plan_resolver = [&by_signature](uint64_t signature) {
    auto it = by_signature.find(signature);
    return it == by_signature.end() ? nullptr : it->second;
  };
  service.AttachStateTier(&store, tier);
  service.StartStateSweeper();

  auto journal = ObservationJournal::Open(journal_path_);
  ASSERT_TRUE(journal.ok());
  service.AttachJournal(&*journal);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < plans.size();
           i += kThreads) {
        const TuningService::SignatureHandle handle = service.Handle(plans[i]);
        for (int j = 0; j < kEventsPerPlan; ++j) {
          const sparksim::ConfigVector config =
              service.OnQueryStart(handle, 1e9);
          QueryEndEvent event;
          event.event_id = static_cast<uint64_t>(j + 1);
          event.config = config;
          event.data_size = 1e9 + 1e7 * static_cast<double>(i);
          event.runtime = 20.0 + 0.1 * static_cast<double>(i) + j;
          service.OnQueryEnd(handle, event);
        }
        (void)service.IsTuningEnabled(handle.signature());
        (void)service.StateTierStats();
      }
    });
  }
  // A delta-path checkpoint races both the sweeper and the ingest threads.
  auto mid_checkpoint = service.Checkpoint();
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(mid_checkpoint.ok()) << mid_checkpoint.status().ToString();

  // Quiesced drain: regardless of how the timing fell above, two more
  // passes age every signature past the TTL and sweep it out (the
  // background sweeper may already have drained some or all of them).
  (void)service.SweepStateTier();
  (void)service.SweepStateTier();
  ASSERT_TRUE(service.Shutdown().ok());  // stops the background sweeper too
  EXPECT_EQ(journal->lost_records(), 0u);

  EXPECT_EQ(service.NumSignatures(), static_cast<size_t>(kNumPlans));
  for (const sparksim::QueryPlan& plan : plans) {
    EXPECT_EQ(service.observations().Count(plan.Signature()),
              static_cast<size_t>(kEventsPerPlan));
  }
  const TierStats stats = service.StateTierStats();
  EXPECT_GT(stats.sweep_evictions, 0u);
  EXPECT_EQ(stats.resident_signatures, 0u)
      << "final sweeps left idle states resident";
  EXPECT_EQ(stats.resident_signatures + stats.cold_signatures,
            static_cast<size_t>(kNumPlans));

  // Sweeper eviction is as invisible to recovery as budget eviction.
  Result<JournalChain> chain = RecoverJournalChain(journal_path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  size_t recovered = 0;
  for (const sparksim::QueryPlan& plan : plans) {
    recovered += chain->store.Count(plan.Signature());
  }
  EXPECT_EQ(recovered, static_cast<size_t>(kNumPlans) * kEventsPerPlan);
}

}  // namespace
}  // namespace rockhopper::core
