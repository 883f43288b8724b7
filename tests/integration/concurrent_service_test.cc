// Multi-tenant stress test of the sharded TuningService: many signatures
// driven concurrently from several threads, through the full start / end /
// chaos ingestion surface (NaN telemetry, duplicate deliveries, negative
// runtimes, job-failure streaks) with a shared journal attached.
//
// Determinism strategy: every signature's event stream is a pure function
// of its query id (configs are fixed at the defaults, not the proposals),
// and each signature is owned by exactly one thread. Per-signature state —
// observations, imputation, fallback, guardrail, journal records — then
// depends only on that stream, so aggregate counters and recovered journal
// state must be IDENTICAL whether the suite ran on 1 thread or 8.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/journal.h"
#include "core/tuning_service.h"
#include "sparksim/workloads.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

constexpr int kNumPlans = 80;       // >= 64 signatures, spanning all shards
constexpr int kEventsPerPlan = 12;
constexpr uint64_t kSeed = 4242;

// Signatures with q % 10 == 0 fail every run: 12 consecutive failures walk
// the failure policy into fallback *and* the guardrail into disabling.
bool AlwaysFails(int q) { return q % 10 == 0; }

std::vector<QueryEndEvent> EventStream(const sparksim::ConfigSpace& space,
                                       int q) {
  std::vector<QueryEndEvent> events;
  for (int j = 0; j < kEventsPerPlan; ++j) {
    QueryEndEvent event;
    event.event_id = static_cast<uint64_t>(j + 1);
    event.config = space.Defaults();
    event.data_size = 1e9 + 1e7 * q;
    event.runtime = 10.0 + 0.1 * q + j;
    event.failed = AlwaysFails(q) || j % 6 == 4;
    if (j % 5 == 2) {
      event.runtime = std::numeric_limits<double>::quiet_NaN();  // corrupt
    } else if (j % 9 == 5) {
      event.runtime = -event.runtime;  // corrupt: negative runtime
      event.failed = false;            // so positivity is actually enforced
    } else if (j % 7 == 3) {
      event.event_id = static_cast<uint64_t>(j);  // duplicate delivery
    }
    events.push_back(event);
  }
  return events;
}

struct RunResult {
  TelemetryStats stats;  // value snapshot (copy)
  size_t num_signatures = 0;
  size_t num_disabled = 0;
  uint64_t journal_errors = 0;
  std::vector<size_t> per_plan_counts;
  std::vector<std::vector<Observation>> per_plan_history;
};

RunResult RunSuite(int threads, const std::string& journal_path) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= kNumPlans; ++q) {
    plans.push_back(sparksim::TpcdsPlan(q));
  }

  TuningService service(space, nullptr, {}, kSeed);
  auto journal = ObservationJournal::Open(journal_path);
  EXPECT_TRUE(journal.ok());
  service.AttachJournal(&*journal);

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < plans.size();
           i += static_cast<size_t>(threads)) {
        const TuningService::SignatureHandle handle =
            service.Handle(plans[i]);
        const auto events = EventStream(space, static_cast<int>(i) + 1);
        for (const QueryEndEvent& event : events) {
          service.OnQueryStart(handle, event.data_size);
          service.OnQueryEnd(handle, event);
        }
        // Concurrent read-side probes must not wedge or crash.
        (void)service.IsTuningEnabled(handle.signature());
        (void)service.ExplainQuery(handle.signature());
        (void)service.NumSignatures();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  journal->Close();

  RunResult result;
  result.stats = service.telemetry_stats();
  result.num_signatures = service.NumSignatures();
  result.num_disabled = service.NumDisabled();
  result.journal_errors = journal->lost_records();
  for (const sparksim::QueryPlan& plan : plans) {
    result.per_plan_counts.push_back(
        service.observations().Count(plan.Signature()));
    result.per_plan_history.push_back(
        service.observations().History(plan.Signature()));
  }
  return result;
}

void ExpectSameObservations(const std::vector<Observation>& a,
                            const std::vector<Observation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration);
    EXPECT_EQ(a[i].failed, b[i].failed);
    EXPECT_DOUBLE_EQ(a[i].runtime, b[i].runtime);
    EXPECT_DOUBLE_EQ(a[i].data_size, b[i].data_size);
  }
}

class ConcurrentServiceTest : public ::testing::Test {
 protected:
  // Per test and process: the test processes ctest -j runs side by side
  // (under TSan at one fixture address) never share a journal.
  const test_support::TestTempDir dir_;
  const std::string base_ = dir_.File("concurrent");
};

TEST_F(ConcurrentServiceTest, CountersAndStateMatchSingleThreadedRun) {
  const RunResult one = RunSuite(1, base_ + ".j1");
  const RunResult four = RunSuite(4, base_ + ".j4");
  const RunResult eight = RunSuite(8, base_ + ".j8");

  // The chaos paths actually fired.
  EXPECT_GT(one.stats.accepted.load(), 0u);
  EXPECT_GT(one.stats.rejected_nonfinite.load(), 0u);
  EXPECT_GT(one.stats.rejected_nonpositive.load(), 0u);
  EXPECT_GT(one.stats.rejected_duplicate.load(), 0u);
  EXPECT_GT(one.stats.failures_ingested.load(), 0u);
  EXPECT_GT(one.num_disabled, 0u);  // the always-failing signatures
  EXPECT_EQ(one.num_signatures, static_cast<size_t>(kNumPlans));
  EXPECT_EQ(one.journal_errors, 0u);

  for (const RunResult* concurrent : {&four, &eight}) {
    EXPECT_EQ(concurrent->stats.accepted.load(), one.stats.accepted.load());
    EXPECT_EQ(concurrent->stats.rejected_nonfinite.load(),
              one.stats.rejected_nonfinite.load());
    EXPECT_EQ(concurrent->stats.rejected_nonpositive.load(),
              one.stats.rejected_nonpositive.load());
    EXPECT_EQ(concurrent->stats.rejected_duplicate.load(),
              one.stats.rejected_duplicate.load());
    EXPECT_EQ(concurrent->stats.rejected_config.load(),
              one.stats.rejected_config.load());
    EXPECT_EQ(concurrent->stats.failures_ingested.load(),
              one.stats.failures_ingested.load());
    EXPECT_EQ(concurrent->num_signatures, one.num_signatures);
    EXPECT_EQ(concurrent->num_disabled, one.num_disabled);
    EXPECT_EQ(concurrent->journal_errors, 0u);
    ASSERT_EQ(concurrent->per_plan_counts.size(),
              one.per_plan_counts.size());
    for (size_t i = 0; i < one.per_plan_counts.size(); ++i) {
      EXPECT_EQ(concurrent->per_plan_counts[i], one.per_plan_counts[i])
          << "plan index " << i;
      ExpectSameObservations(concurrent->per_plan_history[i],
                             one.per_plan_history[i]);
    }
  }
}

TEST_F(ConcurrentServiceTest, JournalRecoveryMatchesSingleThreadedRun) {
  RunSuite(1, base_ + ".j1");
  RunSuite(4, base_ + ".j4");

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= kNumPlans; ++q) {
    plans.push_back(sparksim::TpcdsPlan(q));
  }

  TuningService from_one(space, nullptr, {}, kSeed);
  auto report_one = from_one.RecoverFromCheckpoint(base_ + ".j1", plans);
  ASSERT_TRUE(report_one.ok());
  TuningService from_four(space, nullptr, {}, kSeed);
  auto report_four = from_four.RecoverFromCheckpoint(base_ + ".j4", plans);
  ASSERT_TRUE(report_four.ok());

  // Group commit ended with a clean drain in both runs, and every accepted
  // observation was journaled: recovery sees identical per-signature state
  // regardless of the thread count that produced the journal.
  EXPECT_TRUE(report_one->journal_clean);
  EXPECT_TRUE(report_one->journal_status.ok());
  EXPECT_TRUE(report_four->journal_clean);
  EXPECT_TRUE(report_four->journal_status.ok());
  EXPECT_GT(report_one->signatures_restored, 0u);
  EXPECT_EQ(report_four->signatures_restored, report_one->signatures_restored);
  EXPECT_EQ(report_four->observations_replayed,
            report_one->observations_replayed);
  EXPECT_EQ(report_four->observations_dropped,
            report_one->observations_dropped);
  EXPECT_EQ(report_four->unknown_signatures, report_one->unknown_signatures);

  for (const sparksim::QueryPlan& plan : plans) {
    const uint64_t sig = plan.Signature();
    EXPECT_EQ(from_four.observations().Count(sig),
              from_one.observations().Count(sig));
    EXPECT_EQ(from_four.IsTuningEnabled(sig), from_one.IsTuningEnabled(sig));
    ExpectSameObservations(from_four.observations().History(sig),
                           from_one.observations().History(sig));
  }
}

// The metrics registry is process-global and accumulates across every test
// in this binary, so this test works on before/after deltas: with N threads
// hammering one service, the scraped counters must equal the EXACT number of
// OnQueryStart / OnQueryEnd calls the workload made — sharded counters lose
// nothing under concurrency. (Run under tools/run_sanitized_tests.sh tsan to
// also prove the scrape races no updater.)
TEST_F(ConcurrentServiceTest, MetricsScrapeMatchesExactCallCounts) {
  common::MetricsRegistry& registry = common::MetricsRegistry::Default();
  const common::MetricsSnapshot before = registry.Snapshot();
  const RunResult run = RunSuite(8, base_ + ".j8");
  const common::MetricsSnapshot after = registry.Snapshot();

  auto delta = [&](const char* name, const char* labels = "") {
    return after.Value(name, labels) - before.Value(name, labels);
  };
  auto count_delta = [&](const char* name, const char* labels = "") {
    const common::MetricsSnapshot::Sample* b = before.Find(name, labels);
    const common::MetricsSnapshot::Sample* a = after.Find(name, labels);
    return (a != nullptr ? a->count : 0u) - (b != nullptr ? b->count : 0u);
  };

  const double calls =
      static_cast<double>(kNumPlans) * static_cast<double>(kEventsPerPlan);
  EXPECT_EQ(delta("rockhopper_queries_started_total"), calls);
  EXPECT_EQ(delta("rockhopper_queries_ended_total"), calls);

  // Proposal sources partition the starts...
  EXPECT_EQ(delta("rockhopper_proposals_total", "source=\"tuner\"") +
                delta("rockhopper_proposals_total", "source=\"fallback\"") +
                delta("rockhopper_proposals_total", "source=\"disabled\""),
            calls);
  // ...and sanitizer verdicts partition the ends.
  const char* kVerdicts[] = {"verdict=\"accepted\"",
                             "verdict=\"rejected_nonfinite\"",
                             "verdict=\"rejected_nonpositive\"",
                             "verdict=\"rejected_duplicate\"",
                             "verdict=\"rejected_config\""};
  double verdict_total = 0.0;
  for (const char* labels : kVerdicts) {
    verdict_total += delta("rockhopper_telemetry_events_total", labels);
  }
  EXPECT_EQ(verdict_total, calls);

  // The scraped series agree with the service's own atomic stats.
  EXPECT_EQ(delta("rockhopper_telemetry_events_total",
                  "verdict=\"accepted\""),
            static_cast<double>(run.stats.accepted.load()));
  EXPECT_EQ(delta("rockhopper_failures_ingested_total"),
            static_cast<double>(run.stats.failures_ingested.load()));

  // Every accepted observation was committed to the journal and nothing was
  // lost (journal_errors stayed 0 in RunSuite).
  EXPECT_EQ(delta("rockhopper_journal_appends_total"),
            static_cast<double>(run.stats.accepted.load()));
  EXPECT_EQ(delta("rockhopper_journal_errors_total"), 0.0);

  // Latency spans fire once per delivery, rejects included.
  EXPECT_EQ(count_delta("rockhopper_ingest_seconds"),
            static_cast<uint64_t>(calls));
  EXPECT_EQ(count_delta("rockhopper_ingest_stage_seconds",
                        "stage=\"sanitize\""),
            static_cast<uint64_t>(calls));

  // The always-failing signatures tripped the guardrail; trips match the
  // service's disabled-signature count for this fresh service instance.
  EXPECT_EQ(delta("rockhopper_guardrail_trips_total"),
            static_cast<double>(run.num_disabled));
  EXPECT_GT(delta("rockhopper_fallback_windows_total"), 0.0);
}

}  // namespace
}  // namespace rockhopper::core
