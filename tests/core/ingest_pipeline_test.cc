#include "core/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/journal.h"
#include "core/scorer.h"
#include "sparksim/config_space.h"

namespace rockhopper::core {
namespace {

sparksim::ConfigSpace Space() { return sparksim::QueryLevelSpace(); }

QueryEndEvent Event(const sparksim::ConfigSpace& space, uint64_t event_id,
                    double runtime, bool failed = false) {
  QueryEndEvent event;
  event.event_id = event_id;
  event.config = space.Defaults();
  event.data_size = 1e9;
  event.runtime = runtime;
  event.failed = failed;
  return event;
}

Observation Obs(const sparksim::ConfigSpace& space, int iteration,
                double runtime, bool failed = false) {
  Observation obs;
  obs.config = space.Defaults();
  obs.data_size = 1e9;
  obs.runtime = runtime;
  obs.iteration = iteration;
  obs.failed = failed;
  return obs;
}

// A QueryState with a live tuner, built the way the service builds one.
QueryState MakeState(const sparksim::ConfigSpace& space,
                     GuardrailOptions guardrail = {}) {
  QueryState state;
  state.tuner = std::make_unique<CentroidLearner>(
      space, space.Defaults(),
      std::make_unique<SurrogateScorer>(space, nullptr, std::vector<double>{}),
      CentroidLearningOptions{}, 99);
  state.guardrail = Guardrail(guardrail);
  return state;
}

// --- Stage 1: sanitize ---

TEST(SanitizeStageTest, AcceptsValidAndCountsRejections) {
  const sparksim::ConfigSpace space = Space();
  SanitizeStage stage(space, /*dedup_window=*/8);

  EXPECT_EQ(stage.Admit(1, Event(space, 1, 10.0)), TelemetryVerdict::kAccept);
  // Same event id again: duplicate.
  EXPECT_EQ(stage.Admit(1, Event(space, 1, 10.0)),
            TelemetryVerdict::kRejectDuplicate);
  // NaN runtime.
  EXPECT_EQ(stage.Admit(1, Event(space, 2,
                                 std::numeric_limits<double>::quiet_NaN())),
            TelemetryVerdict::kRejectNonFinite);
  // Non-positive runtime on a successful run.
  EXPECT_EQ(stage.Admit(1, Event(space, 3, -1.0)),
            TelemetryVerdict::kRejectNonPositive);
  // Wrong config width.
  QueryEndEvent narrow = Event(space, 4, 10.0);
  narrow.config.pop_back();
  EXPECT_EQ(stage.Admit(1, narrow), TelemetryVerdict::kRejectConfig);

  EXPECT_EQ(stage.stats().accepted.load(), 1u);
  EXPECT_EQ(stage.stats().rejected_duplicate.load(), 1u);
  EXPECT_EQ(stage.stats().rejected_nonfinite.load(), 1u);
  EXPECT_EQ(stage.stats().rejected_nonpositive.load(), 1u);
  EXPECT_EQ(stage.stats().rejected_config.load(), 1u);
  EXPECT_EQ(stage.stats().total_rejected(), 4u);
}

// --- Stage 2: failure policy ---

TEST(FailurePolicyStageTest, ImputesFromMedianOfRecentSuccesses) {
  const sparksim::ConfigSpace space = Space();
  FailurePolicyStage stage(FailurePolicyOptions{}, /*window_size=*/15);
  ObservationWindow recent;
  recent.push_back(Obs(space, 0, 30.0));
  recent.push_back(Obs(space, 1, 40.0));
  recent.push_back(Obs(space, 2, 50.0));
  recent.push_back(Obs(space, 3, 1000.0, /*failed=*/true));  // excluded
  // Median of {30, 40, 50} = 40; default penalty multiplier 3.
  EXPECT_DOUBLE_EQ(
      stage.ImputeFailedRuntime(Event(space, 1, 5.0, /*failed=*/true), recent),
      120.0);
}

TEST(FailurePolicyStageTest, ImputationFallsBackWithoutHistory) {
  const sparksim::ConfigSpace space = Space();
  FailurePolicyStage stage(FailurePolicyOptions{}, 15);
  // No successful history: penalize the reported burn time.
  EXPECT_DOUBLE_EQ(
      stage.ImputeFailedRuntime(Event(space, 1, 7.0, true), {}), 21.0);
  // Unusable burn time: unit runtime times the penalty.
  QueryEndEvent bad = Event(space, 2, -1.0, true);
  EXPECT_DOUBLE_EQ(stage.ImputeFailedRuntime(bad, {}), 3.0);
}

TEST(FailurePolicyStageTest, FailureStreakArmsFallbackWithExponentialBackoff) {
  const sparksim::ConfigSpace space = Space();
  FailurePolicyOptions options;  // fallback_after=2, initial backoff 1, max 16
  FailurePolicyStage stage(options, 15);
  QueryState state;
  state.backoff = 1;

  Observation first =
      stage.Apply(Event(space, 1, 5.0, true), {}, 0, &state);
  EXPECT_TRUE(first.failed);
  EXPECT_GT(first.runtime, 5.0);  // imputed, not the raw burn time
  EXPECT_EQ(state.consecutive_failures, 1);
  EXPECT_EQ(state.fallback_remaining, 0);  // streak below fallback_after

  stage.Apply(Event(space, 2, 5.0, true), {}, 1, &state);
  EXPECT_EQ(state.consecutive_failures, 2);
  EXPECT_EQ(state.fallback_remaining, 1);  // armed with current backoff
  EXPECT_EQ(state.backoff, 2);             // widened for the next streak

  stage.Apply(Event(space, 3, 5.0, true), {}, 2, &state);
  EXPECT_EQ(state.fallback_remaining, 2);
  EXPECT_EQ(state.backoff, 4);

  // A success ends the streak but keeps the widened backoff.
  Observation ok = stage.Apply(Event(space, 4, 6.0), {}, 3, &state);
  EXPECT_FALSE(ok.failed);
  EXPECT_DOUBLE_EQ(ok.runtime, 6.0);
  EXPECT_EQ(state.consecutive_failures, 0);
  EXPECT_EQ(state.backoff, 4);
}

TEST(FailurePolicyStageTest, BackoffIsCapped) {
  const sparksim::ConfigSpace space = Space();
  FailurePolicyOptions options;
  options.max_backoff = 4;
  FailurePolicyStage stage(options, 15);
  QueryState state;
  state.backoff = 1;
  for (uint64_t i = 0; i < 10; ++i) {
    stage.Apply(Event(space, i + 1, 5.0, true), {}, i, &state);
  }
  EXPECT_EQ(state.backoff, 4);
}

// --- Stage 3: tune ---

TEST(TuneStageTest, FeedsTunerAndReportsEnabled) {
  const sparksim::ConfigSpace space = Space();
  QueryState state = MakeState(space);
  TuneStage stage(/*enable_guardrail=*/true);
  EXPECT_TRUE(stage.Apply(Obs(space, 0, 10.0), &state));
  EXPECT_TRUE(stage.Apply(Obs(space, 1, 11.0), &state));
  EXPECT_EQ(state.tuner->history().size(), 2u);
  EXPECT_FALSE(state.disabled);
}

TEST(TuneStageTest, GuardrailDisablesOnFailureStrikes) {
  const sparksim::ConfigSpace space = Space();
  GuardrailOptions guardrail;
  guardrail.failure_strike_threshold = 1;
  guardrail.max_failure_strikes = 2;
  QueryState state = MakeState(space, guardrail);
  TuneStage stage(/*enable_guardrail=*/true);
  EXPECT_TRUE(stage.Apply(Obs(space, 0, 30.0, true), &state));
  EXPECT_FALSE(stage.Apply(Obs(space, 1, 30.0, true), &state));
  EXPECT_TRUE(state.disabled);
  // Disabled is sticky: nothing further reaches the tuner.
  const size_t frozen = state.tuner->history().size();
  EXPECT_FALSE(stage.Apply(Obs(space, 2, 10.0), &state));
  EXPECT_EQ(state.tuner->history().size(), frozen);
}

TEST(TuneStageTest, DisabledGuardrailNeverKills) {
  const sparksim::ConfigSpace space = Space();
  GuardrailOptions guardrail;
  guardrail.failure_strike_threshold = 1;
  guardrail.max_failure_strikes = 1;
  QueryState state = MakeState(space, guardrail);
  TuneStage stage(/*enable_guardrail=*/false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(stage.Apply(Obs(space, i, 30.0, true), &state));
  }
  EXPECT_FALSE(state.disabled);
}

// --- Stage 4: journal ---

TEST(JournalStageTest, NullJournalIsNoOp) {
  const sparksim::ConfigSpace space = Space();
  const uint64_t errors0 = ServiceMetrics::Get().journal_errors->Value();
  JournalStage stage;
  stage.Append(nullptr, 1, Obs(space, 0, 10.0));
  EXPECT_EQ(ServiceMetrics::Get().journal_errors->Value(), errors0);
}

TEST(JournalStageTest, CountsAppendErrors) {
  const sparksim::ConfigSpace space = Space();
  JournalStage stage;
  ObservationJournal closed;  // never opened: every append fails
  for (int i = 0; i < 3; ++i) {
    stage.Append(&closed, 1, Obs(space, i, 10.0));
  }
  // The journal owns the one lost-record count.
  EXPECT_EQ(closed.lost_records(), 3u);
}

// --- The assembled pipeline ---

TEST(IngestPipelineTest, AcceptStoresJournalsAndTunes) {
  const sparksim::ConfigSpace space = Space();
  IngestPipeline pipeline(space, {});
  QueryState state = MakeState(space);
  ObservationStore store;

  EXPECT_EQ(pipeline.Ingest(5, Event(space, 1, 12.0), &state, &store, nullptr),
            TelemetryVerdict::kAccept);
  EXPECT_EQ(store.Count(5), 1u);
  EXPECT_EQ(store.History(5)[0].iteration, 0);
  EXPECT_DOUBLE_EQ(store.History(5)[0].runtime, 12.0);
  EXPECT_EQ(state.tuner->history().size(), 1u);
  EXPECT_EQ(pipeline.stats().accepted.load(), 1u);
}

TEST(IngestPipelineTest, RejectedEventTouchesNothingButCounters) {
  const sparksim::ConfigSpace space = Space();
  IngestPipeline pipeline(space, {});
  QueryState state = MakeState(space);
  ObservationStore store;

  EXPECT_EQ(pipeline.Ingest(5, Event(space, 1, -3.0), &state, &store, nullptr),
            TelemetryVerdict::kRejectNonPositive);
  EXPECT_EQ(store.Count(5), 0u);
  EXPECT_EQ(state.tuner->history().size(), 0u);
  EXPECT_EQ(pipeline.stats().rejected_nonpositive.load(), 1u);
}

TEST(IngestPipelineTest, FailureIsImputedFromStoredWindow) {
  const sparksim::ConfigSpace space = Space();
  IngestPipeline pipeline(space, {});
  QueryState state = MakeState(space);
  ObservationStore store;

  pipeline.Ingest(5, Event(space, 1, 40.0), &state, &store, nullptr);
  pipeline.Ingest(5, Event(space, 2, 40.0), &state, &store, nullptr);
  pipeline.Ingest(5, Event(space, 3, 7.0, /*failed=*/true), &state, &store,
                  nullptr);
  ASSERT_EQ(store.Count(5), 3u);
  // Median successful runtime 40 x default penalty 3 — the stored (and
  // tuned-on) runtime is the imputed one, not the burn time.
  EXPECT_DOUBLE_EQ(store.History(5)[2].runtime, 120.0);
  EXPECT_TRUE(store.History(5)[2].failed);
  EXPECT_EQ(pipeline.stats().failures_ingested.load(), 1u);
}

TEST(IngestPipelineTest, DisabledStateStillStoresAndJournals) {
  const sparksim::ConfigSpace space = Space();
  IngestPipeline pipeline(space, {});
  QueryState state = MakeState(space);
  state.disabled = true;
  ObservationStore store;

  EXPECT_EQ(pipeline.Ingest(5, Event(space, 1, 12.0), &state, &store, nullptr),
            TelemetryVerdict::kAccept);
  // Accepted telemetry for a disabled signature still lands in the store
  // (recovery must replay the identical history) but not in the tuner.
  EXPECT_EQ(store.Count(5), 1u);
  EXPECT_EQ(state.tuner->history().size(), 0u);
}

}  // namespace
}  // namespace rockhopper::core
