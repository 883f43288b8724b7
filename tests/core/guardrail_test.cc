#include "core/guardrail.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"

namespace rockhopper::core {
namespace {

Observation Obs(int iteration, double runtime, double data_size = 1.0) {
  Observation o;
  o.config = {1.0, 2.0, 3.0};
  o.iteration = iteration;
  o.runtime = runtime;
  o.data_size = data_size;
  return o;
}

Observation FailedObs(int iteration, double runtime = 90.0) {
  Observation o = Obs(iteration, runtime);
  o.failed = true;
  return o;
}

TEST(GuardrailTest, NeverFiresBeforeMinIterations) {
  Guardrail guard;  // min_iterations = 30
  // Strongly regressing runtimes — but the exploration budget protects them.
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(guard.Record(Obs(i, 10.0 + 5.0 * i)));
  }
  EXPECT_FALSE(guard.disabled());
}

TEST(GuardrailTest, DisablesOnPersistentRegression) {
  Guardrail::Options options;
  options.min_iterations = 10;
  options.max_strikes = 3;
  Guardrail guard(options);
  bool active = true;
  for (int i = 0; i < 40 && active; ++i) {
    active = guard.Record(Obs(i, 10.0 + 3.0 * i));
  }
  EXPECT_TRUE(guard.disabled());
}

TEST(GuardrailTest, ImprovingQueryNeverDisabled) {
  Guardrail::Options options;
  options.min_iterations = 10;
  Guardrail guard(options);
  common::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double runtime = 100.0 / (1.0 + 0.05 * i) + rng.Uniform(0.0, 2.0);
    EXPECT_TRUE(guard.Record(Obs(i, runtime))) << "iteration " << i;
  }
  EXPECT_FALSE(guard.disabled());
  EXPECT_EQ(guard.strikes(), 0);
}

TEST(GuardrailTest, FlatNoisyQueryStaysEnabled) {
  Guardrail::Options options;
  options.min_iterations = 10;
  options.regression_threshold = 0.15;
  Guardrail guard(options);
  common::Rng rng(2);
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(guard.Record(Obs(i, 50.0 * (1.0 + 0.1 * rng.Uniform()))));
  }
  EXPECT_FALSE(guard.disabled());
}

TEST(GuardrailTest, DataSizeGrowthIsNotMistakenForRegression) {
  // Runtime grows only because input size grows; the cardinality feature
  // must absorb it. (This is why the trend model includes input size.)
  Guardrail::Options options;
  options.min_iterations = 10;
  options.regression_threshold = 0.1;
  Guardrail guard(options);
  for (int i = 0; i < 60; ++i) {
    const double p = 1.0 + 0.2 * i;         // growing input
    const double runtime = 20.0 * p;        // runtime tracks input exactly
    EXPECT_TRUE(guard.Record(Obs(i, runtime, p))) << "iteration " << i;
  }
  EXPECT_FALSE(guard.disabled());
}

TEST(GuardrailTest, StrikesResetOnRecovery) {
  Guardrail::Options options;
  options.min_iterations = 5;
  options.max_strikes = 8;  // generous: the regressing phase must not kill it
  Guardrail guard(options);
  // Regress for a bit...
  int i = 0;
  for (; i < 10; ++i) guard.Record(Obs(i, 10.0 + 3.0 * i));
  EXPECT_GT(guard.strikes(), 0);
  EXPECT_FALSE(guard.disabled());
  // ...then improve sharply and stay fast; the trend flips and strikes
  // must clear.
  for (; i < 45; ++i) guard.Record(Obs(i, 2.0));
  EXPECT_EQ(guard.strikes(), 0);
  EXPECT_FALSE(guard.disabled());
}

TEST(GuardrailTest, DisabledIsSticky) {
  Guardrail::Options options;
  options.min_iterations = 5;
  options.max_strikes = 2;
  Guardrail guard(options);
  int i = 0;
  while (!guard.disabled() && i < 50) {
    guard.Record(Obs(i, 10.0 + 4.0 * i));
    ++i;
  }
  ASSERT_TRUE(guard.disabled());
  // Even perfect runs afterwards do not re-enable.
  EXPECT_FALSE(guard.Record(Obs(i, 0.1)));
  EXPECT_TRUE(guard.disabled());
}

TEST(GuardrailFailureTest, PersistentFailuresDisable) {
  // Defaults: 2 consecutive failures = 1 strike, 3 strikes disable. A
  // failure-heavy trace (everything dying) must get the signature disabled —
  // and without waiting for min_iterations.
  Guardrail guard;  // min_iterations = 30: failures must bypass it
  int i = 0;
  while (!guard.disabled() && i < 20) {
    guard.Record(FailedObs(i));
    ++i;
  }
  EXPECT_TRUE(guard.disabled());
  EXPECT_EQ(i, 6);  // 3 strikes x 2 consecutive failures each
  EXPECT_EQ(guard.failure_strikes(), 3);
}

TEST(GuardrailFailureTest, SporadicSingleFailuresNeverStrike) {
  // One failure in every four runs, never two in a row: the consecutive
  // counter resets before reaching the strike threshold.
  Guardrail guard;
  for (int i = 0; i < 100; ++i) {
    const bool failed = (i % 4 == 3);
    EXPECT_TRUE(guard.Record(failed ? FailedObs(i) : Obs(i, 30.0)))
        << "iteration " << i;
  }
  EXPECT_FALSE(guard.disabled());
  EXPECT_EQ(guard.failure_strikes(), 0);
}

TEST(GuardrailFailureTest, FailureStrikesAreSticky) {
  // Strikes accumulate across separated failure bursts: two bursts of two
  // plus one more burst crosses max_failure_strikes even with long healthy
  // stretches in between.
  Guardrail guard;
  int iteration = 0;
  auto burst = [&](int failures) {
    for (int i = 0; i < failures; ++i) guard.Record(FailedObs(iteration++));
  };
  auto healthy = [&](int runs) {
    for (int i = 0; i < runs; ++i) guard.Record(Obs(iteration++, 30.0));
  };
  burst(2);  // strike 1
  EXPECT_EQ(guard.failure_strikes(), 1);
  healthy(10);
  EXPECT_EQ(guard.failure_strikes(), 1);  // sticky through recovery
  EXPECT_EQ(guard.consecutive_failures(), 0);
  burst(2);  // strike 2
  healthy(10);
  burst(2);  // strike 3 -> disabled
  EXPECT_TRUE(guard.disabled());
}

TEST(GuardrailFailureTest, LongStreakEarnsMultipleStrikes) {
  Guardrail::Options options;
  options.failure_strike_threshold = 2;
  options.max_failure_strikes = 10;  // keep it enabled to count strikes
  Guardrail guard(options);
  for (int i = 0; i < 7; ++i) guard.Record(FailedObs(i));
  // 7 consecutive failures at threshold 2 = strikes at 2, 4, 6.
  EXPECT_EQ(guard.failure_strikes(), 3);
  EXPECT_EQ(guard.consecutive_failures(), 7);
}

TEST(GuardrailTest, PredictNextRuntimeTracksTrend) {
  Guardrail guard;
  EXPECT_LT(guard.PredictNextRuntime(), 0.0);  // unfittable yet
  for (int i = 0; i < 10; ++i) guard.Record(Obs(i, 10.0 + 2.0 * i));
  // Linear trend: next iteration (10) should predict ~30.
  EXPECT_NEAR(guard.PredictNextRuntime(), 30.0, 1.0);
}

/// The evict/fault-in contract at the guardrail's own boundary: a guardrail
/// rebuilt from Save/Load makes exactly the decisions the original makes,
/// through failures, strikes and the trend fit.
TEST(GuardrailTest, SaveLoadRoundTripKeepsDecisionsBitIdentical) {
  Guardrail::Options options;
  options.min_iterations = 10;
  options.max_strikes = 30;
  // Noisy runtimes that track a cycling input size, flat for 20 iterations
  // and then drifting upward; a failed pair at 12-13 earns a failure strike
  // and lone failures every 9th run reset without one.
  common::Rng rng(5);
  std::vector<Observation> stream;
  for (int i = 0; i < 60; ++i) {
    const double data_size = 1.0 + 0.1 * (i % 4);
    double runtime = 40.0 * data_size * (1.0 + 0.05 * rng.Uniform());
    if (i >= 20) runtime += 1.5 * (i - 20);
    Observation obs = Obs(i, runtime, data_size);
    obs.failed = i == 12 || i == 13 || i % 9 == 4;
    stream.push_back(obs);
  }

  Guardrail original(options);
  for (int i = 0; i < 40; ++i) original.Record(stream[i]);
  ASSERT_FALSE(original.disabled());
  ASSERT_GT(original.strikes(), 0);
  ASSERT_GT(original.failure_strikes(), 0);

  common::ArchiveWriter writer;
  ASSERT_TRUE(original.Save("g", &writer).ok());
  Result<common::ArchiveReader> reader =
      common::ArchiveReader::Parse(writer.Finish());
  ASSERT_TRUE(reader.ok());
  Guardrail restored(options);
  ASSERT_TRUE(restored.Load("g", *reader).ok());

  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  ASSERT_EQ(bits(restored.PredictNextRuntime()),
            bits(original.PredictNextRuntime()));
  for (int i = 40; i < 60; ++i) {
    EXPECT_EQ(restored.Record(stream[i]), original.Record(stream[i]))
        << "iteration " << i;
    EXPECT_EQ(restored.strikes(), original.strikes()) << "iteration " << i;
    EXPECT_EQ(restored.failure_strikes(), original.failure_strikes())
        << "iteration " << i;
    EXPECT_EQ(restored.consecutive_failures(), original.consecutive_failures())
        << "iteration " << i;
    EXPECT_EQ(bits(restored.PredictNextRuntime()),
              bits(original.PredictNextRuntime()))
        << "iteration " << i;
  }
  // The drift keeps striking after the restore until tuning is disabled.
  EXPECT_TRUE(original.disabled());
  EXPECT_TRUE(restored.disabled());
}

}  // namespace
}  // namespace rockhopper::core
