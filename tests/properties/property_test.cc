// Parameterized property suites: invariants checked across sweeps of
// queries, tuners, noise levels, and embedding schemes.

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/bo_tuner.h"
#include "core/centroid_learning.h"
#include "core/embedding.h"
#include "core/flow2_tuner.h"
#include "core/manual_policy.h"
#include "sparksim/cost_model.h"
#include "sparksim/synthetic.h"
#include "sparksim/workloads.h"

namespace rockhopper {
namespace {

using core::Tuner;
using sparksim::ConfigVector;

// ---------------------------------------------------------------------
// Cost-model invariants over the whole TPC-H-like suite.
class CostModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(CostModelProperty, RuntimePositiveAndScaleMonotone) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(GetParam());
  const sparksim::CostModel model;
  const sparksim::EffectiveConfig config;
  double prev = 0.0;
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const double sec = model.ExecutionSeconds(plan, config, scale);
    EXPECT_TRUE(std::isfinite(sec));
    EXPECT_GT(sec, 0.0);
    EXPECT_GE(sec, prev);  // more data never runs faster, all else equal
    prev = sec;
  }
}

TEST_P(CostModelProperty, MetricsConsistentWithPlan) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(GetParam());
  const sparksim::CostModel model;
  const sparksim::EffectiveConfig config;
  sparksim::ExecutionMetrics metrics;
  (void)model.ExecutionSeconds(plan, config, 1.0, &metrics);
  EXPECT_DOUBLE_EQ(metrics.scan_bytes, plan.LeafInputBytes(1.0));
  EXPECT_GE(metrics.total_tasks, 1.0);
  const std::vector<double> counts = plan.OperatorCounts();
  const int joins =
      static_cast<int>(counts[static_cast<size_t>(sparksim::OperatorType::kJoin)]);
  EXPECT_EQ(metrics.broadcast_joins + metrics.sort_merge_joins, joins);
}

TEST_P(CostModelProperty, MoreMemoryNeverHurts) {
  const sparksim::QueryPlan plan = sparksim::TpchPlan(GetParam());
  const sparksim::CostModel model;
  sparksim::EffectiveConfig small;
  small.executor_memory_gb = 6.0;
  sparksim::EffectiveConfig large = small;
  large.executor_memory_gb = 48.0;
  EXPECT_GE(model.ExecutionSeconds(plan, small, 2.0),
            model.ExecutionSeconds(plan, large, 2.0) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllTpchQueries, CostModelProperty,
                         ::testing::Range(1, sparksim::kNumTpchQueries + 1));

// ---------------------------------------------------------------------
// Every tuner obeys the same contract: proposals stay inside the space,
// the loop never crashes, and fixed seeds replay exactly.
struct TunerCase {
  std::string name;
  std::unique_ptr<Tuner> (*make)(const sparksim::ConfigSpace&, uint64_t);
};

std::unique_ptr<Tuner> MakeCl(const sparksim::ConfigSpace& space,
                              uint64_t seed) {
  // The scorer needs no external function: the GP-backed production scorer.
  return std::make_unique<core::CentroidLearner>(
      space, space.Defaults(),
      std::make_unique<core::SurrogateScorer>(space, nullptr,
                                              std::vector<double>{},
                                              core::SurrogateScorerOptions{}),
      core::CentroidLearningOptions{}, seed);
}
std::unique_ptr<Tuner> MakeBo(const sparksim::ConfigSpace& space,
                              uint64_t seed) {
  return std::make_unique<core::BoTuner>(space, space.Defaults(),
                                         core::BoTunerOptions{}, seed);
}
std::unique_ptr<Tuner> MakeContextualBo(const sparksim::ConfigSpace& space,
                                       uint64_t seed) {
  core::BoTunerOptions options;
  options.data_size_feature = true;
  return std::make_unique<core::BoTuner>(space, space.Defaults(), options,
                                         seed);
}
std::unique_ptr<Tuner> MakeFlow2(const sparksim::ConfigSpace& space,
                                 uint64_t seed) {
  return std::make_unique<core::Flow2Tuner>(space, space.Defaults(),
                                            core::Flow2Options{}, seed);
}
std::unique_ptr<Tuner> MakeExpert(const sparksim::ConfigSpace& space,
                                  uint64_t seed) {
  return std::make_unique<core::ExpertPolicyTuner>(
      space, space.Defaults(), core::ExpertPolicyOptions{}, seed);
}

class TunerContract : public ::testing::TestWithParam<TunerCase> {};

TEST_P(TunerContract, ProposalsValidUnderNoisyLoop) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  std::unique_ptr<Tuner> tuner = GetParam().make(space, 11);
  common::Rng rng(12);
  for (int t = 0; t < 40; ++t) {
    const ConfigVector c = tuner->Propose(1.0);
    ASSERT_TRUE(space.Validate(c).ok()) << GetParam().name << " iter " << t;
    tuner->Observe(c, 1.0,
                   f.Observe(c, 1.0, sparksim::NoiseParams::High(), &rng));
  }
}

TEST_P(TunerContract, DeterministicGivenSeed) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  std::unique_ptr<Tuner> a = GetParam().make(space, 77);
  std::unique_ptr<Tuner> b = GetParam().make(space, 77);
  common::Rng rng_a(5), rng_b(5);
  for (int t = 0; t < 15; ++t) {
    const ConfigVector ca = a->Propose(1.0);
    const ConfigVector cb = b->Propose(1.0);
    ASSERT_EQ(ca, cb) << GetParam().name << " diverged at iteration " << t;
    a->Observe(ca, 1.0,
               f.Observe(ca, 1.0, sparksim::NoiseParams::Low(), &rng_a));
    b->Observe(cb, 1.0,
               f.Observe(cb, 1.0, sparksim::NoiseParams::Low(), &rng_b));
  }
}

TEST_P(TunerContract, HandlesVaryingDataSizes) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  std::unique_ptr<Tuner> tuner = GetParam().make(space, 21);
  common::Rng rng(22);
  const sparksim::DataSizeSchedule schedule =
      sparksim::DataSizeSchedule::Periodic(0.5, 2.0, 7);
  for (int t = 0; t < 30; ++t) {
    const double p = schedule.At(t);
    const ConfigVector c = tuner->Propose(p);
    ASSERT_TRUE(space.Validate(c).ok());
    tuner->Observe(c, p,
                   f.Observe(c, p, sparksim::NoiseParams::High(), &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTuners, TunerContract,
    ::testing::Values(TunerCase{"centroid", &MakeCl},
                      TunerCase{"bo", &MakeBo},
                      TunerCase{"contextual_bo", &MakeContextualBo},
                      TunerCase{"flow2", &MakeFlow2},
                      TunerCase{"expert", &MakeExpert}),
    [](const ::testing::TestParamInfo<TunerCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// Embedding invariants across both suites and both schemes.
struct EmbeddingCase {
  std::string name;
  bool tpch = false;
  bool virtual_ops = false;
};

class EmbeddingProperty : public ::testing::TestWithParam<EmbeddingCase> {};

TEST_P(EmbeddingProperty, LengthFixedAndCountsMatchPlanSize) {
  core::EmbeddingOptions options;
  options.virtual_operators = GetParam().virtual_ops;
  const size_t expected_length = core::EmbeddingLength(options);
  const int count = GetParam().tpch ? sparksim::kNumTpchQueries
                                    : sparksim::kNumTpcdsQueries;
  for (int q = 1; q <= count; ++q) {
    const sparksim::QueryPlan plan =
        GetParam().tpch ? sparksim::TpchPlan(q) : sparksim::TpcdsPlan(q);
    const std::vector<double> e = core::ComputeEmbedding(plan, options);
    ASSERT_EQ(e.size(), expected_length);
    double total_count = 0.0;
    for (size_t i = 2; i < e.size(); ++i) {
      EXPECT_GE(e[i], 0.0);
      total_count += e[i];
    }
    // Operator-count slots sum to the number of plan nodes.
    EXPECT_DOUBLE_EQ(total_count, static_cast<double>(plan.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndSchemes, EmbeddingProperty,
    ::testing::Values(EmbeddingCase{"tpch_plain", true, false},
                      EmbeddingCase{"tpch_virtual", true, true},
                      EmbeddingCase{"tpcds_plain", false, false},
                      EmbeddingCase{"tpcds_virtual", false, true}),
    [](const ::testing::TestParamInfo<EmbeddingCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// Noise model invariants across the (FL, SL) grid.
class NoiseProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(NoiseProperty, OnlySlowsDownAndMeanInflationBounded) {
  const auto [fl, sl] = GetParam();
  const sparksim::NoiseParams params{fl, sl};
  common::Rng rng(31);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = sparksim::ApplyNoise(100.0, params, &rng);
    ASSERT_GE(g, 100.0);
    sum += g;
  }
  // E[g] = 100 * (1 + FL*sqrt(2/pi)) * (1 + SL/10): check within 5%.
  const double expected =
      100.0 * (1.0 + fl * std::sqrt(2.0 / M_PI)) * (1.0 + sl / 10.0);
  EXPECT_NEAR(sum / n, expected, 0.05 * expected);
}

INSTANTIATE_TEST_SUITE_P(NoiseGrid, NoiseProperty,
                         ::testing::Values(std::make_pair(0.0, 0.0),
                                           std::make_pair(0.1, 0.1),
                                           std::make_pair(0.5, 0.5),
                                           std::make_pair(1.0, 1.0),
                                           std::make_pair(2.0, 0.0),
                                           std::make_pair(0.0, 1.0)));

}  // namespace
}  // namespace rockhopper
