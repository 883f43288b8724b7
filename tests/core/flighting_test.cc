#include "core/flighting.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>

#include "common/csv.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

class FlightingTest : public ::testing::Test {
 protected:
  FlightingTest() : space_(sparksim::QueryLevelSpace()) {
    sparksim::SparkSimulator::Options options;
    options.noise = sparksim::NoiseParams::Low();
    options.seed = 11;
    simulator_ = std::make_unique<sparksim::SparkSimulator>(options);
    pipeline_ =
        std::make_unique<FlightingPipeline>(simulator_.get(), space_);
  }

  FlightingConfig SmallConfig() {
    FlightingConfig config;
    config.suite = FlightingConfig::Suite::kTpch;
    config.query_ids = {1, 2, 3};
    config.scale_factors = {1.0};
    config.configs_per_query = 4;
    config.runs_per_config = 2;
    return config;
  }

  sparksim::ConfigSpace space_;
  std::unique_ptr<sparksim::SparkSimulator> simulator_;
  std::unique_ptr<FlightingPipeline> pipeline_;
};

TEST_F(FlightingTest, RunProducesExpectedMatrix) {
  const std::vector<FlightingRecord> records =
      pipeline_->Run(SmallConfig());
  // 3 queries x 1 scale x 4 configs x 2 runs.
  EXPECT_EQ(records.size(), 24u);
  std::set<int> query_ids;
  for (const FlightingRecord& r : records) {
    query_ids.insert(r.query_id);
    EXPECT_GT(r.runtime, 0.0);
    EXPECT_GT(r.data_size, 0.0);
    EXPECT_EQ(r.config.size(), space_.size());
    EXPECT_TRUE(space_.Validate(r.config).ok());
  }
  EXPECT_EQ(query_ids, (std::set<int>{1, 2, 3}));
}

TEST_F(FlightingTest, EmptyQueryIdsMeansWholeSuite) {
  FlightingConfig config = SmallConfig();
  config.query_ids.clear();
  config.configs_per_query = 1;
  config.runs_per_config = 1;
  const std::vector<FlightingRecord> records = pipeline_->Run(config);
  std::set<int> query_ids;
  for (const FlightingRecord& r : records) query_ids.insert(r.query_id);
  EXPECT_EQ(query_ids.size(),
            static_cast<size_t>(sparksim::kNumTpchQueries));
}

TEST_F(FlightingTest, RepeatedRunsShareConfigPerGroup) {
  const std::vector<FlightingRecord> records =
      pipeline_->Run(SmallConfig());
  // Consecutive pairs (runs_per_config = 2) share the same sampled config.
  for (size_t i = 0; i + 1 < records.size(); i += 2) {
    EXPECT_EQ(records[i].config, records[i + 1].config);
  }
}

TEST_F(FlightingTest, SignatureMatchesPlan) {
  const std::vector<FlightingRecord> records =
      pipeline_->Run(SmallConfig());
  for (const FlightingRecord& r : records) {
    EXPECT_EQ(r.signature,
              FlightingPipeline::PlanFor(FlightingConfig::Suite::kTpch,
                                         r.query_id)
                  .Signature());
  }
}

TEST_F(FlightingTest, ToTrainingDataJoinsEmbeddings) {
  const std::vector<FlightingRecord> records =
      pipeline_->Run(SmallConfig());
  BaselineModel model(space_);
  const ml::Dataset data = pipeline_->ToTrainingData(
      records, FlightingConfig::Suite::kTpch, model);
  EXPECT_EQ(data.size(), records.size());
  EXPECT_EQ(data.num_features(),
            EmbeddingLength(EmbeddingOptions{}) + space_.size() + 1);
}

TEST_F(FlightingTest, TrainBaselineEndToEnd) {
  BaselineModel model(space_);
  Result<std::vector<FlightingRecord>> records =
      pipeline_->TrainBaseline(SmallConfig(), &model);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(records->size(), 24u);
}

TEST_F(FlightingTest, TrainBaselineSubsamples) {
  BaselineModel model(space_);
  Result<std::vector<FlightingRecord>> records =
      pipeline_->TrainBaseline(SmallConfig(), &model, /*max_samples=*/5);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(model.is_fitted());
  // The full trace is still returned even though training subsampled.
  EXPECT_EQ(records->size(), 24u);
}

TEST_F(FlightingTest, LhsGenerationStratifiesConfigs) {
  FlightingConfig config = SmallConfig();
  config.query_ids = {1};
  config.configs_per_query = 12;
  config.runs_per_config = 1;
  config.config_generation = "LHS";
  const std::vector<FlightingRecord> records = pipeline_->Run(config);
  ASSERT_EQ(records.size(), 12u);
  // Stratification: normalized values of each dimension cover most of the
  // 12 equal bins (allowing integer-rounding slack at the coarse dims).
  for (size_t d = 0; d < space_.size(); ++d) {
    std::set<int> buckets;
    for (const FlightingRecord& r : records) {
      const double u = space_.Normalize(r.config)[d];
      buckets.insert(std::min(11, static_cast<int>(u * 12.0)));
    }
    EXPECT_GE(buckets.size(), 10u) << "dimension " << d;
  }
}

TEST_F(FlightingTest, GenerationAlgorithmsYieldDifferentTraces) {
  FlightingConfig random_config = SmallConfig();
  random_config.config_generation = "Random";
  FlightingConfig lhs_config = SmallConfig();
  lhs_config.config_generation = "LHS";
  const auto random_records = pipeline_->Run(random_config);
  const auto lhs_records = pipeline_->Run(lhs_config);
  ASSERT_EQ(random_records.size(), lhs_records.size());
  bool differs = false;
  for (size_t i = 0; i < random_records.size() && !differs; ++i) {
    differs = random_records[i].config != lhs_records[i].config;
  }
  EXPECT_TRUE(differs);
}

TEST_F(FlightingTest, CsvRoundTrip) {
  const std::vector<FlightingRecord> records =
      pipeline_->Run(SmallConfig());
  const test_support::TestTempDir dir;
  const std::string path = dir.File("trace.csv");
  ASSERT_TRUE(pipeline_->ExportCsv(path, records).ok());
  Result<std::vector<FlightingRecord>> loaded = pipeline_->ImportCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*loaded)[i].query_id, records[i].query_id);
    EXPECT_EQ((*loaded)[i].signature, records[i].signature);
    EXPECT_NEAR((*loaded)[i].runtime, records[i].runtime,
                1e-5 * records[i].runtime);
  }
  std::remove(path.c_str());
}

TEST_F(FlightingTest, ImportRejectsWrongSchema) {
  const test_support::TestTempDir dir;
  const std::string path = dir.File("bad.csv");
  common::CsvTable bad;
  bad.header = {"a", "b"};
  bad.rows = {{"1", "2"}};
  ASSERT_TRUE(common::WriteCsvFile(path, bad).ok());
  EXPECT_FALSE(pipeline_->ImportCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rockhopper::core
