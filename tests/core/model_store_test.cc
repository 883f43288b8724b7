#include "core/model_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/baseline_model.h"
#include "core/flighting.h"
#include "sparksim/simulator.h"
#include "support/test_temp_dir.h"

namespace rockhopper::core {
namespace {

class ModelStoreTest : public ::testing::Test {
 protected:
  const test_support::TestTempDir temp_;
  const std::string root_ = temp_.File("store");
};

TEST_F(ModelStoreTest, PutGetRoundTrip) {
  ModelStore store(root_);
  Result<int> gen = store.Put(42, "artifact-bytes");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 0);
  Result<std::string> back = store.GetLatest(42);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "artifact-bytes");
}

TEST_F(ModelStoreTest, GenerationsIncrement) {
  ModelStore store(root_);
  EXPECT_EQ(*store.Put(7, "v0"), 0);
  EXPECT_EQ(*store.Put(7, "v1"), 1);
  EXPECT_EQ(*store.Put(7, "v2"), 2);
  EXPECT_EQ(store.Generations(7), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(*store.GetLatest(7), "v2");
  EXPECT_EQ(*store.Get(7, 1), "v1");
}

TEST_F(ModelStoreTest, UnknownSignatureIsNotFound) {
  ModelStore store(root_);
  EXPECT_EQ(store.GetLatest(404).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Generations(404).empty());
}

TEST_F(ModelStoreTest, UnwritableRootIsIOError) {
  // A filesystem refusal is kIOError — distinct from the kNotFound cold
  // start above, so callers can warn loudly on one and proceed quietly on
  // the other. Rooting the store under a regular file makes every
  // create_directories fail deterministically.
  std::filesystem::create_directories(root_);
  const std::string blocker = root_ + "/not-a-dir";
  { std::ofstream(blocker) << "file, not a directory"; }
  ModelStore store(blocker + "/models");
  EXPECT_EQ(store.Put(7, "artifact").status().code(), StatusCode::kIOError);
}

TEST_F(ModelStoreTest, SignaturesAreIsolated) {
  ModelStore store(root_);
  ASSERT_TRUE(store.Put(1, "one").ok());
  ASSERT_TRUE(store.Put(2, "two").ok());
  EXPECT_EQ(*store.GetLatest(1), "one");
  EXPECT_EQ(*store.GetLatest(2), "two");
  EXPECT_EQ(store.Signatures(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(ModelStoreTest, CleanupKeepsNewestGenerations) {
  ModelStore store(root_);
  for (int i = 0; i < 5; ++i) {
    // Built by append: GCC 12 -O3 raises a false -Wrestrict on "v" + string.
    ASSERT_TRUE(
        store.Put(9, std::string("v").append(std::to_string(i))).ok());
  }
  ASSERT_TRUE(store.CleanupGenerations(2).ok());
  EXPECT_EQ(store.Generations(9), (std::vector<int>{3, 4}));
  EXPECT_EQ(*store.GetLatest(9), "v4");
  EXPECT_FALSE(store.Get(9, 0).ok());
  EXPECT_FALSE(store.CleanupGenerations(0).ok());
}

TEST_F(ModelStoreTest, DeleteSignatureRemovesEverything) {
  ModelStore store(root_);
  ASSERT_TRUE(store.Put(5, "data").ok());
  ASSERT_TRUE(store.DeleteSignature(5).ok());
  EXPECT_FALSE(store.GetLatest(5).ok());
  EXPECT_TRUE(store.Signatures().empty());
}

TEST_F(ModelStoreTest, PersistsAcrossInstances) {
  {
    ModelStore store(root_);
    ASSERT_TRUE(store.Put(3, "durable").ok());
  }
  ModelStore reopened(root_);
  EXPECT_EQ(*reopened.GetLatest(3), "durable");
}

TEST_F(ModelStoreTest, EndToEndBaselineModelDistribution) {
  // The full §5 path: train a baseline, serialize, store, fetch on the
  // "client", deserialize, predict identically.
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options options;
  options.noise = sparksim::NoiseParams::Low();
  sparksim::SparkSimulator sim(options);
  FlightingPipeline pipeline(&sim, space);
  FlightingConfig config;
  config.suite = FlightingConfig::Suite::kTpch;
  config.query_ids = {1, 2, 3, 4};
  config.scale_factors = {1.0};
  config.configs_per_query = 6;
  BaselineModel trained(space);
  ASSERT_TRUE(pipeline.TrainBaseline(config, &trained).ok());

  Result<std::string> artifact = trained.Serialize();
  ASSERT_TRUE(artifact.ok());
  ModelStore store(root_);
  ASSERT_TRUE(store.Put(1234, *artifact).ok());

  BaselineModel client_side(space);
  Result<std::string> fetched = store.GetLatest(1234);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(client_side.Deserialize(*fetched).ok());
  ASSERT_TRUE(client_side.is_fitted());

  const sparksim::QueryPlan plan = sparksim::TpchPlan(2);
  const std::vector<double> embedding = ComputeEmbedding(plan, {});
  common::Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const sparksim::ConfigVector c = space.Sample(&rng);
    EXPECT_DOUBLE_EQ(
        client_side.PredictRuntime(embedding, c, plan.LeafInputBytes(1.0)),
        trained.PredictRuntime(embedding, c, plan.LeafInputBytes(1.0)));
  }
}

TEST_F(ModelStoreTest, DeserializeRejectsWrongSpace) {
  const sparksim::ConfigSpace query_space = sparksim::QueryLevelSpace();
  const sparksim::ConfigSpace joint_space = sparksim::JointSpace();
  sparksim::SparkSimulator sim;
  FlightingPipeline pipeline(&sim, query_space);
  FlightingConfig config;
  config.suite = FlightingConfig::Suite::kTpch;
  config.query_ids = {1};
  config.scale_factors = {1.0};
  config.configs_per_query = 5;
  BaselineModel trained(query_space);
  ASSERT_TRUE(pipeline.TrainBaseline(config, &trained).ok());
  Result<std::string> artifact = trained.Serialize();
  ASSERT_TRUE(artifact.ok());
  BaselineModel wrong_space(joint_space);
  EXPECT_EQ(wrong_space.Deserialize(*artifact).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rockhopper::core
