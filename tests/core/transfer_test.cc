#include "core/transfer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "support/test_temp_dir.h"
#include "sparksim/workloads.h"

namespace rockhopper::core {
namespace {

std::vector<double> Point(double x, size_t dim = 8) {
  return std::vector<double>(dim, x);
}

TEST(TransferIndexTest, RadiusFilterAndSelfExclusion) {
  TransferOptions options;
  options.enabled = true;
  options.max_distance = 0.5;  // normalized by sqrt(8)
  TransferIndex index(8, options);
  ASSERT_TRUE(index.Register(1, Point(0.0)).ok());
  ASSERT_TRUE(index.Register(2, Point(0.1)).ok());
  ASSERT_TRUE(index.Register(3, Point(10.0)).ok());  // far outside the radius

  const std::vector<TransferNeighbor> got = index.Neighbors(Point(0.0), 8, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].signature, 2u);
  // Tolerance covers the index's float32 vector quantization.
  EXPECT_NEAR(got[0].normalized_distance, 0.1, 1e-6);
  // The exact reference path applies the identical contract.
  const std::vector<TransferNeighbor> exact =
      index.ExactNeighbors(Point(0.0), 8, 1);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].signature, 2u);
}

TEST(TransferIndexTest, NonFiniteEmbeddingsAreRefused) {
  TransferOptions options;
  options.enabled = true;
  TransferIndex index(4, options);
  std::vector<double> bad = Point(1.0, 4);
  bad[2] = std::nan("");
  EXPECT_EQ(index.Register(7, bad).code(), StatusCode::kInvalidArgument);
  bad[2] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(index.Register(7, bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Size() + index.Neighbors(Point(1.0, 4), 4, 0).size(), 0u);
}

TEST(TransferIndexTest, ConcurrentRegisterAndSearchIsSafe) {
  TransferOptions options;
  options.enabled = true;
  TransferIndex index(8, options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> searches_served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t signature =
            static_cast<uint64_t>(t) * kPerThread + i + 1;
        ASSERT_TRUE(
            index.Register(signature, Point(0.01 * (signature % 97))).ok());
        if (i % 3 == 0) {
          searches_served +=
              static_cast<int>(index.Neighbors(Point(0.5), 4, 0).size());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  index.Flush();
  EXPECT_EQ(index.Size(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_GT(searches_served.load(), 0);
}

class TransferServiceTest : public ::testing::Test {
 protected:
  TransferServiceTest() : space_(sparksim::QueryLevelSpace()) {}

  TuningServiceOptions TransferOn() {
    TuningServiceOptions options;
    options.guardrail.min_iterations = 10;
    options.centroid.num_candidates = 8;
    options.transfer.enabled = true;
    return options;
  }

  /// Drives `plan` for `iters` rounds with feedback that rewards small
  /// shuffle.partitions, pulling the centroid well below the defaults.
  void TuneDown(TuningService* service, const sparksim::QueryPlan& plan,
                int iters) {
    for (int i = 0; i < iters; ++i) {
      const sparksim::ConfigVector c = service->OnQueryStart(plan, 1.0);
      const double runtime = 10.0 + 100.0 * space_.Normalize(c)[2];
      service->OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, runtime));
    }
  }

  /// A second signature with a near-identical embedding to `plan`.
  static sparksim::QueryPlan Rehashed(const sparksim::QueryPlan& plan) {
    sparksim::QueryPlan other = plan;
    other.mutable_node(0).est_output_rows *= 64.0;
    EXPECT_NE(other.Signature(), plan.Signature());
    return other;
  }

  sparksim::ConfigSpace space_;
  const test_support::TestTempDir temp_;
  const std::string dir_ = temp_.path().string();
};

TEST_F(TransferServiceTest, ColdSignatureWarmStartsFromNeighbors) {
  TuningService service(space_, nullptr, TransferOn(), 21);
  ASSERT_NE(service.transfer_index(), nullptr);
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(13);
  TuneDown(&service, plan_a, 25);

  const sparksim::QueryPlan plan_b = Rehashed(plan_a);
  const sparksim::ConfigVector b_first = service.OnQueryStart(plan_b, 1.0);
  EXPECT_LT(space_.Normalize(b_first)[2],
            space_.Normalize(space_.Defaults())[2]);
  // The blend is guardrail-screened and clamped back onto the space grid.
  EXPECT_TRUE(space_.Validate(b_first).ok());
  EXPECT_EQ(service.transfer_index()->Size(), 2u);
}

TEST_F(TransferServiceTest, DisabledNeighborsContributeNothing) {
  TuningServiceOptions options = TransferOn();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  TuningService service(space_, nullptr, options, 22);
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(4);
  // Regress hard until the guardrail disables A.
  for (int i = 0; i < 40; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan_a, 1.0);
    service.OnQueryEnd(plan_a,
                       QueryEndEvent::FromRun(c, 1.0, 10.0 + 5.0 * i));
  }
  ASSERT_FALSE(service.IsTuningEnabled(plan_a.Signature()));

  // A is B's only possible neighbor; screened out, the consult is a miss
  // and B starts from the defaults.
  const sparksim::QueryPlan plan_b = Rehashed(plan_a);
  const sparksim::ConfigVector b_first = service.OnQueryStart(plan_b, 1.0);
  EXPECT_NEAR(space_.Normalize(b_first)[2],
              space_.Normalize(space_.Defaults())[2], 0.06);
}

TEST_F(TransferServiceTest, EvictedNeighborIsFaultedInForConsult) {
  std::map<uint64_t, sparksim::QueryPlan> plans;
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(13);
  plans.emplace(plan_a.Signature(), plan_a);

  ModelStore store(dir_);
  TuningService service(space_, nullptr, TransferOn(), 23);
  // Budget of one byte: A is evicted after every release, so the consult
  // must fault it back in through the cold tier.
  StateTierOptions tier;
  tier.shared_budget_bytes = 1;
  tier.state_budget_fraction = 1.0;
  tier.plan_resolver = [&plans](uint64_t signature) {
    auto it = plans.find(signature);
    return it == plans.end() ? nullptr : &it->second;
  };
  service.AttachStateTier(&store, tier);
  TuneDown(&service, plan_a, 25);
  ASSERT_EQ(service.StateTierStats().resident_signatures, 0u);

  const sparksim::QueryPlan plan_b = Rehashed(plan_a);
  const sparksim::ConfigVector b_first = service.OnQueryStart(plan_b, 1.0);
  EXPECT_LT(space_.Normalize(b_first)[2],
            space_.Normalize(space_.Defaults())[2]);
}

TEST_F(TransferServiceTest, RecoveryPathsNeverConsultTransfer) {
  // Replay must rebuild the journal-determined trajectory: transfer seeds
  // are a first-contact heuristic that never enters the journal, so a
  // recovered twin with transfer armed has to propose bit-identically to a
  // twin with the tier off entirely. (The live service legitimately differs
  // for signatures whose first contact was warm-started.)
  const std::string journal_path = dir_ + "/journal.log";
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(13);
  const sparksim::QueryPlan plan_b = Rehashed(plan_a);

  TuningService live(space_, nullptr, TransferOn(), 24);
  auto journal = ObservationJournal::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  live.AttachJournal(&*journal);
  TuneDown(&live, plan_a, 20);
  TuneDown(&live, plan_b, 5);
  ASSERT_TRUE(live.Shutdown().ok());

  TuningService armed(space_, nullptr, TransferOn(), 24);
  auto armed_report =
      armed.RecoverFromCheckpoint(journal_path, {plan_a, plan_b});
  ASSERT_TRUE(armed_report.ok());
  EXPECT_EQ(armed_report->signatures_restored, 2u);
  // Replay registered both embeddings even though it never consulted them.
  EXPECT_EQ(armed.transfer_index()->Size(), 2u);

  TuningServiceOptions off = TransferOn();
  off.transfer.enabled = false;
  TuningService plain(space_, nullptr, off, 24);
  ASSERT_TRUE(plain.RecoverFromCheckpoint(journal_path, {plan_a, plan_b}).ok());

  EXPECT_EQ(armed.OnQueryStart(plan_a, 1.0), plain.OnQueryStart(plan_a, 1.0));
  EXPECT_EQ(armed.OnQueryStart(plan_b, 1.0), plain.OnQueryStart(plan_b, 1.0));
}

TEST_F(TransferServiceTest, CheckpointPersistsIndexAndRecoveryReloadsIt) {
  const std::string journal_path = dir_ + "/journal.log";
  const std::string store_dir = dir_ + "/store";
  std::map<uint64_t, sparksim::QueryPlan> plans;
  for (int q = 1; q <= 5; ++q) {
    const sparksim::QueryPlan plan = sparksim::TpchPlan(q);
    plans.emplace(plan.Signature(), plan);
  }
  auto resolver = [&plans](uint64_t signature) -> const sparksim::QueryPlan* {
    auto it = plans.find(signature);
    return it == plans.end() ? nullptr : &it->second;
  };
  const auto tier_for = [&resolver](size_t budget) {
    StateTierOptions tier;
    tier.shared_budget_bytes = budget;
    tier.state_budget_fraction = 1.0;
    tier.plan_resolver = resolver;
    return tier;
  };

  ModelStore store(store_dir);
  TuningService live(space_, nullptr, TransferOn(), 25);
  live.AttachStateTier(&store, tier_for(0));
  auto journal = ObservationJournal::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  live.AttachJournal(&*journal);
  for (const auto& [signature, plan] : plans) TuneDown(&live, plan, 8);
  ASSERT_TRUE(live.Checkpoint().ok());
  const std::string live_content = live.transfer_index()->ContentDigest();
  const std::string live_graph =
      live.transfer_index()->CanonicalGraphDigest();
  ASSERT_TRUE(live.Shutdown().ok());

  // The artifact landed in the model store under the reserved key.
  EXPECT_TRUE(store.GetLatest(kTransferIndexArtifactKey).ok());

  // Eager twin: replays everything at startup.
  ModelStore eager_store(store_dir);
  TuningService eager(space_, nullptr, TransferOn(), 25);
  eager.AttachStateTier(&eager_store, tier_for(0));
  auto eager_report = eager.RecoverFromCheckpoint(journal_path, {});
  ASSERT_TRUE(eager_report.ok());
  EXPECT_EQ(eager_report->signatures_restored, plans.size());

  // Lazy twin: tombstones only; the artifact is what arms its index.
  ModelStore lazy_store(store_dir);
  TuningService lazy(space_, nullptr, TransferOn(), 25);
  lazy.AttachStateTier(&lazy_store, tier_for(1 << 20));
  TuningService::RecoveryOptions lazy_opts;
  lazy_opts.lazy = true;
  auto lazy_report =
      lazy.RecoverFromCheckpoint(journal_path, {}, lazy_opts);
  ASSERT_TRUE(lazy_report.ok());
  EXPECT_EQ(lazy_report->signatures_restored, plans.size());

  // Both recovery modes converge on the live index, content and graph.
  EXPECT_EQ(eager.transfer_index()->ContentDigest(), live_content);
  EXPECT_EQ(lazy.transfer_index()->ContentDigest(), live_content);
  EXPECT_EQ(eager.transfer_index()->CanonicalGraphDigest(), live_graph);
  EXPECT_EQ(lazy.transfer_index()->CanonicalGraphDigest(), live_graph);
}

}  // namespace
}  // namespace rockhopper::core
