// Cold-start benchmark of the tiered state layer at production signature
// counts (§6.3 deployment scale): build a checkpoint + journal-tail image
// holding ~1M synthetic signatures, then measure
//
//  - incremental checkpoint I/O under 1% churn: delta bytes must stay well
//    under the full-image rewrite (delta_ratio <= 0.3), and the full+delta
//    recovery must digest-match a recovery of the same records pre-delta,
//  - lazy recovery wall time (directory fill; no tuner materialization),
//  - fault-in latency for a sample of touched signatures,
//  - the resident-bytes ceiling under the eviction budget, and the shared
//    process budget: resident state + observation history together must fit
//    under ROCKHOPPER_STATE_SHARED (the CLI --memory-budget analogue),
//  - proposal fidelity: first post-recovery proposals of touched signatures
//    must be bit-identical to an unevicted twin replaying the same history.
//
// The signature population is split: the bulk are raw synthetic signature
// values (their tuners never materialize, so no plan is ever needed), and a
// sample of real generated plans carries the end-to-end fault-in checks.
// tools/run_benchmarks.sh --suite state parses the key=value lines below
// into BENCH_state.json and gates on within_budget / proposal_identical /
// delta_ratio_ok / digest_ok / within_shared_budget.
//
// Knobs (environment):
//   ROCKHOPPER_STATE_SIGNATURES  population size       (default 1000000)
//   ROCKHOPPER_STATE_BUDGET      state eviction budget (default 8 MiB)
//   ROCKHOPPER_STATE_SHARED      shared process budget (default 1 GiB)
//   ROCKHOPPER_STATE_TOUCH       fault-in sample       (default 2000)
//   ROCKHOPPER_STATE_CHECKS      fidelity checks       (default 32)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "sparksim/workloads.h"

namespace {

using namespace rockhopper;        // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

constexpr uint64_t kServiceSeed = 90210;
constexpr uint64_t kPlanSeedBase = 0x73746174;  // "stat"

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

core::Observation MakeObs(const sparksim::ConfigVector& config, uint64_t salt,
                          int iteration) {
  core::Observation obs;
  obs.config = config;
  obs.data_size = 1e9 + static_cast<double>(salt % 997);
  obs.runtime = 20.0 + static_cast<double>(salt % 101) + iteration;
  obs.iteration = iteration;
  return obs;
}

// Order-sensitive FNV-1a digest of the recovered histories of `signatures`:
// two recoveries agree iff every signature replays the same records in the
// same order.
uint64_t DigestHistories(const core::ObservationStore& store,
                         const std::vector<uint64_t>& signatures) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (uint64_t signature : signatures) {
    mix(signature);
    for (const core::Observation& obs : store.History(signature)) {
      mix(static_cast<uint64_t>(obs.iteration));
      uint64_t bits = 0;
      std::memcpy(&bits, &obs.runtime, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace

int main() {
  const size_t num_signatures = static_cast<size_t>(
      bench::EnvInt("ROCKHOPPER_STATE_SIGNATURES", 1000000));
  const size_t budget_bytes =
      static_cast<size_t>(bench::EnvInt("ROCKHOPPER_STATE_BUDGET", 8 << 20));
  const size_t shared_budget = static_cast<size_t>(
      bench::EnvInt("ROCKHOPPER_STATE_SHARED", 1 << 30));
  const size_t touch = std::min(
      static_cast<size_t>(bench::EnvInt("ROCKHOPPER_STATE_TOUCH", 2000)),
      num_signatures);
  const size_t checks = std::min(
      static_cast<size_t>(bench::EnvInt("ROCKHOPPER_STATE_CHECKS", 32)),
      touch);

  const std::string stem =
      (std::filesystem::temp_directory_path() / "rockhopper_state_scale")
          .string();
  const std::string journal_path = stem + ".journal";
  const std::string store_dir = stem + ".store";
  auto cleanup = [&] {
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);
    std::filesystem::remove(core::CheckpointPath(journal_path), ec);
    std::filesystem::remove(core::CheckpointPath(journal_path) + ".tmp", ec);
    auto deltas = core::ListCheckpointDeltas(journal_path);
    if (deltas.ok()) {
      for (const auto& [index, path] : *deltas) {
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
      }
    }
    auto segments = core::ObservationJournal::ListSegments(journal_path);
    if (segments.ok()) {
      for (const auto& [index, path] : *segments) {
        std::filesystem::remove(path, ec);
      }
    }
    std::filesystem::remove_all(store_dir, ec);
  };
  cleanup();

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::ConfigVector defaults = space.Defaults();

  // The touched sample: real plans with their true signatures, each with a
  // short observation history to replay on fault-in.
  std::unordered_map<uint64_t, sparksim::QueryPlan> sample_plans;
  std::vector<uint64_t> sample_signatures;
  sample_plans.reserve(touch);
  {
    sparksim::PlanProfile profile;
    uint64_t i = 0;
    while (sample_plans.size() < touch) {
      common::Rng rng(common::SplitMix64(kPlanSeedBase + i++));
      sparksim::QueryPlan plan = sparksim::GeneratePlan(profile, &rng);
      const uint64_t signature = plan.Signature();
      if (sample_plans.emplace(signature, std::move(plan)).second) {
        sample_signatures.push_back(signature);
      }
    }
  }
  std::unordered_set<uint64_t> sample_set(sample_signatures.begin(),
                                          sample_signatures.end());

  // Phase 1: build the on-disk image — bulk records absorbed into a full
  // checkpoint, 1% churn absorbed into a delta stacked on it, sample records
  // left in the live tail.
  const auto t_build0 = std::chrono::steady_clock::now();
  size_t bulk_records = 0;
  std::vector<uint64_t> bulk_signatures;
  bulk_signatures.reserve(num_signatures);
  bool delta_ratio_ok = false;
  bool digest_ok = false;
  {
    auto journal = core::ObservationJournal::Open(journal_path);
    if (!journal.ok()) {
      std::fprintf(stderr, "open journal: %s\n",
                   journal.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; bulk_records < num_signatures - touch; ++i) {
      const uint64_t signature = common::SplitMix64(0x62756c6b ^ (i + 1));
      if (signature == 0 || sample_set.count(signature) != 0) continue;
      if (!journal->Append(signature, MakeObs(defaults, signature, 0)).ok()) {
        std::fprintf(stderr, "bulk append failed\n");
        return 1;
      }
      bulk_signatures.push_back(signature);
      ++bulk_records;
    }
    const auto t_ckpt0 = std::chrono::steady_clock::now();
    auto report = core::CheckpointLive(&*journal);
    if (!report.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    const auto t_ckpt1 = std::chrono::steady_clock::now();

    // Churn phase: 1% of the bulk population re-observes, then an
    // incremental checkpoint absorbs just that churn. Steady-state
    // checkpoint I/O must track the churn, not the 1M-signature image.
    const size_t churn = std::max<size_t>(1, bulk_records / 100);
    for (size_t i = 0; i < churn; ++i) {
      const uint64_t signature = bulk_signatures[i];
      if (!journal->Append(signature, MakeObs(defaults, signature, 1)).ok()) {
        std::fprintf(stderr, "churn append failed\n");
        return 1;
      }
    }
    if (!journal->Sync().ok()) {
      std::fprintf(stderr, "churn sync failed\n");
      return 1;
    }
    // Digest the to-be-absorbed state while the churn still sits in the
    // live tail: the full+delta chain must replay byte-for-byte the same
    // histories afterwards.
    uint64_t digest_pre = 0;
    {
      auto chain = core::RecoverJournalChain(journal_path);
      if (!chain.ok() || !chain->clean) {
        std::fprintf(stderr, "pre-delta recovery failed\n");
        return 1;
      }
      digest_pre = DigestHistories(chain->store, bulk_signatures);
    }
    const auto t_delta0 = std::chrono::steady_clock::now();
    core::DeltaCheckpointPolicy policy;
    policy.max_bytes_fraction = 1.0;  // ratio is measured below, not forced
    auto delta = core::CheckpointLive(&*journal, policy);
    if (!delta.ok()) {
      std::fprintf(stderr, "delta checkpoint: %s\n",
                   delta.status().ToString().c_str());
      return 1;
    }
    const auto t_delta1 = std::chrono::steady_clock::now();
    uint64_t digest_post = 0;
    size_t deltas_replayed = 0;
    {
      auto chain = core::RecoverJournalChain(journal_path);
      if (!chain.ok() || !chain->clean) {
        std::fprintf(stderr, "post-delta recovery failed\n");
        return 1;
      }
      digest_post = DigestHistories(chain->store, bulk_signatures);
      deltas_replayed = chain->deltas_replayed;
    }
    digest_ok = digest_pre == digest_post;
    const double delta_ratio =
        report->bytes_written > 0
            ? static_cast<double>(delta->bytes_written) /
                  static_cast<double>(report->bytes_written)
            : 0.0;
    delta_ratio_ok = delta->delta_index > 0 && delta_ratio <= 0.3;
    std::printf(
        "delta_s=%.2f churn_records=%zu delta_index=%llu delta_bytes=%zu "
        "full_bytes=%zu delta_ratio=%.4f delta_ratio_ok=%d "
        "deltas_replayed=%zu digest_ok=%d\n",
        Seconds(t_delta0, t_delta1), churn,
        static_cast<unsigned long long>(delta->delta_index),
        delta->bytes_written, report->bytes_written, delta_ratio,
        delta_ratio_ok ? 1 : 0, deltas_replayed, digest_ok ? 1 : 0);

    // Sample histories ride in the live tail, replayed after the chain.
    for (uint64_t signature : sample_signatures) {
      for (int j = 0; j < 3; ++j) {
        if (!journal->Append(signature, MakeObs(defaults, signature, j))
                 .ok()) {
          std::fprintf(stderr, "tail append failed\n");
          return 1;
        }
      }
    }
    if (!journal->Close().ok()) {
      std::fprintf(stderr, "close failed\n");
      return 1;
    }
    const auto t_build1 = std::chrono::steady_clock::now();
    std::printf(
        "build_s=%.2f signatures=%zu bulk_records=%zu tail_records=%zu "
        "checkpoint_s=%.2f checkpoint_seq=%llu checkpoint_records=%zu\n",
        Seconds(t_build0, t_build1), num_signatures, bulk_records, touch * 3,
        Seconds(t_ckpt0, t_ckpt1),
        static_cast<unsigned long long>(report->last_segment),
        report->records);
  }

  // Phase 2: bounded-memory cold start. The resolver serves real plans for
  // the sample; every bulk signature resolves to a shared placeholder that
  // lazy recovery never dereferences (their tuners never materialize).
  core::TuningService service(space, nullptr, {}, kServiceSeed);
  core::ModelStore store(store_dir);
  common::Rng dummy_rng(1);
  sparksim::PlanProfile dummy_profile;
  const sparksim::QueryPlan placeholder =
      sparksim::GeneratePlan(dummy_profile, &dummy_rng);
  // One shared process budget, split so the state tier keeps its historical
  // eviction budget and the observation store owns the remainder.
  core::StateTierOptions tier;
  tier.shared_budget_bytes = shared_budget;
  tier.state_budget_fraction =
      static_cast<double>(budget_bytes) / static_cast<double>(shared_budget);
  tier.lazy_recovery = true;
  tier.plan_resolver = [&sample_plans, &placeholder](uint64_t signature)
      -> const sparksim::QueryPlan* {
    auto it = sample_plans.find(signature);
    return it == sample_plans.end() ? &placeholder : &it->second;
  };
  service.AttachStateTier(&store, tier);

  core::TuningService::RecoveryOptions lazy;
  lazy.lazy = true;
  const auto t_rec0 = std::chrono::steady_clock::now();
  auto recovery = service.RecoverFromCheckpoint(journal_path, {}, lazy);
  const auto t_rec1 = std::chrono::steady_clock::now();
  if (!recovery.ok()) {
    std::fprintf(stderr, "recovery: %s\n",
                 recovery.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "lazy_recover_s=%.2f signatures_restored=%zu "
      "observations_replayed=%zu unknown_signatures=%zu tail_records=%zu\n",
      Seconds(t_rec0, t_rec1), recovery->signatures_restored,
      recovery->observations_replayed, recovery->unknown_signatures,
      recovery->tail_records);

  // Phase 3: fault in the sample under the budget; track latency and the
  // resident ceiling.
  std::vector<double> latencies_us;
  latencies_us.reserve(touch);
  std::vector<sparksim::ConfigVector> first_proposals;
  first_proposals.reserve(checks);
  size_t max_resident = 0;
  for (size_t i = 0; i < sample_signatures.size(); ++i) {
    const sparksim::QueryPlan& plan =
        sample_plans.at(sample_signatures[i]);
    const auto t0 = std::chrono::steady_clock::now();
    sparksim::ConfigVector proposal = service.OnQueryStart(plan, 1e9);
    const auto t1 = std::chrono::steady_clock::now();
    latencies_us.push_back(Seconds(t0, t1) * 1e6);
    if (i < checks) first_proposals.push_back(std::move(proposal));
    max_resident =
        std::max(max_resident, service.StateTierStats().resident_bytes);
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const core::TierStats stats = service.StateTierStats();
  std::printf(
      "touches=%zu faultin_p50_us=%.0f faultin_p99_us=%.0f evictions=%llu "
      "faultins=%llu\n",
      touch, latencies_us[latencies_us.size() / 2],
      latencies_us[latencies_us.size() * 99 / 100],
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.faultins));
  const size_t state_budget = service.state_tier_options().StateBudgetBytes();
  const bool within_budget = max_resident <= state_budget;
  std::printf("max_resident_bytes=%zu budget_bytes=%zu within_budget=%d\n",
              max_resident, state_budget, within_budget ? 1 : 0);

  // The shared-budget contract at population scale: resident query state
  // plus the full observation history must fit under the one process
  // budget. A sweep pass runs the observation-budget enforcement exactly
  // the way the background sweeper would.
  (void)service.SweepStateTier();
  const size_t obs_bytes = service.observations().ApproxBytes();
  const size_t resident_now = service.StateTierStats().resident_bytes;
  const bool within_shared_budget =
      resident_now + obs_bytes <= shared_budget;
  std::printf(
      "obs_bytes=%zu resident_bytes=%zu shared_budget_bytes=%zu "
      "obs_truncated=%llu within_shared_budget=%d\n",
      obs_bytes, resident_now, shared_budget,
      static_cast<unsigned long long>(service.observations().TruncatedTotal()),
      within_shared_budget ? 1 : 0);

  // Phase 4: proposal fidelity. An unevicted twin replays the identical
  // history eagerly; first proposals must be bit-identical.
  core::TuningService twin(space, nullptr, {}, kServiceSeed);
  bool identical = true;
  for (size_t i = 0; i < checks; ++i) {
    const uint64_t signature = sample_signatures[i];
    const sparksim::QueryPlan& plan = sample_plans.at(signature);
    twin.ReplayHistory(plan, service.observations().History(signature));
    if (twin.OnQueryStart(plan, 1e9) != first_proposals[i]) {
      identical = false;
      std::fprintf(stderr, "proposal mismatch for signature %llu\n",
                   static_cast<unsigned long long>(signature));
    }
  }
  std::printf("proposal_checks=%zu proposal_identical=%d\n", checks,
              identical ? 1 : 0);

  cleanup();
  const bool restored_all = recovery->signatures_restored == num_signatures;
  if (!restored_all) {
    std::fprintf(stderr, "restored %zu of %zu signatures\n",
                 recovery->signatures_restored, num_signatures);
  }
  return (within_budget && within_shared_budget && identical && restored_all &&
          delta_ratio_ok && digest_ok)
             ? 0
             : 1;
}
