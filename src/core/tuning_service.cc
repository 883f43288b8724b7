#include "core/tuning_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/compress.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/statistics.h"
#include "core/state_codec.h"
#include "sim/buggify.h"

namespace rockhopper::core {

TuningService::TuningService(const sparksim::ConfigSpace& space,
                             const BaselineModel* baseline,
                             TuningServiceOptions options, uint64_t seed)
    : space_(space),
      baseline_(baseline),
      options_(std::move(options)),
      rng_(seed),
      seed_base_(seed),
      defaults_(space.Defaults()),
      pipeline_(space,
                IngestPipeline::Options{
                    options_.failure_policy, options_.telemetry_dedup_window,
                    options_.enable_guardrail, options_.centroid.window_size}),
      metrics_(&ServiceMetrics::Get()),
      app_space_(sparksim::AppLevelSpace()) {
  if (options_.transfer.enabled) {
    transfer_ = std::make_unique<TransferIndex>(
        EmbeddingLength(options_.embedding), options_.transfer);
  }
}

TuningService::~TuningService() { StopStateSweeper(); }

QueryState TuningService::BuildState(const sparksim::QueryPlan& plan,
                                     uint64_t signature, bool allow_transfer) {
  QueryState state;
  std::vector<double> embedding = ComputeEmbedding(plan, options_.embedding);
  state.backoff = std::max(1, options_.failure_policy.initial_backoff);
  // Every build path registers the embedding (idempotent, staged off the
  // critical path): replay and fault-in rebuilds must converge on the same
  // index content as the live run. Non-finite embeddings (corrupted plan
  // stats) are refused at the index boundary and counted.
  if (transfer_ != nullptr) {
    (void)transfer_->Register(signature, embedding);
  }
  // Cross-signature warm start on true first contact only: a brand-new
  // signature begins from the distance-weighted blend of its nearest tuned
  // neighbors' centroids (the zero-execution retrieval recommendation)
  // instead of the defaults, and its tuner is seeded with safe-weighted
  // neighbor observations. Recovery, replay, and fault-in paths pass
  /// `allow_transfer = false`: they must rebuild the journal-determined
  // trajectory exactly, whatever recovery mode or residency produced them.
  sparksim::ConfigVector start = defaults_;
  std::vector<Observation> seeds;
  if (allow_transfer && transfer_ != nullptr) {
    ConsultTransfer(signature, embedding, &start, &seeds);
  }
  // The state keeps no embedding of its own: the scorer holds it only when
  // a baseline model reads it.
  auto scorer = std::make_unique<SurrogateScorer>(space_, baseline_,
                                                  std::move(embedding),
                                                  options_.scorer);
  // The seed is a pure function of (service seed, signature): rebuilding a
  // state lazily, out of arrival order, or after eviction reproduces the
  // exact tuner trajectory a live service would have run.
  state.tuner = std::make_unique<CentroidLearner>(space_, start,
                                                  std::move(scorer),
                                                  options_.centroid,
                                                  TunerSeed(signature));
  // Rover-style generalized transfer: the fresh tuner observes its
  // neighbors' (distance/strike down-weighted) evidence before its first
  // real run, so CL/BO start from a non-empty surrogate. Seeds live only in
  // the tuner — never in the observation store or journal — so recovery
  // replays real observations alone.
  for (const Observation& obs : seeds) {
    state.tuner->Observe(obs.config, obs.data_size, obs.runtime);
  }
  state.guardrail = Guardrail(options_.guardrail);
  return state;
}

bool TuningService::ConsultTransfer(uint64_t signature,
                                    const std::vector<double>& embedding,
                                    sparksim::ConfigVector* start,
                                    std::vector<Observation>* seeds) {
  const TransferOptions& opts = options_.transfer;
  // The index search holds only the tier's own mutex; neighbor shard locks
  // below are taken one at a time with no other lock held.
  const std::vector<TransferNeighbor> neighbors =
      transfer_->Neighbors(embedding, opts.k, signature);
  double total_weight = 0.0;
  std::vector<double> blend(start->size(), 0.0);
  for (const TransferNeighbor& n : neighbors) {
    // Find() faults an evicted neighbor back in transparently, so transfer
    // keeps working under the tiering budget.
    SignatureShardMap::LockedState locked = shards_.Find(n.signature);
    if (!locked || locked.state->tuner == nullptr) continue;
    // Guardrail screen: disabled sources contribute nothing; sources with a
    // strike history are exponentially discounted (safe source weighting).
    if (locked.state->disabled) continue;
    const Guardrail& guardrail = locked.state->guardrail;
    const double strikes = static_cast<double>(guardrail.strikes()) +
                           static_cast<double>(guardrail.failure_strikes());
    const double weight =
        std::exp(-opts.distance_decay * n.normalized_distance) *
        std::pow(opts.strike_penalty, strikes);
    if (!std::isfinite(weight) || weight <= 0.0) continue;
    const sparksim::ConfigVector& centroid = locked.state->tuner->centroid();
    if (centroid.size() != blend.size()) continue;
    for (size_t i = 0; i < blend.size(); ++i) {
      blend[i] += weight * centroid[i];
    }
    total_weight += weight;
    if (opts.seed_observations_per_neighbor == 0) continue;
    // Borrow the neighbor's best real observations. Safe under the
    // neighbor's shard lock: per-signature history only grows under that
    // same lock. Runtimes are inflated by (2 - weight) so low-confidence
    // sources look pessimistic to the fresh surrogate rather than
    // authoritative.
    const std::vector<Observation>& history =
        observations_.History(n.signature);
    std::vector<size_t> usable;
    usable.reserve(history.size());
    for (size_t i = 0; i < history.size(); ++i) {
      if (!history[i].failed && SanitizeReplayRow(history[i])) {
        usable.push_back(i);
      }
    }
    std::sort(usable.begin(), usable.end(), [&](size_t a, size_t b) {
      return history[a].runtime != history[b].runtime
                 ? history[a].runtime < history[b].runtime
                 : a < b;
    });
    if (usable.size() > opts.seed_observations_per_neighbor) {
      usable.resize(opts.seed_observations_per_neighbor);
    }
    for (const size_t i : usable) {
      Observation seed = history[i];
      seed.runtime *= 2.0 - std::min(1.0, weight);
      seed.failed = false;
      seeds->push_back(std::move(seed));
    }
  }
  if (total_weight < opts.min_total_weight) {
    seeds->clear();
    metrics_->transfer_misses->Increment();
    return false;
  }
  for (size_t i = 0; i < start->size(); ++i) {
    (*start)[i] = blend[i] / total_weight;
  }
  // The blend of in-space centroids is in the convex hull, but Clamp also
  // snaps integer parameters back onto their grid.
  *start = space_.Clamp(std::move(*start));
  if (seeds->size() > opts.max_seed_observations) {
    seeds->resize(opts.max_seed_observations);
  }
  metrics_->transfer_hits->Increment();
  metrics_->transfer_seeded_observations->Increment(seeds->size());
  return true;
}

Result<sparksim::ConfigVector> TuningService::IncumbentConfig(
    uint64_t signature) const {
  SignatureShardMap::LockedConstState locked = shards_.Find(signature);
  if (!locked) {
    return Status::NotFound("no tuning state for signature " +
                            std::to_string(signature));
  }
  if (locked.state->disabled || locked.state->tuner == nullptr) {
    return defaults_;
  }
  return locked.state->tuner->centroid();
}

SignatureShardMap::LockedState TuningService::StateFor(
    const sparksim::QueryPlan& plan, uint64_t signature) {
  {
    SignatureShardMap::LockedState locked = shards_.Find(signature);
    if (locked) return locked;
  }

  // Build the new state with no shard lock held: embedding and tuner
  // construction are the expensive part of first contact, and the transfer
  // scan takes other shards' locks one at a time.
  QueryState state = BuildState(plan, signature, /*allow_transfer=*/true);
  // A racing creator may have emplaced first; Emplace keeps the winner.
  return shards_.Emplace(signature, std::move(state));
}

sparksim::ConfigVector TuningService::OnQueryStart(
    const sparksim::QueryPlan& plan, double expected_data_size) {
  return OnQueryStart(Handle(plan), expected_data_size);
}

sparksim::ConfigVector TuningService::OnQueryStart(
    const SignatureHandle& handle, double expected_data_size) {
  metrics_->queries_started->Increment();
  SignatureShardMap::LockedState locked =
      StateFor(handle.plan(), handle.signature());
  QueryState& state = *locked.state;
  if (state.disabled) {
    metrics_->proposals_disabled->Increment();
    return defaults_;
  }
  if (state.fallback_remaining > 0) {
    // Failure fallback: re-run the known-safe defaults instead of exploring
    // until the backoff window drains.
    --state.fallback_remaining;
    metrics_->proposals_fallback->Increment();
    return defaults_;
  }
  metrics_->proposals_tuner->Increment();
  return state.tuner->Propose(expected_data_size);
}

void TuningService::OnQueryEnd(const sparksim::QueryPlan& plan,
                               const QueryEndEvent& event) {
  OnQueryEnd(Handle(plan), event);
}

void TuningService::OnQueryEnd(const SignatureHandle& handle,
                               const QueryEndEvent& event) {
  metrics_->queries_ended->Increment();
  ObservationJournal* journal = journal_;
  {
    SignatureShardMap::LockedState locked =
        StateFor(handle.plan(), handle.signature());
    pipeline_.Ingest(handle.signature(), event, locked.state, &observations_,
                     journal);
  }
  // Commit before returning, outside the shard lock: an acked observation
  // has been handed to the kernel.
  if (journal != nullptr) (void)journal->Sync();
}

std::vector<TelemetryVerdict> TuningService::OnQueryEndBatch(
    const std::vector<QueryEndBatchEntry>& entries) {
  std::vector<TelemetryVerdict> verdicts(entries.size(),
                                         TelemetryVerdict::kAccept);
  if (entries.empty()) return verdicts;
  // Group by signature with a stable index sort: per-signature event order
  // is preserved exactly, so a batch ingests indistinguishably from the
  // same events delivered one at a time.
  std::vector<uint64_t> signatures(entries.size());
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    signatures[i] = entries[i].plan->Signature();
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&signatures](size_t a, size_t b) {
                     return signatures[a] < signatures[b];
                   });
  ObservationJournal* journal = journal_;
  std::vector<const QueryEndEvent*> run_events;
  std::vector<TelemetryVerdict> run_verdicts;
  size_t i = 0;
  while (i < order.size()) {
    const uint64_t signature = signatures[order[i]];
    size_t j = i;
    run_events.clear();
    while (j < order.size() && signatures[order[j]] == signature) {
      run_events.push_back(entries[order[j]].event);
      ++j;
    }
    metrics_->queries_ended->Increment(run_events.size());
    run_verdicts.clear();
    {
      SignatureShardMap::LockedState locked =
          StateFor(*entries[order[i]].plan, signature);
      pipeline_.IngestBatch(signature, run_events.data(), run_events.size(),
                            locked.state, &observations_, journal,
                            &run_verdicts);
    }
    for (size_t k = i; k < j; ++k) verdicts[order[k]] = run_verdicts[k - i];
    i = j;
  }
  // One commit for the whole batch, after every shard lock is released.
  if (journal != nullptr) (void)journal->Sync();
  return verdicts;
}

common::MetricsSnapshot TuningService::Metrics() const {
  return common::MetricsRegistry::Default().Snapshot();
}

bool TuningService::IsTuningEnabled(uint64_t signature) const {
  SignatureShardMap::LockedConstState locked = shards_.Find(signature);
  return locked && !locked.state->disabled;
}

size_t TuningService::IterationCount(uint64_t signature) const {
  return observations_.Count(signature);
}

Result<TuningService::GuardrailCounts> TuningService::GuardrailState(
    uint64_t signature) const {
  SignatureShardMap::LockedConstState locked = shards_.Find(signature);
  if (!locked) {
    return Status::NotFound("no tuning state for signature " +
                            std::to_string(signature));
  }
  GuardrailCounts counts;
  counts.strikes = locked.state->guardrail.strikes();
  counts.failure_strikes = locked.state->guardrail.failure_strikes();
  counts.consecutive_failures = locked.state->consecutive_failures;
  counts.disabled = locked.state->disabled;
  return counts;
}

Status TuningService::Shutdown() {
  StopStateSweeper();
  // Build the registrations still staged, so the transfer index and its
  // size gauge hold every signature the service has seen.
  if (transfer_ != nullptr) transfer_->Flush();
  if (journal_ == nullptr) return Status::OK();
  ObservationJournal* journal = journal_;
  journal_ = nullptr;
  return journal->Close();
}

void TuningService::AttachStateTier(ModelStore* store) {
  AttachStateTier(store, options_.state_tier);
}

void TuningService::AttachStateTier(ModelStore* store, StateTierOptions tier) {
  model_store_ = store;
  tier_options_ = std::move(tier);
  options_.state_tier = tier_options_;
  tier_attached_ = true;
  plan_resolver_ = tier_options_.plan_resolver;
  shared_budget_bytes_.store(tier_options_.shared_budget_bytes,
                             std::memory_order_relaxed);
  if (tier_options_.observation_window > 0) {
    observations_.SetRetention(tier_options_.observation_window);
  }
  TieringConfig config;
  config.budget_bytes = tier_options_.StateBudgetBytes();
  config.idle_ttl_ticks = tier_options_.idle_ttl_ticks;
  config.sizer = [](const QueryState& state) {
    return ApproxQueryStateBytes(state);
  };
  if (store != nullptr) {
    config.saver = [this](uint64_t signature,
                          const QueryState& state) -> Status {
      ROCKHOPPER_ASSIGN_OR_RETURN(artifact, EncodeColdArtifact(state));
      ROCKHOPPER_ASSIGN_OR_RETURN(generation,
                                  model_store_->Put(signature, artifact));
      (void)generation;
      // Only the latest generation is ever faulted back in; keeping one
      // bounds store growth to O(signatures) under eviction churn.
      return model_store_->CleanupGenerations(signature, 1);
    };
  }
  config.loader = [this](uint64_t signature, const ColdEntry& entry) {
    return LoadColdState(signature, entry);
  };
  shards_.EnableTiering(std::move(config));
}

Result<std::string> TuningService::EncodeColdArtifact(const QueryState& state) {
  ROCKHOPPER_ASSIGN_OR_RETURN(artifact, EncodeQueryState(state));
  if (!tier_options_.compress_artifacts) return artifact;
  std::string packed;
  {
    ScopedSpan span(metrics_->compress_seconds);
    packed = common::EncodeCompressed(artifact);
  }
  metrics_->compress_encodes->Increment();
  metrics_->compress_ratio->Observe(
      artifact.empty() ? 1.0
                       : static_cast<double>(packed.size()) /
                             static_cast<double>(artifact.size()));
  return packed;
}

Status TuningService::DecodeColdArtifact(const std::string& artifact,
                                         QueryState* state) {
  if (common::LooksCompressed(artifact)) {
    ROCKHOPPER_ASSIGN_OR_RETURN(raw, common::DecodeCompressed(artifact));
    return DecodeQueryState(raw, state);
  }
  // Pre-v2 artifacts were written uncompressed; the state codec's own CRC
  // still guards them.
  return DecodeQueryState(artifact, state);
}

size_t TuningService::SweepStateTier() {
  if (!tier_attached_) return 0;
  shards_.AdvanceIdleTick();
  const size_t evicted = shards_.SweepIdle();
  EnforceObservationBudget();
  return evicted;
}

void TuningService::EnforceObservationBudget() {
  metrics_->obs_resident_bytes->Set(
      static_cast<double>(observations_.ApproxBytes()));
  const uint64_t truncated = observations_.TruncatedTotal();
  const uint64_t published =
      obs_truncated_published_.exchange(truncated, std::memory_order_relaxed);
  if (truncated > published) {
    metrics_->obs_truncated->Increment(truncated - published);
  }
  const size_t shared = shared_budget_bytes_.load(std::memory_order_relaxed);
  if (shared == 0) return;
  StateTierOptions split = tier_options_;
  split.shared_budget_bytes = shared;
  const size_t obs_budget = split.ObservationBudgetBytes();
  if (obs_budget == 0 || observations_.ApproxBytes() <= obs_budget) return;
  // Over budget: halve the retention window (floor 8) until the store's
  // resident bytes fit its slice. One halving per sweep converges in a few
  // passes without a stop-the-world retroactive scan storm.
  constexpr size_t kMinWindow = 8;
  size_t window = observations_.retention();
  if (window == 0) {
    window = tier_options_.observation_window > 0
                 ? tier_options_.observation_window
                 : 256;
  } else if (window > kMinWindow) {
    window = std::max(kMinWindow, window / 2);
  } else {
    return;  // already at the floor; bytes are bounded by population now
  }
  observations_.SetRetention(window);
  metrics_->obs_resident_bytes->Set(
      static_cast<double>(observations_.ApproxBytes()));
}

void TuningService::SetSharedBudgetBytes(size_t bytes) {
  shared_budget_bytes_.store(bytes, std::memory_order_relaxed);
  // Without a cold store attached there is nowhere to spill evicted state;
  // the new figure takes effect when (if) a tier is attached.
  if (!tier_attached_) return;
  StateTierOptions split = tier_options_;
  split.shared_budget_bytes = bytes;
  shards_.SetBudgetBytes(split.StateBudgetBytes());
  EnforceObservationBudget();
}

void TuningService::StartStateSweeper() {
  if (!tier_attached_ || tier_options_.sweep_interval_ms == 0) return;
  std::lock_guard<std::mutex> lock(sweeper_mu_);
  if (sweeper_.joinable()) return;
  sweeper_stop_ = false;
  sweeper_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(sweeper_mu_);
    while (!sweeper_stop_) {
      sweeper_cv_.wait_for(
          lock, std::chrono::milliseconds(tier_options_.sweep_interval_ms));
      if (sweeper_stop_) break;
      lock.unlock();
      SweepStateTier();
      lock.lock();
    }
  });
}

void TuningService::StopStateSweeper() {
  std::thread sweeper;
  {
    std::lock_guard<std::mutex> lock(sweeper_mu_);
    if (!sweeper_.joinable()) return;
    sweeper_stop_ = true;
    sweeper = std::move(sweeper_);
  }
  sweeper_cv_.notify_all();
  sweeper.join();
}

const sparksim::QueryPlan* TuningService::ResolvePlan(
    uint64_t signature) const {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    // Directory entries are never erased and std::map nodes are stable, so
    // the pointer outlives the lock.
    auto it = plan_directory_.find(signature);
    if (it != plan_directory_.end()) return &it->second;
  }
  return plan_resolver_ ? plan_resolver_(signature) : nullptr;
}

QueryState TuningService::Replay(uint64_t signature,
                                 const sparksim::QueryPlan& plan,
                                 const std::vector<Observation>& rows) {
  // Replay must rebuild the journal-determined trajectory, so the fresh
  // state never consults neighbors — a recovered twin whose signatures
  // arrive in digest order would otherwise see different neighbor sets than
  // the live service did and diverge.
  QueryState state = BuildState(plan, signature, /*allow_transfer=*/false);
  for (const Observation& obs : rows) {
    // Mirror the live pipeline exactly: the tuner and guardrail stop
    // evolving at a guardrail disable (accepted rows keep landing in the
    // store, which is the caller's business).
    if (state.disabled) break;
    if (!SanitizeReplayRow(obs)) continue;
    state.tuner->Observe(obs.config, obs.data_size, obs.runtime);
    if (options_.enable_guardrail && !state.guardrail.Record(obs)) {
      state.disabled = true;
    }
  }
  return state;
}

size_t TuningService::AppendReplayRows(uint64_t signature,
                                       std::vector<Observation> rows) {
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [this](const Observation& obs) {
                              return !SanitizeReplayRow(obs);
                            }),
             rows.end());
  const size_t kept = rows.size();
  observations_.AppendAll(signature, std::move(rows));
  return kept;
}

bool TuningService::SanitizeReplayRow(const Observation& obs) const {
  // The same invariants the ingestion boundary enforces: persisted rows
  // are not above suspicion (corrupt event files, hand-edited CSVs).
  return std::isfinite(obs.runtime) && std::isfinite(obs.data_size) &&
         obs.runtime > 0.0 && obs.data_size > 0.0 &&
         obs.config.size() == space_.size();
}

Result<QueryState> TuningService::LoadColdState(uint64_t signature,
                                                const ColdEntry& entry) {
  const sparksim::QueryPlan* plan = ResolvePlan(signature);
  if (plan == nullptr) {
    return Status::NotFound("no plan known for cold signature " +
                            std::to_string(signature));
  }
  if (entry.source == ColdSource::kEvicted && model_store_ != nullptr) {
    Result<std::string> artifact = model_store_->GetLatest(signature);
    if (artifact.ok()) {
      if (ROCKHOPPER_BUGGIFY("state.faultin.torn")) {
        // Torn cold read: the first fetch returns a truncated artifact (a
        // reader racing a dying writer); the CRC envelope must reject it
        // and the refetch/replay fallback must still converge.
        artifact->resize(artifact->size() / 2);
      }
      if (!artifact->empty() && ROCKHOPPER_BUGGIFY("state.compress.torn")) {
        // Bit rot inside the compressed envelope: the codec must answer
        // kDataLoss (never hand the state codec garbage bytes), and the
        // refetch/replay fallback must still converge.
        (*artifact)[artifact->size() / 2] =
            static_cast<char>((*artifact)[artifact->size() / 2] ^ 0x20);
      }
      QueryState state = BuildState(*plan, signature, /*allow_transfer=*/false);
      const Status decoded = DecodeColdArtifact(*artifact, &state);
      if (decoded.ok()) return state;
      // One refetch: a torn read is transient, a torn file is not.
      Result<std::string> refetched = model_store_->GetLatest(signature);
      if (refetched.ok()) {
        QueryState retry =
            BuildState(*plan, signature, /*allow_transfer=*/false);
        if (DecodeColdArtifact(*refetched, &retry).ok()) return retry;
      }
      ROCKHOPPER_LOG(kWarning)
          << "cold artifact for signature " << signature
          << " failed to decode (" << decoded.ToString()
          << "); rebuilding from observation history";
    }
  }
  // Safe to iterate the store by reference: appends to this signature's
  // history only happen under its shard-map lock, which our caller (the
  // fault-in path) already holds.
  return Replay(signature, *plan, observations_.History(signature));
}

Result<CheckpointReport> TuningService::Checkpoint() {
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("no journal attached");
  }
  DeltaCheckpointPolicy policy;
  policy.max_chain = tier_options_.max_delta_chain;
  policy.max_bytes_fraction = tier_options_.max_delta_bytes_fraction;
  policy.compress = tier_options_.compress_checkpoints;
  if (!tier_attached_) policy.max_chain = 0;  // always a full image
  Result<CheckpointReport> compacted = CheckpointLive(journal_, policy);
  ROCKHOPPER_RETURN_IF_ERROR(compacted.status());
  CheckpointReport report = *std::move(compacted);
  // Piggyback the transfer-index artifact on the checkpoint: recovery can
  // then load the graph instead of re-registering every signature one by
  // one. Best-effort — a failed Put only costs the next recovery a rebuild
  // from registrations, never correctness.
  if (transfer_ != nullptr && model_store_ != nullptr) {
    Result<std::string> artifact = transfer_->Serialize();
    if (artifact.ok()) {
      Result<int> put = model_store_->Put(kTransferIndexArtifactKey, *artifact);
      Status stored = put.ok() ? model_store_->CleanupGenerations(
                                     kTransferIndexArtifactKey, 1)
                               : put.status();
      if (!stored.ok()) {
        ROCKHOPPER_LOG(kWarning)
            << "transfer index artifact not persisted: " << stored.ToString();
      }
    } else {
      ROCKHOPPER_LOG(kWarning) << "transfer index serialization failed: "
                               << artifact.status().ToString();
    }
  }
  return report;
}

size_t TuningService::ReplayHistory(const sparksim::QueryPlan& plan,
                                    const ObservationWindow& history) {
  const uint64_t signature = plan.Signature();
  shards_.Erase(signature);
  const size_t replayed = AppendReplayRows(signature, history);
  shards_.Emplace(signature, Replay(signature, plan, history));
  return replayed;
}

Result<TuningService::RecoveryReport> TuningService::RecoverFromCheckpoint(
    const std::string& path, const std::vector<sparksim::QueryPlan>& plans,
    RecoveryOptions recovery) {
  if (recovery.lazy && !shards_.tiering_enabled()) {
    return Status::FailedPrecondition(
        "lazy recovery requires AttachStateTier first");
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(chain, RecoverJournalChain(path));

  RecoveryReport report;
  report.journal_clean = chain.clean;
  report.journal_status = chain.tail_status;
  report.observations_dropped = chain.records_dropped;
  report.checkpoint_seq = chain.checkpoint_seq;
  report.tail_records = chain.tail_records;
  report.segments_replayed = chain.segments_replayed;

  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    for (const sparksim::QueryPlan& plan : plans) {
      plan_directory_.emplace(plan.Signature(), plan);
    }
  }

  std::vector<uint64_t> restored;
  for (uint64_t signature : chain.store.Signatures()) {
    const sparksim::QueryPlan* plan = ResolvePlan(signature);
    if (plan == nullptr) {
      ++report.unknown_signatures;
      continue;
    }
    restored.push_back(signature);
    // The history moves out of the chain: no row is copied.
    std::vector<Observation> history = chain.store.Take(signature);
    if (recovery.lazy) {
      // Bounded-memory startup: the tuner materializes on first touch.
      ColdEntry cold;
      cold.source = ColdSource::kReplay;
      shards_.InsertCold(signature, cold);
    } else {
      // From the chain's full history, not the retention-windowed store.
      shards_.Emplace(signature, Replay(signature, *plan, history));
    }
    // Both modes load the same sanitized rows into the store, so lazy and
    // eager twins end up with byte-identical stores; they differ only in
    // when the tuner is rebuilt.
    const size_t rows = history.size();
    const size_t kept = AppendReplayRows(signature, std::move(history));
    report.observations_replayed += kept;
    report.observations_dropped += rows - kept;
    ++report.signatures_restored;
  }
  // Pre-warm the transfer index from the checkpointed artifact, filtered to
  // the signatures this recovery actually restored. Eagerly-replayed
  // signatures are already registered (Load skips them); under lazy
  // recovery the artifact is what makes tombstoned signatures retrievable
  // as transfer sources before their first touch. A damaged artifact is a
  // non-event: registration on materialization rebuilds the same content.
  if (transfer_ != nullptr && model_store_ != nullptr && !restored.empty()) {
    Result<std::string> artifact =
        model_store_->GetLatest(kTransferIndexArtifactKey);
    if (artifact.ok()) {
      // Simulation fault: the artifact write was torn mid-checkpoint. The
      // CRC must reject it and recovery must proceed on registrations alone.
      if (ROCKHOPPER_BUGGIFY("transfer.index.torn")) {
        artifact->resize(artifact->size() / 2);
      }
      const Status loaded = transfer_->Load(*artifact, &restored);
      if (!loaded.ok()) {
        ROCKHOPPER_LOG(kWarning)
            << "transfer index artifact rejected (" << loaded.ToString()
            << "); index rebuilds from registrations";
      }
    }
  }
  return report;
}

Result<std::string> TuningService::ExplainQuery(uint64_t signature) const {
  SignatureShardMap::LockedConstState locked = shards_.Find(signature);
  if (!locked) {
    return Status::NotFound("no tuning state for signature " +
                            std::to_string(signature));
  }
  const QueryState& state = *locked.state;
  const CentroidLearner& tuner = *state.tuner;
  std::ostringstream out;
  out << "signature " << signature << ": ";
  if (state.disabled) {
    out << "autotuning DISABLED by guardrail after "
        << state.guardrail.strikes() << " regression strikes and "
        << state.guardrail.failure_strikes()
        << " failure strikes; defaults in effect.";
    return out.str();
  }
  out << "iteration " << tuner.iteration() << ", centroid [";
  const sparksim::ConfigVector& centroid = tuner.centroid();
  for (size_t i = 0; i < centroid.size(); ++i) {
    if (i > 0) out << ", ";
    out << space_.param(i).name << "=" << centroid[i];
  }
  out << "], candidate neighborhood beta=" << tuner.beta()
      << ", overshoot alpha=" << tuner.alpha();
  if (!tuner.last_gradient().empty()) {
    out << ", last gradient [";
    for (size_t i = 0; i < tuner.last_gradient().size(); ++i) {
      if (i > 0) out << ", ";
      out << (tuner.last_gradient()[i] > 0
                  ? "decrease "
                  : (tuner.last_gradient()[i] < 0 ? "increase " : "hold "))
          << space_.param(i).name;
    }
    out << "]";
  }
  out << "; " << tuner.last_candidate_count()
      << " candidates scored at the last proposal";
  if (state.consecutive_failures > 0 || state.fallback_remaining > 0) {
    out << "; failure streak " << state.consecutive_failures << " ("
        << state.guardrail.failure_strikes() << " strikes), "
        << state.fallback_remaining << " fallback runs on defaults pending";
  }
  const TelemetryStats& stats = pipeline_.stats();
  out << "; telemetry: " << stats.accepted.load(std::memory_order_relaxed)
      << " accepted, " << stats.total_rejected() << " rejected ("
      << stats.rejected_nonfinite.load(std::memory_order_relaxed)
      << " non-finite, "
      << stats.rejected_nonpositive.load(std::memory_order_relaxed)
      << " non-positive, "
      << stats.rejected_duplicate.load(std::memory_order_relaxed)
      << " duplicate), "
      << stats.failures_ingested.load(std::memory_order_relaxed)
      << " failures ingested.";
  return out.str();
}

sparksim::ConfigVector TuningService::OnApplicationStart(
    const std::string& artifact_id) {
  std::lock_guard<std::mutex> lock(app_mu_);
  if (auto entry = app_cache_.Get(artifact_id)) {
    return entry->app_config;
  }
  return app_space_.Defaults();
}

void TuningService::PrecomputeAppConfig(
    const std::string& artifact_id,
    const std::vector<AppQueryContext>& queries) {
  if (queries.empty()) return;
  uint64_t optimizer_seed;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    optimizer_seed = rng_.Fork().engine()();
  }
  std::lock_guard<std::mutex> lock(app_mu_);
  AppLevelOptimizer optimizer(app_space_, space_, options_.app,
                              optimizer_seed);
  sparksim::ConfigVector current = app_space_.Defaults();
  if (auto entry = app_cache_.Get(artifact_id)) {
    current = entry->app_config;
  }
  AppLevelOptimizer::JointResult result = optimizer.Optimize(current, queries);
  AppCache::Entry entry;
  entry.app_config = std::move(result.app_config);
  entry.query_configs = std::move(result.query_configs);
  app_cache_.Put(artifact_id, std::move(entry));
}

}  // namespace rockhopper::core
