#ifndef ROCKHOPPER_CORE_TUNING_SERVICE_H_
#define ROCKHOPPER_CORE_TUNING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/app_optimizer.h"
#include "core/baseline_model.h"
#include "core/centroid_learning.h"
#include "core/checkpoint.h"
#include "core/guardrail.h"
#include "core/ingest_pipeline.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/observation.h"
#include "core/signature_shard.h"
#include "core/telemetry.h"
#include "core/transfer.h"
#include "sparksim/plan.h"

namespace rockhopper::core {

/// Resolves a signature to its query plan — the context the tiered state
/// layer needs to rebuild an evicted or lazily-recovered signature's tuner
/// (embedding, scorer features). The returned plan must stay valid for the
/// service's lifetime; nullptr for unknown signatures.
using PlanResolver =
    std::function<const sparksim::QueryPlan*(uint64_t signature)>;

/// Everything the bounded-memory state plane is configured by, in one
/// place — consumed by TuningService::AttachStateTier. Replaces the old
/// positional EnableStateTiering(store, budget_bytes, resolver) signature,
/// which had no room for the v2 knobs (budget split, idle TTL, compression,
/// checkpoint cadence) without an ever-growing parameter list.
struct StateTierOptions {
  /// One shared resident-bytes budget for the whole state plane — split
  /// between the hot QueryState tier and the ObservationStore. 0 =
  /// unbounded (no budget-pressure eviction; idle sweeping still runs).
  /// Adjustable at runtime through SetSharedBudgetBytes (the Admin verb).
  size_t shared_budget_bytes = 0;
  /// Fraction of the shared budget given to resident QueryStates; the
  /// remainder bounds the observation store via retention tightening.
  double state_budget_fraction = 0.6;
  /// Per-signature observation-history retention window applied at attach
  /// (0 = unbounded until budget pressure tightens it). Truncated rows are
  /// only dropped from memory — the journal/checkpoint chain keeps them.
  size_t observation_window = 0;
  /// Evict signatures idle for this many sweep ticks even when the budget
  /// has headroom (0 disables time-based eviction). One tick = one
  /// SweepStateTier call — the background sweeper's cadence, or the
  /// harness's deterministic clock.
  uint64_t idle_ttl_ticks = 0;
  /// Background sweeper period (StartStateSweeper). Deterministic callers
  /// skip the thread and drive SweepStateTier directly.
  uint64_t sweep_interval_ms = 1000;
  /// LZ-compress evicted QueryState artifacts (common/compress). Readers
  /// accept both encodings, so flipping this never strands old artifacts.
  bool compress_artifacts = true;
  /// LZ-compress incremental checkpoint delta bodies.
  bool compress_checkpoints = true;
  /// Collapse the delta chain into a full image once it holds this many
  /// deltas (0: every checkpoint is a full image).
  size_t max_delta_chain = 8;
  /// ... or beyond this fraction of the full image's size in delta bytes.
  double max_delta_bytes_fraction = 0.5;
  /// Default recovery mode for call sites that honor it (CLI recover/serve):
  /// lazy fills the store + cold directory only and materializes tuners on
  /// first touch. See TuningService::RecoveryOptions.
  bool lazy_recovery = false;
  /// Plan lookup for cold rebuilds; may be null when every recovered
  /// signature's plan is handed to RecoverFromCheckpoint.
  PlanResolver plan_resolver;

  /// The QueryState tier's slice of the shared budget (0 when unbounded).
  size_t StateBudgetBytes() const {
    if (shared_budget_bytes == 0) return 0;
    return static_cast<size_t>(static_cast<double>(shared_budget_bytes) *
                               state_budget_fraction);
  }
  /// The ObservationStore's slice (0 when unbounded).
  size_t ObservationBudgetBytes() const {
    if (shared_budget_bytes == 0) return 0;
    return shared_budget_bytes - StateBudgetBytes();
  }
};

struct TuningServiceOptions {
  CentroidLearningOptions centroid;
  Guardrail::Options guardrail;
  EmbeddingOptions embedding;
  SurrogateScorer::Options scorer;
  AppLevelOptimizerOptions app;
  FailurePolicyOptions failure_policy;
  /// Per-signature event-id window for telemetry deduplication (0 disables).
  size_t telemetry_dedup_window = 256;
  /// Disabling the guardrail tunes forever (used by ablations).
  bool enable_guardrail = true;
  /// Cross-signature transfer tier (core/transfer.h): an HNSW index over
  /// workload embeddings warm-starts every brand-new signature from its k
  /// nearest already-tuned neighbors — a distance-weighted blend of their
  /// centroids as the zero-execution first recommendation, plus
  /// safe-weighted neighbor observations seeding the fresh tuner.
  TransferOptions transfer;
  /// Bounded-memory state plane (budget split, idle TTL, compression,
  /// checkpoint cadence). Holds configuration only — nothing activates
  /// until AttachStateTier is called.
  StateTierOptions state_tier;
};

/// The online phase of Rockhopper (Figs. 5 and 7), structured as a
/// multi-tenant concurrent service — the deployment shape of §6.3, where one
/// shared service tunes hundreds of thousands of applications:
///
///  - state layer: per-signature QueryState in a lock-striped
///    SignatureShardMap plus a lock-striped ObservationStore (see
///    signature_shard.h), so tenants touching different signatures do not
///    contend;
///  - pipeline layer: OnQueryEnd is the staged IngestPipeline
///    (sanitize → impute/failure-policy → journal → tune/guardrail);
///  - journal layer: an optional crash-safe ObservationJournal; each
///    OnQueryEnd call commits its appends with one flush.
///
/// This class is the thin façade wiring those layers together plus the
/// app-level cache keyed by artifact_id (§4.4).
///
/// Lifecycle per query execution:
///   config = service.OnQueryStart(plan, expected_data_size);
///   ... run the query with `config` ...
///   service.OnQueryEnd(plan, event);
///
/// Queries are identified by their plan signature; each signature gets an
/// isolated model (the paper's per-query, per-user training boundary).
///
/// Telemetry entering OnQueryEnd is treated as untrusted: events are
/// sanitized (non-finite / non-positive values rejected, duplicates
/// deduplicated by event id), failed runs are imputed a penalized runtime,
/// and repeated failures trigger a retry-on-defaults fallback with
/// exponential backoff before the guardrail disables tuning outright.
///
/// Thread-safety: every public method is safe to call concurrently from
/// multiple tenant threads. Reference-returning accessors (observations(),
/// telemetry_stats(), app_cache()) are stable views whose contents settle at
/// quiescence.
class TuningService {
 public:
  /// `baseline` may be null (no transfer learning); must outlive the
  /// service when provided.
  TuningService(const sparksim::ConfigSpace& space,
                const BaselineModel* baseline, TuningServiceOptions options,
                uint64_t seed);

  /// Stops the background sweeper (Shutdown does too; the destructor is the
  /// backstop for callers that never attach a journal).
  ~TuningService();

  /// A pre-hashed reference to one plan's tuning state: the plan signature
  /// is computed once at Handle() and reused for the whole start/end pair,
  /// removing the double plan hash from the hot path. The referenced plan
  /// must outlive the handle.
  class SignatureHandle {
   public:
    uint64_t signature() const { return signature_; }
    const sparksim::QueryPlan& plan() const { return *plan_; }

   private:
    friend class TuningService;
    SignatureHandle(const sparksim::QueryPlan* plan, uint64_t signature)
        : plan_(plan), signature_(signature) {}
    const sparksim::QueryPlan* plan_;
    uint64_t signature_;
  };

  /// Hashes the plan signature once; pair with the handle-taking
  /// OnQueryStart/OnQueryEnd overloads.
  SignatureHandle Handle(const sparksim::QueryPlan& plan) const {
    return SignatureHandle(&plan, plan.Signature());
  }

  /// Returns the configuration to run `plan` with. When tuning is disabled
  /// for this signature (guardrail) — or the signature is in a failure
  /// fallback window — the defaults are returned.
  sparksim::ConfigVector OnQueryStart(const sparksim::QueryPlan& plan,
                                      double expected_data_size);
  sparksim::ConfigVector OnQueryStart(const SignatureHandle& handle,
                                      double expected_data_size);

  /// Ingests one telemetry delivery: sanitize, impute failures, advance the
  /// tuner/guardrail, journal, then Sync the journal. Rejected events only
  /// move the counters.
  void OnQueryEnd(const sparksim::QueryPlan& plan, const QueryEndEvent& event);
  void OnQueryEnd(const SignatureHandle& handle, const QueryEndEvent& event);

  /// One network batch of telemetry deliveries. Entries are grouped by
  /// signature (stable, so per-signature arrival order — and with it dedup
  /// and failure-streak semantics — is exactly sequential delivery) and each
  /// signature's shard lock is taken once per run instead of once per
  /// event; the journal appends of the whole batch share one Sync. Returns
  /// the sanitize verdicts in entry order. Pointers must stay valid for the
  /// duration of the call.
  struct QueryEndBatchEntry {
    const sparksim::QueryPlan* plan;
    const QueryEndEvent* event;
  };
  std::vector<TelemetryVerdict> OnQueryEndBatch(
      const std::vector<QueryEndBatchEntry>& entries);

  /// Whether autotuning is (still) active for this plan's signature.
  bool IsTuningEnabled(uint64_t signature) const;

  /// A consistent snapshot of one signature's guardrail/failure-policy
  /// counters, read under the shard lock. The strike counts are monotone
  /// non-decreasing and `disabled` is sticky over a signature's lifetime —
  /// the invariants the simulation harness checks after every event.
  /// NotFound before the signature's first query.
  struct GuardrailCounts {
    int strikes = 0;
    int failure_strikes = 0;
    int consecutive_failures = 0;
    bool disabled = false;
  };
  Result<GuardrailCounts> GuardrailState(uint64_t signature) const;

  /// Per-signature iteration count.
  size_t IterationCount(uint64_t signature) const;

  /// Signatures ever seen / currently disabled (deployment stats, §6.3).
  size_t NumSignatures() const { return shards_.Size(); }
  size_t NumDisabled() const { return shards_.CountDisabled(); }

  const ObservationStore& observations() const { return observations_; }

  /// Ingestion counters of the telemetry-sanitization layer.
  const TelemetryStats& telemetry_stats() const { return pipeline_.stats(); }

  /// One coherent scrape of every instrument the service (and the rest of
  /// the process) reports into: ingest-stage latency spans, proposal /
  /// verdict / guardrail / fallback counters, journal health, thread-pool
  /// depth, simulator memo hit rate. Render with
  /// MetricsSnapshot::ToPrometheusText() or ToJson(); exact at quiescence
  /// (see common/metrics.h).
  common::MetricsSnapshot Metrics() const;

  /// Attaches a crash-safe journal: every accepted observation is appended
  /// (with the runtime actually fed to the tuner, so recovery replays the
  /// identical state) and committed with one Sync before OnQueryEnd or
  /// OnQueryEndBatch returns. Not owned; pass nullptr to detach. Journal I/O
  /// errors are never fatal to the tuning path; the journal counts the lost
  /// records (ObservationJournal::lost_records) and logs rate-limited.
  void AttachJournal(ObservationJournal* journal) { journal_ = journal; }

  /// Orderly shutdown of the persistence layer: closes the attached journal,
  /// detaches it, and returns the journal's sticky first error — OK means
  /// every accepted observation was persisted. OK (trivially) when no
  /// journal is attached.
  /// Callers that care about durability must branch on this instead of
  /// letting the journal close silently in a destructor.
  Status Shutdown();

  /// See the namespace-level alias; re-exported so call sites can keep
  /// spelling it TuningService::PlanResolver.
  using PlanResolver = ::rockhopper::core::PlanResolver;

  /// Switches the per-signature state into the two-tier resident/cold
  /// layout, configured by `tier` (the unified service-state API; see
  /// StateTierOptions). `store` (not owned; may be null when the shared
  /// budget is 0) receives serialized — optionally LZ-compressed —
  /// QueryState artifacts on eviction; fault-in decodes the latest
  /// artifact, falling back to a deterministic replay of the signature's
  /// journaled observations when the artifact is torn or missing. The
  /// shared budget is split between resident QueryStates and the
  /// observation store (per-signature retention truncation), so total
  /// resident bytes stay bounded at any population.
  /// Call once at startup, before traffic. Composes with the transfer
  /// tier: fault-in paths only register embeddings (never consult
  /// neighbors), so no shard lock is ever taken while another is held.
  void AttachStateTier(ModelStore* store, StateTierOptions tier);
  /// Attaches with the options the service was constructed with
  /// (options.state_tier).
  void AttachStateTier(ModelStore* store);

  /// The attached tier's configuration (options_.state_tier until
  /// AttachStateTier overrides it).
  const StateTierOptions& state_tier_options() const { return options_.state_tier; }

  /// One maintenance pass of the state plane: advances the idle clock,
  /// sweeps signatures idle longer than idle_ttl_ticks out to the cold
  /// tier, and tightens observation retention when the store's slice of
  /// the shared budget is exceeded. Returns the number of sweep evictions.
  /// Deterministic harnesses call this directly; production uses
  /// StartStateSweeper. Safe to call concurrently with traffic.
  size_t SweepStateTier();

  /// Starts the low-priority background sweeper thread: one SweepStateTier
  /// every sweep_interval_ms. Idempotent; stopped by Shutdown (and the
  /// destructor). No-op when no tier is attached.
  void StartStateSweeper();

  /// Runtime budget adjustment (the wire Admin verb): re-splits the new
  /// shared budget across both tiers and drains any excess immediately.
  void SetSharedBudgetBytes(size_t bytes);
  size_t shared_budget_bytes() const {
    return shared_budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Resident/cold population and eviction/fault-in traffic (stats
  /// endpoints, the state benchmark's budget gate).
  TierStats StateTierStats() const { return shards_.Stats(); }

  /// Rotates the attached journal and compacts — the online checkpoint path
  /// behind `rockhopper checkpoint` and serve's --checkpoint-interval. With
  /// a state tier attached this is incremental: a delta proportional to the
  /// churn since the last checkpoint, collapsed into a full image once the
  /// chain holds max_delta_chain deltas or max_delta_bytes_fraction of the
  /// image's bytes. Without a tier it is always a full compaction.
  /// FailedPrecondition without an attached journal.
  Result<CheckpointReport> Checkpoint();

  /// Warm-restarts the tuning state of `plan`'s signature by replaying the
  /// stored observations through a fresh tuner and guardrail — how the
  /// service resumes after a restart from the persisted event files.
  /// Replaces any existing state. Rows that would not pass ingestion
  /// sanitization are skipped; returns the number actually replayed.
  size_t ReplayHistory(const sparksim::QueryPlan& plan,
                       const ObservationWindow& history);

  struct RecoveryReport {
    size_t signatures_restored = 0;
    size_t observations_replayed = 0;
    /// Journal suffix dropped by CRC/truncation recovery plus rows skipped
    /// by replay sanitization.
    size_t observations_dropped = 0;
    /// Journal signatures with no matching plan in the recovery set.
    size_t unknown_signatures = 0;
    /// False when the journal had a truncated or corrupt tail.
    bool journal_clean = true;
    /// OK for a clean journal, kDataLoss for a recovered-around corrupt or
    /// truncated tail (see JournalChain::tail_status).
    Status journal_status = Status::OK();
    /// The checkpoint's sequence number (highest absorbed segment index; 0
    /// when no checkpoint existed), the number of records replayed from the
    /// tail (sealed segments past the checkpoint plus the live journal),
    /// and how many sealed segments that tail spanned.
    uint64_t checkpoint_seq = 0;
    size_t tail_records = 0;
    size_t segments_replayed = 0;
  };

  struct RecoveryOptions {
    /// Eager (false): every recovered signature's tuner is rebuilt at
    /// startup — recovery cost scales with total history. Lazy (true):
    /// recovery fills the observation store and the cold directory only;
    /// each signature's tuner materializes on first touch, so startup is
    /// bounded by journal size, not model count, and resident memory stays
    /// under the tiering budget. Lazy requires AttachStateTier first.
    bool lazy;
    // Explicit constructor (not a default member initializer): the default
    // argument of RecoverFromCheckpoint below needs this type complete.
    RecoveryOptions() : lazy(false) {}
  };

  /// Restores the service from the journal's whole on-disk chain
  /// (RecoverJournalChain: checkpoint image and deltas, then sealed segments
  /// past the checkpoint sequence, then the live journal; a journal with no
  /// checkpoint is a chain of length zero). The store ends up as if the
  /// chain's events had just been ingested. Eager recovery then rebuilds
  /// every restored signature's tuner and guardrail from the chain's full
  /// history; lazy recovery leaves a replay tombstone instead. `plans` seeds
  /// the plan directory used to rebuild tuners; signatures without a plan
  /// (and without a resolver from AttachStateTier) are counted as unknown
  /// and skipped.
  Result<RecoveryReport> RecoverFromCheckpoint(
      const std::string& path, const std::vector<sparksim::QueryPlan>& plans,
      RecoveryOptions recovery = RecoveryOptions());

  /// Eager RecoverFromCheckpoint; kept only because perfbench/ calls it.
  Result<RecoveryReport> RecoverFromJournal(
      const std::string& path, const std::vector<sparksim::QueryPlan>& plans) {
    return RecoverFromCheckpoint(path, plans);
  }

  /// A human-readable rationale for this signature's latest proposal —
  /// centroid, candidate count, last gradient direction, step sizes, plus
  /// the telemetry-rejection and failure-policy counters — the transparency
  /// logging of §5 ("logs the suggested configurations along with their
  /// rationale"). NotFound before the first OnQueryStart.
  Result<std::string> ExplainQuery(uint64_t signature) const;

  /// The app-level path (§4.4): returns the cached app config for
  /// `artifact_id`, or the app-space defaults on a cache miss.
  sparksim::ConfigVector OnApplicationStart(const std::string& artifact_id);

  /// Recomputes and caches the app-level configuration for `artifact_id`
  /// via Algorithm 2 after an application run. `queries` supplies per-query
  /// contexts (centroids + scoring functions).
  void PrecomputeAppConfig(const std::string& artifact_id,
                           const std::vector<AppQueryContext>& queries);

  const AppCache& app_cache() const { return app_cache_; }

  /// The transfer tier, or null when options.transfer.enabled is false.
  /// Exposed for the simulation harness (index digests), the `neighbors`
  /// CLI verb, and benches.
  TransferIndex* transfer_index() { return transfer_.get(); }
  const TransferIndex* transfer_index() const { return transfer_.get(); }

  /// The configuration this signature's tuner currently believes in: its
  /// centroid, or the defaults when the signature is disabled/unknown-cold.
  /// NotFound before the signature's first contact. Used by the transfer
  /// tier (neighbor incumbents) and the `neighbors` CLI verb.
  Result<sparksim::ConfigVector> IncumbentConfig(uint64_t signature) const;

 private:
  /// Locked lookup-or-create of the signature's state (shard lock held on
  /// return). Creation runs outside any shard lock: embedding, optional
  /// cross-signature transfer scan, tuner construction.
  SignatureShardMap::LockedState StateFor(const sparksim::QueryPlan& plan,
                                          uint64_t signature);

  /// Constructs a fresh (untrained) QueryState for `signature`. The
  /// transfer consult takes neighbor shard locks one at a time, so it must
  /// be skipped (`allow_transfer = false`) when the caller already holds a
  /// shard lock — the tiering loader's fault-in path — and on every
  /// recovery/replay path, so that eager, lazy, and cold-rebuild twins
  /// reconstruct identical (transfer-free) trajectories from the journal.
  QueryState BuildState(const sparksim::QueryPlan& plan, uint64_t signature,
                        bool allow_transfer);

  /// First-contact transfer consult: retrieves `embedding`'s nearest tuned
  /// neighbors, blends their incumbent centroids into `*start`
  /// (guardrail-screened, distance/strike weighted) and collects
  /// safe-weighted observations to seed the fresh tuner. No shard lock may
  /// be held on entry. Returns true on a hit.
  bool ConsultTransfer(uint64_t signature,
                       const std::vector<double>& embedding,
                       sparksim::ConfigVector* start,
                       std::vector<Observation>* seeds);

  /// Deterministic per-signature tuner seed: materialization order must not
  /// matter (lazy recovery and fault-in build tuners out of arrival order).
  uint64_t TunerSeed(uint64_t signature) const {
    return common::SplitMix64(seed_base_ ^ signature);
  }

  /// The tiering loader: decode the stored artifact (kEvicted) or replay
  /// the journaled history (kReplay / decode fallback).
  Result<QueryState> LoadColdState(uint64_t signature, const ColdEntry& entry);
  /// Unwraps an (optionally compressed) cold artifact into `state`.
  /// kDataLoss for a torn envelope — never garbage.
  Status DecodeColdArtifact(const std::string& artifact, QueryState* state);
  /// Serializes (and optionally compresses) one QueryState for the cold
  /// store, recording codec metrics.
  Result<std::string> EncodeColdArtifact(const QueryState& state);
  /// Publishes observation-store gauges and halves the retention window
  /// while the store's resident bytes exceed its slice of the shared
  /// budget.
  void EnforceObservationBudget();
  void StopStateSweeper();
  /// The one replay loop (eager recovery, fault-in, ReplayHistory): feeds
  /// `rows` through a fresh, transfer-free state's tuner and guardrail,
  /// skipping rows SanitizeReplayRow rejects. Touches neither the store
  /// nor the shard map.
  QueryState Replay(uint64_t signature, const sparksim::QueryPlan& plan,
                    const std::vector<Observation>& rows);
  /// Drops the rows SanitizeReplayRow rejects and appends the rest to the
  /// store in one bulk append; returns how many were kept.
  size_t AppendReplayRows(uint64_t signature, std::vector<Observation> rows);
  /// Plan lookup across the recovery directory and the user resolver.
  const sparksim::QueryPlan* ResolvePlan(uint64_t signature) const;
  /// Row filter of Replay and AppendReplayRows: mirrors the ingestion
  /// boundary's finite/positive/arity checks, so eager, lazy and fault-in
  /// paths see identical rows.
  bool SanitizeReplayRow(const Observation& obs) const;

  const sparksim::ConfigSpace& space_;
  const BaselineModel* baseline_;
  TuningServiceOptions options_;
  /// Seed source for per-signature tuners and the app optimizer; guarded by
  /// rng_mu_ so concurrent state creation stays data-race-free.
  common::Rng rng_;
  std::mutex rng_mu_;
  uint64_t seed_base_;
  sparksim::ConfigVector defaults_;
  SignatureShardMap shards_;
  ObservationStore observations_;
  IngestPipeline pipeline_;
  ServiceMetrics* metrics_;
  ObservationJournal* journal_ = nullptr;
  sparksim::ConfigSpace app_space_;
  AppCache app_cache_;
  mutable std::mutex app_mu_;
  /// Tiered-state wiring (AttachStateTier). The plan directory keeps a
  /// copy of every plan handed to RecoverFromCheckpoint so cold signatures
  /// can rebuild their tuner long after the caller's plan vector is gone.
  ModelStore* model_store_ = nullptr;
  PlanResolver plan_resolver_;
  std::map<uint64_t, sparksim::QueryPlan> plan_directory_;
  mutable std::mutex plan_mu_;
  /// Bounded-memory state plane (AttachStateTier). The shared budget lives
  /// in an atomic (not in tier_options_) so the Admin verb can re-split it
  /// at runtime while the sweeper reads it.
  bool tier_attached_ = false;
  StateTierOptions tier_options_;
  std::atomic<size_t> shared_budget_bytes_{0};
  /// Monotone publication cursor for the obs_truncated counter metric.
  std::atomic<uint64_t> obs_truncated_published_{0};
  /// Background sweeper (StartStateSweeper / StopStateSweeper).
  std::thread sweeper_;
  std::mutex sweeper_mu_;
  std::condition_variable sweeper_cv_;
  bool sweeper_stop_ = false;
  /// Transfer tier (null unless options.transfer.enabled).
  std::unique_ptr<TransferIndex> transfer_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_TUNING_SERVICE_H_
