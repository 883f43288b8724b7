#ifndef ROCKHOPPER_CORE_INGEST_PIPELINE_H_
#define ROCKHOPPER_CORE_INGEST_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "core/journal.h"
#include "core/observation.h"
#include "core/signature_shard.h"
#include "core/telemetry.h"
#include "core/tracing.h"

namespace rockhopper::core {

/// How the service reacts to failed executions (the paper's "insufficient
/// allocations can lead to ... failures", §4.3): penalize, fall back, back
/// off, and let the guardrail disable persistent offenders.
struct FailurePolicyOptions {
  /// Imputed runtime for a failed run, as a multiple of the signature's
  /// typical (median) successful runtime — Centroid Learning then steps away
  /// from the failing region exactly as it steps away from a slow one.
  double penalty_multiplier = 3.0;
  /// Consecutive failures after which the next proposals fall back to the
  /// defaults (the known-safe configuration) instead of exploring.
  int fallback_after = 2;
  /// The first fallback re-runs the defaults this many times; each further
  /// failure streak doubles the fallback run count (exponential backoff) up
  /// to `max_backoff`.
  int initial_backoff = 1;
  int max_backoff = 16;
};

/// Stage 1 — sanitize: the untrusted-telemetry admission boundary (validity
/// checks + per-signature dedup), binding the sanitizer to its config space.
class SanitizeStage {
 public:
  SanitizeStage(const sparksim::ConfigSpace& space, size_t dedup_window)
      : space_(space), sanitizer_(dedup_window) {}

  TelemetryVerdict Admit(uint64_t signature, const QueryEndEvent& event) {
    return sanitizer_.Admit(signature, event, space_);
  }

  const TelemetryStats& stats() const { return sanitizer_.stats(); }

 private:
  const sparksim::ConfigSpace& space_;
  TelemetrySanitizer sanitizer_;
};

/// Stage 2 — failure policy: converts an accepted event into the observation
/// the tuner sees. A failed run's runtime is imputed as penalty_multiplier x
/// the signature's typical successful runtime over `recent`; failure streaks
/// advance the fallback/backoff counters in the QueryState.
class FailurePolicyStage {
 public:
  FailurePolicyStage(const FailurePolicyOptions& options, int window_size)
      : options_(options), window_size_(window_size) {}

  /// Penalized-runtime imputation for a failed run, with sane fallbacks when
  /// no successful history exists yet.
  double ImputeFailedRuntime(const QueryEndEvent& event,
                             const ObservationWindow& recent) const;

  /// Builds the observation for `event` (iteration = `iteration`) and, when
  /// the event is a failure, advances `state`'s streak/fallback/backoff; a
  /// success resets the streak but keeps the widened backoff.
  Observation Apply(const QueryEndEvent& event, const ObservationWindow& recent,
                    size_t iteration, QueryState* state) const;

  /// The imputation window width (the tuner's centroid window).
  int window_size() const { return window_size_; }

 private:
  FailurePolicyOptions options_;
  int window_size_;
};

/// Stage 3 — tune: feeds one observation to the signature's tuner and
/// guardrail. Returns false when tuning is (or becomes) disabled for this
/// signature — the guardrail's sticky kill switch.
class TuneStage {
 public:
  explicit TuneStage(bool enable_guardrail)
      : enable_guardrail_(enable_guardrail) {}

  bool Apply(const Observation& obs, QueryState* state) const;

 private:
  bool enable_guardrail_;
};

/// Stage 4 — journal: stages the accepted observation in the crash-safe
/// journal (when attached). I/O errors are never fatal to the tuning path:
/// the journal counts each lost record (lost_records) and warns rate-limited.
/// TuningService commits the staged records with one Sync before it acks.
class JournalStage {
 public:
  void Append(ObservationJournal* journal, uint64_t signature,
              const Observation& obs) const;
};

/// The OnQueryEnd ingestion path as an explicit staged pipeline:
///
///   sanitize → impute/failure-policy → journal → tune/guardrail
///
/// Each stage is independently testable; the pipeline only wires them in
/// order. The caller (TuningService) owns locking: `state` must be held
/// under its shard lock for the duration of Ingest. The sanitizer, the
/// observation store, and the journal are internally thread-safe, so the
/// pipeline adds no locks of its own.
class IngestPipeline {
 public:
  struct Options {
    FailurePolicyOptions failure_policy;
    size_t telemetry_dedup_window = 256;
    bool enable_guardrail = true;
    /// Imputation window width (the centroid learner's window_size).
    int window_size = 15;
  };

  IngestPipeline(const sparksim::ConfigSpace& space, const Options& options)
      : sanitize_(space, options.telemetry_dedup_window),
        failure_policy_(options.failure_policy, options.window_size),
        tune_(options.enable_guardrail),
        metrics_(&ServiceMetrics::Get()) {}

  /// Runs one telemetry delivery through all stages against the (locked)
  /// state. Rejected events only move the counters. Returns the sanitize
  /// verdict; kAccept means the observation was stored, staged in the
  /// journal, and fed to the tuner (unless the signature is disabled).
  TelemetryVerdict Ingest(uint64_t signature, const QueryEndEvent& event,
                          QueryState* state, ObservationStore* store,
                          ObservationJournal* journal);

  /// Batch form for the network front end: every event of one signature
  /// runs under the caller's single held shard lock, verdicts appended in
  /// event order. The caller's one Sync after the batch commits every journal
  /// append, so one network batch amortizes both the shard lock and the
  /// flush.
  void IngestBatch(uint64_t signature, const QueryEndEvent* const* events,
                   size_t count, QueryState* state, ObservationStore* store,
                   ObservationJournal* journal,
                   std::vector<TelemetryVerdict>* verdicts);

  const TelemetryStats& stats() const { return sanitize_.stats(); }

 private:
  /// One pass through the stages; Ingest() wraps it with the simulation's
  /// injected duplicated-delivery fault.
  TelemetryVerdict IngestOnce(uint64_t signature, const QueryEndEvent& event,
                              QueryState* state, ObservationStore* store,
                              ObservationJournal* journal);

  SanitizeStage sanitize_;
  FailurePolicyStage failure_policy_;
  TuneStage tune_;
  JournalStage journal_;
  ServiceMetrics* metrics_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_INGEST_PIPELINE_H_
