#include "core/tracing.h"

namespace rockhopper::core {

namespace {

common::Counter* Verdict(common::MetricsRegistry& reg, const char* verdict) {
  return reg.GetCounter(
      "rockhopper_telemetry_events_total",
      "OnQueryEnd deliveries by sanitizer verdict",
      std::string("verdict=\"") + verdict + "\"");
}

}  // namespace

ServiceMetrics::ServiceMetrics() {
  common::MetricsRegistry& reg = common::MetricsRegistry::Default();
  const std::vector<double> latency = common::DefaultLatencyBuckets();

  queries_started =
      reg.GetCounter("rockhopper_queries_started_total",
                     "Configuration proposals handed out by OnQueryStart");
  queries_ended = reg.GetCounter(
      "rockhopper_queries_ended_total",
      "Telemetry deliveries received by OnQueryEnd (before sanitization)");
  proposals_tuner = reg.GetCounter(
      "rockhopper_proposals_total", "Proposals by source",
      "source=\"tuner\"");
  proposals_fallback = reg.GetCounter(
      "rockhopper_proposals_total", "Proposals by source",
      "source=\"fallback\"");
  proposals_disabled = reg.GetCounter(
      "rockhopper_proposals_total", "Proposals by source",
      "source=\"disabled\"");

  telemetry_accepted = Verdict(reg, "accepted");
  telemetry_rejected_nonfinite = Verdict(reg, "rejected_nonfinite");
  telemetry_rejected_nonpositive = Verdict(reg, "rejected_nonpositive");
  telemetry_rejected_duplicate = Verdict(reg, "rejected_duplicate");
  telemetry_rejected_config = Verdict(reg, "rejected_config");
  telemetry_sim_dropped = Verdict(reg, "sim_dropped");
  failures_ingested =
      reg.GetCounter("rockhopper_failures_ingested_total",
                     "Accepted telemetry events reporting a failed run");
  guardrail_trips =
      reg.GetCounter("rockhopper_guardrail_trips_total",
                     "Signatures whose tuning the guardrail disabled");
  fallback_windows =
      reg.GetCounter("rockhopper_fallback_windows_total",
                     "Failure-backoff windows opened (proposals pinned to "
                     "the defaults)");

  auto stage = [&](const char* name) {
    return reg.GetHistogram("rockhopper_ingest_stage_seconds",
                            "Per-stage latency of the OnQueryEnd ingest "
                            "pipeline",
                            latency, std::string("stage=\"") + name + "\"");
  };
  stage_sanitize = stage("sanitize");
  stage_failure_policy = stage("failure_policy");
  stage_journal = stage("journal");
  stage_tune = stage("tune");
  ingest_seconds = reg.GetHistogram(
      "rockhopper_ingest_seconds",
      "Whole-pipeline OnQueryEnd latency (rejected deliveries included)",
      latency);

  journal_appends =
      reg.GetCounter("rockhopper_journal_appends_total",
                     "Journal records whose flush succeeded");
  journal_errors = reg.GetCounter(
      "rockhopper_journal_errors_total",
      "Journal records lost: refused appends plus records whose flush "
      "failed");
  journal_flush_seconds = reg.GetHistogram(
      "rockhopper_journal_flush_seconds",
      "Latency of one journal flush committing the staged records",
      latency);
  journal_batch_size = reg.GetHistogram(
      "rockhopper_journal_batch_size",
      "Records committed per journal flush",
      common::ExponentialBuckets(1.0, 2.0, 9));

  state_resident_signatures = reg.GetGauge(
      "rockhopper_state_resident_signatures",
      "Signatures whose QueryState is resident in the hot tier");
  state_resident_bytes = reg.GetGauge(
      "rockhopper_state_resident_bytes",
      "Approximate bytes of resident QueryState (the --memory-budget "
      "accounting unit)");
  state_evictions =
      reg.GetCounter("rockhopper_state_evictions_total",
                     "QueryStates serialized and spilled to the cold tier");
  state_faultins =
      reg.GetCounter("rockhopper_state_faultins_total",
                     "Cold QueryStates decoded back into the hot tier");
  state_faultin_seconds = reg.GetHistogram(
      "rockhopper_state_faultin_seconds",
      "Latency of restoring one cold QueryState (fetch + decode)", latency);
  state_sweep_evictions = reg.GetCounter(
      "rockhopper_state_sweep_evictions_total",
      "QueryStates evicted by the idle-TTL background sweeper");
  state_clean_evictions = reg.GetCounter(
      "rockhopper_state_clean_evictions_total",
      "Evictions that skipped the save because the persisted artifact was "
      "already current");
  obs_resident_bytes = reg.GetGauge(
      "rockhopper_obs_resident_bytes",
      "Approximate bytes of retained observation history (the observation "
      "half of the shared process budget)");
  obs_truncated = reg.GetCounter(
      "rockhopper_obs_truncated_total",
      "Observations dropped by per-signature retention truncation");
  compress_encodes =
      reg.GetCounter("rockhopper_compress_encodes_total",
                     "Cold artifacts / checkpoint segments compressed");
  compress_ratio = reg.GetHistogram(
      "rockhopper_compress_ratio",
      "Compressed-to-raw size ratio per encoded artifact",
      common::LinearBuckets(0.1, 0.1, 12));
  compress_seconds = reg.GetHistogram(
      "rockhopper_compress_seconds",
      "Latency of one compression-envelope encode", latency);
  checkpoint_deltas_total = reg.GetCounter(
      "rockhopper_checkpoint_deltas_total",
      "Incremental (delta) checkpoint segments published");
  checkpoint_bytes = reg.GetHistogram(
      "rockhopper_checkpoint_bytes",
      "Bytes written per checkpoint publication (delta or full compaction)",
      common::ExponentialBuckets(1024.0, 4.0, 10));
  checkpoints_total =
      reg.GetCounter("rockhopper_checkpoints_total",
                     "Journal checkpoint compactions completed");
  checkpoint_seconds = reg.GetHistogram(
      "rockhopper_checkpoint_seconds",
      "Whole checkpoint-compaction latency (rotate + absorb + truncate)",
      latency);

  transfer_index_size = reg.GetGauge(
      "rockhopper_transfer_index_size",
      "Signatures registered in the embedding ANN index (staged included)");
  transfer_inserts =
      reg.GetCounter("rockhopper_transfer_inserts_total",
                     "Embeddings registered with the transfer tier");
  transfer_rejected_embeddings = reg.GetCounter(
      "rockhopper_transfer_rejected_embeddings_total",
      "Embeddings refused by the index (non-finite components)");
  transfer_insert_seconds = reg.GetHistogram(
      "rockhopper_transfer_insert_seconds",
      "Latency of one staged-batch flush into the HNSW graph", latency);
  transfer_search_seconds = reg.GetHistogram(
      "rockhopper_transfer_search_seconds",
      "k-NN retrieval latency for one cold-signature consult", latency);
  transfer_hits = reg.GetCounter(
      "rockhopper_transfer_total", "Cold-start transfer consults by outcome",
      "outcome=\"hit\"");
  transfer_misses = reg.GetCounter(
      "rockhopper_transfer_total", "Cold-start transfer consults by outcome",
      "outcome=\"miss\"");
  transfer_seeded_observations = reg.GetCounter(
      "rockhopper_transfer_seeded_observations_total",
      "Safe-weighted neighbor observations seeded into fresh tuners");
  transfer_recall_probe = reg.GetHistogram(
      "rockhopper_transfer_recall_probe",
      "Sampled recall@k of HNSW search against the ExactKnn reference",
      {0.5, 0.8, 0.9, 0.95, 0.99, 1.0});

  net_connections = reg.GetGauge("rockhopper_net_connections",
                                 "Currently open client connections");
  net_connections_accepted =
      reg.GetCounter("rockhopper_net_connections_accepted_total",
                     "Client connections accepted since start");
  net_rx_bytes = reg.GetCounter("rockhopper_net_rx_bytes_total",
                                "Bytes read off client sockets");
  net_tx_bytes = reg.GetCounter("rockhopper_net_tx_bytes_total",
                                "Response bytes written to client sockets");
  auto request_verb = [&](const char* verb) {
    return reg.GetCounter("rockhopper_net_requests_total",
                          "Decoded request frames by verb",
                          std::string("verb=\"") + verb + "\"");
  };
  net_requests_observe = request_verb("observe_query_end");
  net_requests_propose = request_verb("propose");
  net_requests_metrics = request_verb("metrics");
  net_requests_health = request_verb("health");
  net_requests_admin = request_verb("admin");
  net_admin_unauthorized =
      reg.GetCounter("rockhopper_net_admin_unauthorized_total",
                     "Admin frames rejected by the token handshake");
  auto frame_error = [&](const char* kind) {
    return reg.GetCounter("rockhopper_net_frame_errors_total",
                          "Framing failures by kind (crc is recoverable; "
                          "frame closes the connection)",
                          std::string("kind=\"") + kind + "\"");
  };
  net_bad_crc = frame_error("crc");
  net_bad_frame = frame_error("frame");
  net_bad_payload = frame_error("payload");
  auto shed_layer = [&](const char* layer) {
    return reg.GetCounter("rockhopper_net_shed_total",
                          "Requests answered kBusy by shedding layer",
                          std::string("layer=\"") + layer + "\"");
  };
  net_shed_tenant = shed_layer("tenant");
  net_shed_global = shed_layer("global");
  net_request_seconds = reg.GetHistogram(
      "rockhopper_net_request_seconds",
      "Server-side request latency, frame decoded to response queued",
      latency);
  net_batch_size = reg.GetHistogram(
      "rockhopper_net_batch_size",
      "ObserveQueryEnd events per batched OnQueryEndBatch call",
      common::ExponentialBuckets(1.0, 2.0, 9));
  net_queue_depth = reg.GetGauge(
      "rockhopper_net_queue_depth",
      "Requests decoded but not yet answered (admission backlog signal)");
  admission_rate = reg.GetGauge(
      "rockhopper_admission_rate",
      "Globally admitted request fraction (1 = no shedding)");
}

ServiceMetrics& ServiceMetrics::Get() {
  static ServiceMetrics metrics;
  return metrics;
}

}  // namespace rockhopper::core
