// The network verbs: the wire server (the deployment shape of §6.3), the
// authenticated runtime control plane, and the wire load generator.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "core/tracing.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/server_core.h"
#include "tools/cli/cli.h"

namespace rockhopper::cli {

using namespace rockhopper::core;  // NOLINT(build/namespaces)

namespace {

// SIGINT/SIGTERM → drain-and-exit for `serve`. RequestStop is one atomic
// store, so the handler is async-signal-safe.
std::atomic<net::Server*> g_listen_server{nullptr};

void HandleStopSignal(int) {
  if (net::Server* server = g_listen_server.load(std::memory_order_acquire)) {
    server->RequestStop();
  }
}

// Parses "PORT" or "HOST:PORT" (host defaults to 127.0.0.1). Returns false
// on malformed input.
bool ParseListen(const std::string& value, std::string* host,
                 uint16_t* port) {
  *host = "127.0.0.1";
  const size_t colon = value.rfind(':');
  std::string port_text = value;
  if (colon != std::string::npos) {
    if (colon > 0) *host = value.substr(0, colon);
    port_text = value.substr(colon + 1);
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || parsed > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(parsed);
  return true;
}

}  // namespace

// The network deployment shape: the tuning service behind the wire-protocol
// front end, per-tenant token buckets + the global admission controller in
// front of ingestion, a compactor that checkpoints the journal while it
// serves, and a drain-first shutdown so the exit-report counters cover
// every request the server acked.
int RunServe(const Flags& flags) {
  net::ServerOptions server_options;
  if (!ParseListen(flags.Text("listen", "127.0.0.1:0"), &server_options.host,
                   &server_options.port)) {
    std::fprintf(stderr, "malformed --listen (want PORT or HOST:PORT)\n");
    return 2;
  }
  server_options.io_threads = static_cast<int>(flags.Int("io-threads", 1));

  const std::string journal_path = flags.Text("journal", "");
  auto built = BuildServiceStack(
      flags, "tpcds", static_cast<uint64_t>(flags.Int("seed", 37)),
      journal_path);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  ServiceStack& stack = **built;
  TuningService& service = *stack.service;
  // The long-running server owns a sweeper thread: idle-TTL eviction and
  // observation-budget enforcement tick without a foreground driver.
  if (stack.state_store && service.state_tier_options().sweep_interval_ms > 0) {
    service.StartStateSweeper();
  }

  net::PlanRegistry registry;
  for (const sparksim::QueryPlan& plan : stack.plans) registry.Register(&plan);

  const uint64_t memory_budget =
      static_cast<uint64_t>(flags.Int("memory-budget", 0));
  net::ServerCoreOptions core_options;
  core_options.tenant_limits.default_rate = flags.Num("tenant-rate", 0.0);
  core_options.tenant_limits.burst_seconds = flags.Num("tenant-burst-s", 0.25);
  core_options.admission.flush_p99_target =
      flags.Num("flush-p99-target", 0.050);
  core_options.admission.queue_depth_target = flags.Num(
      "queue-target", net::AdmissionController::Options().queue_depth_target);
  core_options.tiering_budget_bytes = memory_budget;
  core_options.admin_token = flags.Text("admin-token", "");
  core_options.max_batch =
      static_cast<size_t>(std::max<int64_t>(1, flags.Int("net-batch", 64)));
  net::ServerCore core(&service, &registry, core_options);

  net::Server server(&core, server_options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Scripts wait for this line to learn the ephemeral port.
  std::printf("listening on %s:%u (%zu signatures, suite %s)\n",
              server_options.host.c_str(), server.port(), registry.size(),
              flags.Text("suite", "tpcds").c_str());
  std::fflush(stdout);

  g_listen_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  // The wait loop doubles as the compactor: every --checkpoint-interval
  // accepted observations it checkpoints the journal, racing live ingest
  // (the rotation barrier keeps concurrent appends exactly-once).
  const uint64_t checkpoint_interval =
      static_cast<uint64_t>(flags.Int("checkpoint-interval", 0));
  const bool compacting = checkpoint_interval > 0 && stack.journal.is_open();
  uint64_t checkpoints = 0, last_checkpoint = 0;
  const double duration_s = flags.Num("duration-s", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (!server.stop_requested() &&
         (duration_s <= 0.0 ||
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
                  .count() < duration_s)) {
    const uint64_t accepted =
        service.telemetry_stats().accepted.load(std::memory_order_relaxed);
    if (compacting && accepted - last_checkpoint >= checkpoint_interval) {
      if (service.Checkpoint().ok()) ++checkpoints;
      last_checkpoint = accepted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Drain before the final scrape: staged observe batches flush through the
  // service and buffered responses are written, so every request the server
  // acked is inside the counters printed below.
  server.Stop(static_cast<int>(flags.Int("drain-ms", 2000)));
  g_listen_server.store(nullptr, std::memory_order_release);
  // One final compaction so the chain a restart replays is as short as the
  // interval promises.
  if (compacting && service.Checkpoint().ok()) ++checkpoints;

  int exit_code = 0;
  if (Status st = service.Shutdown(); !st.ok()) {
    std::fprintf(stderr, "journal shutdown failed: %s\n",
                 st.ToString().c_str());
    exit_code = 1;
  }
  const ServiceMetrics& m = ServiceMetrics::Get();
  std::printf("\nconnections: %" PRIu64 " accepted; rx %" PRIu64
              " bytes, tx %" PRIu64 " bytes\n",
              m.net_connections_accepted->Value(), m.net_rx_bytes->Value(),
              m.net_tx_bytes->Value());
  std::printf("requests: %" PRIu64 " observe, %" PRIu64 " propose, %" PRIu64
              " metrics, %" PRIu64 " health\n",
              m.net_requests_observe->Value(), m.net_requests_propose->Value(),
              m.net_requests_metrics->Value(), m.net_requests_health->Value());
  std::printf("shed: %" PRIu64 " tenant-limit, %" PRIu64
              " global-admission (final rate %.3f, pressure %s); frame "
              "errors: %" PRIu64 " crc, %" PRIu64 " frame, %" PRIu64
              " payload\n",
              m.net_shed_tenant->Value(), m.net_shed_global->Value(),
              core.admission().rate(), core.admission().pressure_source(),
              m.net_bad_crc->Value(), m.net_bad_frame->Value(),
              m.net_bad_payload->Value());
  // Histogram-derived latency quantiles (the Percentile helper): the
  // server-side decode-to-response distribution of admitted requests only —
  // shed requests are never timed, so the shed count sits beside N.
  std::printf("request latency: p50 %.6f s, p99 %.6f s over %" PRIu64
              " admitted requests (%" PRIu64 " shed); mean batch %.1f\n",
              m.net_request_seconds->Percentile(0.50),
              m.net_request_seconds->Percentile(0.99),
              m.net_request_seconds->Count(),
              m.net_shed_tenant->Value() + m.net_shed_global->Value(),
              m.net_batch_size->Count() > 0
                  ? m.net_batch_size->Sum() /
                        static_cast<double>(m.net_batch_size->Count())
                  : 0.0);
  // The drain contract, stated in counters: deliveries == verdicts.
  const TelemetryStats& stats = service.telemetry_stats();
  const uint64_t accepted = stats.accepted.load(std::memory_order_relaxed);
  const uint64_t delivered = m.queries_ended->Value();
  const uint64_t verdicts = accepted + stats.total_rejected();
  std::printf("service: %" PRIu64 " deliveries -> %" PRIu64
              " verdicts (%" PRIu64 " accepted, %" PRIu64 " rejected)%s\n",
              delivered, verdicts, accepted, stats.total_rejected(),
              delivered == verdicts ? "" : "  [MISMATCH]");
  if (delivered != verdicts) exit_code = 1;
  if (!journal_path.empty()) {
    std::printf("journal written to %s (%" PRIu64 " append errors)\n",
                journal_path.c_str(), stack.journal.lost_records());
  }
  if (compacting) {
    std::printf("journal checkpoints: %" PRIu64 " (every %" PRIu64
                " accepted observations)\n",
                checkpoints, checkpoint_interval);
  }
  if (stack.state_store) {
    const TierStats tier = service.StateTierStats();
    std::printf("state tier: %zu resident (%zu bytes of %" PRIu64
                " budget), %zu cold; %" PRIu64 " evictions, %" PRIu64
                " fault-ins\n",
                tier.resident_signatures, tier.resident_bytes, memory_budget,
                tier.cold_signatures, tier.evictions, tier.faultins);
  }

  const std::string metrics_format = flags.Text("metrics-format", "prom");
  if (metrics_format != "off") {
    const common::MetricsSnapshot scrape = service.Metrics();
    std::printf("\n# --- metrics scrape at exit ---\n");
    if (metrics_format == "json") {
      std::printf("%s\n", scrape.ToJson().c_str());
    } else {
      std::printf("%s", scrape.ToPrometheusText().c_str());
    }
  }
  return exit_code;
}

// Runtime control plane: one authenticated Admin frame against a running
// `serve --admin-token=SECRET` process. Exactly one operation per
// invocation: --set-tenant-rate=RATE with --tenant=ID pins one tenant's
// rate; --set-budget=BYTES sets the shared memory budget.
int RunAdmin(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseListen(flags.Text("connect", ""), &host, &port) || port == 0) {
    std::fprintf(stderr, "admin requires --connect=HOST:PORT\n");
    return 2;
  }
  net::AdminRequest request;
  request.token = flags.Text("token", "");
  const bool set_rate = flags.Has("set-tenant-rate");
  if (set_rate == flags.Has("set-budget")) {
    std::fprintf(stderr,
                 "admin requires exactly one of --set-tenant-rate=RATE "
                 "(with --tenant=ID) or --set-budget=BYTES\n");
    return 2;
  }
  if (set_rate) {
    request.op = net::AdminOp::kSetTenantRate;
    request.tenant = static_cast<uint32_t>(flags.Int("tenant", 0));
    request.value = flags.Num("set-tenant-rate", 0.0);
  } else {
    request.op = net::AdminOp::kSetSharedBudget;
    request.value = static_cast<double>(flags.Int("set-budget", 0));
  }

  net::Client client;
  if (Status st = client.Connect(host, port); !st.ok()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                 st.ToString().c_str());
    return 1;
  }
  client.SetRecvTimeout(static_cast<int>(flags.Int("timeout-ms", 5000)));
  net::Client::Response response;
  if (Status st = client.Call(net::Verb::kAdmin, 0,
                              net::EncodeAdminPayload(request), &response);
      !st.ok()) {
    std::fprintf(stderr, "admin call failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("admin: %s\n", net::WireStatusName(response.status));
  if (response.status == net::WireStatus::kUnauthorized) {
    std::fprintf(stderr,
                 "server rejected the token (started with --admin-token?)\n");
  }
  return response.status == net::WireStatus::kOk ? 0 : 1;
}

// Wire-protocol load generator: open-loop (Poisson) or closed-loop traffic
// against a `serve` process, per-tenant mixes, client-observed latency
// percentiles. --json emits one machine-readable line for the bench
// harness.
int RunLoadgen(const Flags& flags) {
  const std::vector<sparksim::QueryPlan> plans =
      SuitePlans(flags.Text("suite", "tpcds"));
  std::vector<const sparksim::QueryPlan*> plan_ptrs;
  for (const sparksim::QueryPlan& plan : plans) plan_ptrs.push_back(&plan);
  if (const int64_t limit = flags.Int("plans", 0);
      limit > 0 && static_cast<size_t>(limit) < plan_ptrs.size()) {
    plan_ptrs.resize(static_cast<size_t>(limit));
  }

  net::LoadGenOptions options;
  options.host = flags.Text("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.Int("port", 0));
  if (options.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }
  options.duration_s = flags.Num("duration-s", 5.0);
  options.propose_fraction = flags.Num("propose-fraction", 0.0);
  options.seed = static_cast<uint64_t>(flags.Int("seed", 1));

  const int tenants =
      static_cast<int>(std::max<int64_t>(1, flags.Int("tenants", 1)));
  const double rate = flags.Num("rate", 0.0);
  const int concurrency =
      static_cast<int>(std::max<int64_t>(1, flags.Int("concurrency", 1)));
  for (int t = 1; t <= tenants; ++t) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(t);
    spec.rate = rate;
    spec.concurrency = concurrency;
    options.tenants.push_back(spec);
  }
  // One extra open-loop aggressor on top of the polite tenants — the
  // noisy-neighbor fairness experiment.
  const double noisy_rate = flags.Num("noisy-rate", 0.0);
  if (noisy_rate > 0.0) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(tenants + 1);
    spec.rate = noisy_rate;
    options.tenants.push_back(spec);
  }

  auto result = net::RunLoadGen(options, plan_ptrs);
  if (!result.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const net::LoadGenReport& report = result.value();

  if (flags.Bool("json")) {
    std::printf("{\"elapsed_s\":%.3f,\"sent\":%" PRIu64 ",\"ok\":%" PRIu64
                ",\"busy\":%" PRIu64 ",\"errors\":%" PRIu64
                ",\"offered_qps\":%.1f,\"achieved_qps\":%.1f,\"p50\":%.6f,"
                "\"p99\":%.6f,\"fell_behind\":%s,\"tenants\":[",
                report.elapsed_s, report.sent, report.ok, report.busy,
                report.errors, report.offered_qps, report.achieved_qps,
                report.p50, report.p99, report.fell_behind ? "true" : "false");
    for (size_t i = 0; i < report.tenants.size(); ++i) {
      const net::TenantReport& tenant = report.tenants[i];
      std::printf("%s{\"tenant\":%u,\"sent\":%" PRIu64 ",\"ok\":%" PRIu64
                  ",\"busy\":%" PRIu64 ",\"errors\":%" PRIu64
                  ",\"ok_qps\":%.1f,\"p50\":%.6f,\"p99\":%.6f}",
                  i == 0 ? "" : ",", tenant.tenant, tenant.sent, tenant.ok,
                  tenant.busy, tenant.errors, tenant.ok_qps, tenant.p50,
                  tenant.p99);
    }
    std::printf("]}\n");
  } else {
    std::printf("loadgen: %.2f s, %" PRIu64 " sent, %" PRIu64 " ok, %" PRIu64
                " busy, %" PRIu64 " errors\n",
                report.elapsed_s, report.sent, report.ok, report.busy,
                report.errors);
    std::printf("throughput: offered %.1f q/s, achieved %.1f q/s; latency "
                "p50 %.6f s, p99 %.6f s%s\n",
                report.offered_qps, report.achieved_qps, report.p50,
                report.p99,
                report.fell_behind ? "  [sender fell behind schedule]" : "");
    for (const net::TenantReport& tenant : report.tenants) {
      std::printf("tenant %u: %" PRIu64 " sent, %" PRIu64
                  " ok (%.1f q/s), %" PRIu64 " busy, %" PRIu64
                  " errors, p99 %.6f s\n",
                  tenant.tenant, tenant.sent, tenant.ok, tenant.ok_qps,
                  tenant.busy, tenant.errors, tenant.p99);
    }
  }
  return report.ok == 0 ? 1 : 0;
}

}  // namespace rockhopper::cli
