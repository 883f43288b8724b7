#ifndef ROCKHOPPER_NET_SERVER_CORE_H_
#define ROCKHOPPER_NET_SERVER_CORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tracing.h"
#include "core/tuning_service.h"
#include "net/admission.h"
#include "net/rate_limiter.h"
#include "net/wire.h"

namespace rockhopper::net {

/// Signature → plan directory for the front end: the wire carries only the
/// 64-bit plan signature, so the server must already know every servable
/// plan (the serve command registers its suite at startup). Read-only after
/// registration — populate before traffic, no locking on lookups.
class PlanRegistry {
 public:
  void Register(const sparksim::QueryPlan* plan) {
    plans_[plan->Signature()] = plan;
  }
  const sparksim::QueryPlan* Find(uint64_t signature) const {
    auto it = plans_.find(signature);
    return it == plans_.end() ? nullptr : it->second;
  }
  size_t size() const { return plans_.size(); }

 private:
  std::unordered_map<uint64_t, const sparksim::QueryPlan*> plans_;
};

struct ServerCoreOptions {
  TenantRateLimiter::Options tenant_limits;
  AdmissionController::Options admission;
  /// Tiering budget in bytes (0 = tiering off) — the denominator of the
  /// admission controller's resident-bytes signal. Adjustable at runtime
  /// via the Admin verb (ServerCore::SetSharedBudget).
  uint64_t tiering_budget_bytes = 0;
  /// Shared secret for Verb::kAdmin. Empty disables the verb entirely:
  /// every Admin frame is answered kUnauthorized.
  std::string admin_token;
  /// ObserveQueryEnd frames coalesced into one OnQueryEndBatch call, whose
  /// journal appends share one flush.
  size_t max_batch = 64;
};

/// Everything the per-connection sessions share: the tuning service, the
/// plan directory, both admission layers, and the live-signal sampling that
/// drives the global controller. Thread-safe — sessions on different event
/// loop threads go through internally synchronized members only.
class ServerCore {
 public:
  ServerCore(core::TuningService* service, const PlanRegistry* plans,
             const ServerCoreOptions& options);

  core::TuningService* service() { return service_; }
  const PlanRegistry& plans() const { return *plans_; }
  const ServerCoreOptions& options() const { return options_; }
  TenantRateLimiter& tenant_limiter() { return tenant_limiter_; }
  AdmissionController& admission() { return admission_; }
  core::ServiceMetrics& metrics() { return *metrics_; }

  /// Samples the live overload signals (journal flush p99 over the window
  /// since the previous sample, the server's in-flight backlog, resident
  /// bytes vs budget) and steps the admission controller — rate-limited
  /// internally, call once per event-loop pass.
  void MaybeUpdateAdmission(uint64_t now_ns, size_t queue_depth);

  /// Admin-verb runtime budget change: repoints the admission controller's
  /// resident-bytes denominator and pushes the new shared budget into the
  /// tuning service (state/observation resplit on its next sweep).
  void SetSharedBudget(uint64_t bytes);
  uint64_t shared_budget_bytes() const {
    return shared_budget_bytes_.load(std::memory_order_relaxed);
  }

  /// After this, sessions answer kShuttingDown to new requests; already
  /// admitted work still completes (the drain the exit report relies on).
  void BeginShutdown() {
    shutting_down_.store(true, std::memory_order_release);
  }
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

 private:
  core::TuningService* service_;
  const PlanRegistry* plans_;
  ServerCoreOptions options_;
  core::ServiceMetrics* metrics_;
  TenantRateLimiter tenant_limiter_;
  AdmissionController admission_;
  std::atomic<bool> shutting_down_{false};
  /// Live copy of options_.tiering_budget_bytes (Admin verb mutates it).
  std::atomic<uint64_t> shared_budget_bytes_;
  /// Bucket-count baseline of journal_flush_seconds for the windowed p99;
  /// only touched under the controller's update cadence (single sampler).
  std::vector<uint64_t> flush_baseline_;
  std::mutex sample_mu_;
};

/// One connection's protocol state machine, transport-free: feed the raw
/// bytes the socket produced, collect the response bytes to write back.
/// The epoll server, the loopback tests, and the simulation's wire loop all
/// run this exact code — the sockets are the only part the sim skips.
///
/// Batching: ObserveQueryEnd requests that pass admission are staged and
/// flushed as one TuningService::OnQueryEndBatch call — at a non-observe
/// verb (responses stay in request order), at max_batch, and at the end of
/// each OnBytes. A session is owned by one event-loop thread; it is not
/// internally synchronized.
class Session {
 public:
  explicit Session(ServerCore* core) : core_(core) {}

  /// Processes `size` transport bytes arriving at monotonic time `now_ns`,
  /// appending complete responses to `out`. Returns false when the
  /// connection must close (unrecoverable framing error) — any bytes
  /// already appended to `out` (the kBadFrame response) should still be
  /// flushed before closing.
  bool OnBytes(const void* data, size_t size, uint64_t now_ns,
               std::string* out);

  /// Flushes any staged observes (end-of-drain path on shutdown).
  void Flush(std::string* out);

  /// Staged observe requests not yet run through the service.
  size_t pending() const { return pending_.size(); }

 private:
  struct PendingObserve {
    uint32_t tenant = 0;
    uint32_t seq = 0;
    const sparksim::QueryPlan* plan = nullptr;
    core::QueryEndEvent event;
  };

  /// Dispatches one decoded frame; false = close connection.
  bool HandleFrame(const Frame& frame, uint64_t now_ns, std::string* out);
  void HandleObserve(const Frame& frame, uint64_t now_ns, std::string* out);
  void HandlePropose(const Frame& frame, uint64_t now_ns, std::string* out);
  void HandleAdmin(const Frame& frame, std::string* out);

  ServerCore* core_;
  FrameDecoder decoder_;
  std::vector<PendingObserve> pending_;
};

}  // namespace rockhopper::net

#endif  // ROCKHOPPER_NET_SERVER_CORE_H_
