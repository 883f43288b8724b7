#include "sim/sim_runner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/flighting.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "net/server_core.h"
#include "net/wire.h"
#include "sim/buggify.h"
#include "sim/service_digest.h"
#include "sim/trace.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"

namespace rockhopper::sim {

namespace {

namespace fs = std::filesystem;
using core::Observation;
using core::ObservationJournal;
using core::QueryEndEvent;
using core::TuningService;

/// The one model-store key the simulated service publishes under.
constexpr uint64_t kModelKey = 1;
/// Cap on recorded violations: a systemic breakage (e.g. a broken counter)
/// would otherwise flood the report with one line per delivery.
constexpr size_t kMaxViolations = 32;

void AddViolation(std::vector<std::string>* violations, std::string text) {
  if (violations->size() < kMaxViolations) {
    violations->push_back(std::move(text));
  }
}

bool BitEqual(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// Exact (bit-level) observation equality: the journal round-trips doubles
// through hexfloat, so recovery must reproduce every acked observation to
// the bit, not within an epsilon.
bool SameObservation(const Observation& a, const Observation& b) {
  if (a.iteration != b.iteration || a.failed != b.failed ||
      a.config.size() != b.config.size() ||
      !BitEqual(a.data_size, b.data_size) || !BitEqual(a.runtime, b.runtime)) {
    return false;
  }
  for (size_t i = 0; i < a.config.size(); ++i) {
    if (!BitEqual(a.config[i], b.config[i])) return false;
  }
  return true;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// Removes a journal together with its checkpoint, delta chain, and sealed
/// segments — the whole on-disk family a checkpointing run leaves behind.
void RemoveJournalFamily(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(core::CheckpointPath(path), ec);
  fs::remove(core::CheckpointPath(path) + ".tmp", ec);
  if (auto deltas = core::ListCheckpointDeltas(path); deltas.ok()) {
    for (const auto& [index, delta_path] : *deltas) {
      fs::remove(delta_path, ec);
      fs::remove(delta_path + ".tmp", ec);
    }
  }
  if (auto segments = ObservationJournal::ListSegments(path); segments.ok()) {
    for (const auto& [index, segment_path] : *segments) {
      fs::remove(segment_path, ec);
    }
  }
}

/// Deterministic counter deltas between two registry scrapes — the registry
/// is process-global, so an in-process seed sweep must difference snapshots
/// rather than read absolute values.
struct Counts {
  uint64_t delivered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t sim_dropped = 0;
  uint64_t appends = 0;
  uint64_t errors = 0;
};

uint64_t DeltaU64(const common::MetricsSnapshot& before,
                  const common::MetricsSnapshot& after, const char* name,
                  const char* labels = "") {
  return static_cast<uint64_t>(
      std::llround(after.Value(name, labels) - before.Value(name, labels)));
}

Counts CountsBetween(const common::MetricsSnapshot& before,
                     const common::MetricsSnapshot& after) {
  Counts counts;
  counts.delivered = DeltaU64(before, after, "rockhopper_queries_ended_total");
  const char* events = "rockhopper_telemetry_events_total";
  counts.accepted = DeltaU64(before, after, events, "verdict=\"accepted\"");
  counts.rejected =
      DeltaU64(before, after, events, "verdict=\"rejected_nonfinite\"") +
      DeltaU64(before, after, events, "verdict=\"rejected_nonpositive\"") +
      DeltaU64(before, after, events, "verdict=\"rejected_duplicate\"") +
      DeltaU64(before, after, events, "verdict=\"rejected_config\"");
  counts.sim_dropped =
      DeltaU64(before, after, events, "verdict=\"sim_dropped\"");
  counts.appends =
      DeltaU64(before, after, "rockhopper_journal_appends_total");
  counts.errors = DeltaU64(before, after, "rockhopper_journal_errors_total");
  return counts;
}

/// One simulated tenant: a fixed plan driven by its own seeded simulator and
/// virtual clock. The telemetry bus state (delayed deliveries) and the
/// guardrail watermarks for the monotonicity invariant live here too.
struct Tenant {
  explicit Tenant(sparksim::QueryPlan p)
      : plan(std::move(p)), signature(plan.Signature()) {}

  sparksim::QueryPlan plan;
  uint64_t signature;
  std::unique_ptr<sparksim::SparkSimulator> sim;
  common::Rng rng{0};  ///< think-time draws (re-seeded per run)
  double clock = 0.0;
  int executed = 0;
  std::deque<QueryEndEvent> delayed;  ///< reordered events awaiting delivery
  int last_strikes = 0;
  int last_failure_strikes = 0;
  bool was_disabled = false;
};

/// Routes every telemetry delivery through the real wire protocol: the event
/// is encoded into a binary frame and fed — possibly torn, corrupted, byte
/// at a time, or on a dropped-and-reconnected session under the net.*
/// Buggify sections — through the same Session state machine the socket
/// server runs. Only the sockets themselves are skipped, so framing, CRC
/// recovery, admission, request batching, and the response path all run
/// under the simulation's determinism and invariant checks.
class WireLoop {
 public:
  WireLoop(TuningService* service, std::vector<Tenant>* tenants,
           std::vector<std::string>* violations)
      : tenants_(tenants), violations_(violations) {
    for (const Tenant& t : *tenants_) registry_.Register(&t.plan);
    Reset(service);
  }

  /// Rebuilds the server core and sessions against a (recovered) service —
  /// the wire equivalent of every client reconnecting after a restart.
  void Reset(TuningService* service) {
    core_ = std::make_unique<net::ServerCore>(service, &registry_,
                                              net::ServerCoreOptions{});
    sessions_.clear();
    for (size_t i = 0; i < tenants_->size(); ++i) {
      sessions_.push_back(std::make_unique<net::Session>(core_.get()));
    }
  }

  void Deliver(const Tenant& t, const QueryEndEvent& event) {
    const size_t index = static_cast<size_t>(&t - tenants_->data());
    const uint32_t tenant_id = static_cast<uint32_t>(index + 1);
    const uint64_t now_ns = static_cast<uint64_t>(t.clock * 1e9);
    const std::string payload = net::EncodeObservePayload(t.signature, event);

    std::string frame;
    net::AppendFrame(&frame, net::Verb::kObserveQueryEnd, tenant_id,
                     ++next_seq_, payload);
    // net.frame.corrupt: flip one payload byte in flight. The CRC must catch
    // it, the typed kBadCrc response must come back, and the session must
    // stay usable for the clean retransmit that follows.
    int expect_bad_crc = 0;
    if (ROCKHOPPER_BUGGIFY("net.frame.corrupt")) {
      frame[net::kHeaderSize + event.event_id % payload.size()] ^=
          static_cast<char>(0x5A);
      ++expect_bad_crc;
    }
    std::string out;
    FeedFrame(index, frame, event.event_id, now_ns, &out);
    if (expect_bad_crc != 0) {
      std::string clean;
      net::AppendFrame(&clean, net::Verb::kObserveQueryEnd, tenant_id,
                       ++next_seq_, payload);
      FeedFrame(index, clean, event.event_id, now_ns, &out);
    }
    // net.conn.drop_midack: the client vanishes before reading its acks. The
    // admitted work is already done server-side; the connection state and
    // its buffered responses are discarded, and the client's retransmit on a
    // fresh session must be deduplicated by the telemetry gate, not
    // double-ingested.
    if (ROCKHOPPER_BUGGIFY("net.conn.drop_midack")) {
      sessions_[index] = std::make_unique<net::Session>(core_.get());
      out.clear();
      expect_bad_crc = 0;  // any kBadCrc ack died with the connection
      std::string retry;
      net::AppendFrame(&retry, net::Verb::kObserveQueryEnd, tenant_id,
                       ++next_seq_, payload);
      FeedFrame(index, retry, event.event_id, now_ns, &out);
    }
    CheckResponses(out, expect_bad_crc);
  }

 private:
  void FeedFrame(size_t index, const std::string& frame, uint64_t event_id,
                 uint64_t now_ns, std::string* out) {
    net::Session* session = sessions_[index].get();
    bool alive = true;
    if (ROCKHOPPER_BUGGIFY("net.read.slow_loris")) {
      // One byte per read: the decoder must reassemble across 50+ calls.
      for (size_t i = 0; alive && i < frame.size(); ++i) {
        alive = session->OnBytes(frame.data() + i, 1, now_ns, out);
      }
    } else if (frame.size() > 2 && ROCKHOPPER_BUGGIFY("net.frame.torn")) {
      // Split at an event-derived point (no RNG draw — the think-time
      // sequence must not shift) so every boundary gets exercised over a
      // seed sweep, including mid-header cuts.
      const size_t cut = 1 + event_id % (frame.size() - 1);
      alive = session->OnBytes(frame.data(), cut, now_ns, out) &&
              session->OnBytes(frame.data() + cut, frame.size() - cut,
                               now_ns, out);
    } else {
      alive = session->OnBytes(frame.data(), frame.size(), now_ns, out);
    }
    if (!alive) {
      AddViolation(violations_,
                   "wire session fatally closed on a well-formed frame");
      sessions_[index] = std::make_unique<net::Session>(core_.get());
    }
  }

  /// Every delivery must yield exactly its kBadCrc responses (one per
  /// corrupted send) followed by kOk acks — a kBusy or framing error here
  /// means admission fired with no overload signal or session state was
  /// corrupted by the byte-level chaos.
  void CheckResponses(const std::string& out, int expect_bad_crc) {
    net::FrameDecoder decoder;
    decoder.Feed(out.data(), out.size());
    net::Frame response;
    for (;;) {
      const net::DecodeResult result = decoder.Next(&response);
      if (result == net::DecodeResult::kNeedMore) break;
      if (result != net::DecodeResult::kFrame ||
          !response.header.is_response()) {
        AddViolation(violations_, "wire response stream is not well-framed");
        return;
      }
      const auto status = static_cast<net::WireStatus>(response.header.verb);
      if (status == net::WireStatus::kBadCrc && expect_bad_crc > 0) {
        --expect_bad_crc;
        continue;
      }
      if (status != net::WireStatus::kOk) {
        AddViolation(violations_,
                     std::string("unexpected wire response status: ") +
                         net::WireStatusName(status));
        return;
      }
    }
    if (expect_bad_crc != 0) {
      AddViolation(violations_,
                   "corrupted frame was not answered with kBadCrc");
    }
  }

  net::PlanRegistry registry_;
  std::unique_ptr<net::ServerCore> core_;
  std::vector<std::unique_ptr<net::Session>> sessions_;
  std::vector<Tenant>* tenants_;
  std::vector<std::string>* violations_;
  uint32_t next_seq_ = 0;
};

/// Drives tenants against one service with a deterministic virtual-time
/// scheduler: each step executes the earliest-clock tenant (ties break to
/// the lowest index), routes the telemetry through the seeded bus-fault
/// model, and checks the guardrail invariants after every delivery.
class ServiceDriver {
 public:
  ServiceDriver(TuningService* service, std::vector<Tenant>* tenants,
                bool chaos, TraceRecorder* trace,
                std::vector<std::pair<uint64_t, Observation>>* ledger,
                std::vector<std::string>* violations,
                uint64_t* next_event_id)
      : service_(service),
        tenants_(tenants),
        chaos_(chaos),
        trace_(trace),
        ledger_(ledger),
        violations_(violations),
        next_event_id_(next_event_id) {}

  void set_service(TuningService* service) { service_ = service; }
  void set_wire(WireLoop* wire) { wire_ = wire; }

  /// Executes one query on the next-due tenant; false when every tenant has
  /// reached `target_per_tenant` executions.
  bool Step(int target_per_tenant) {
    Tenant* t = nullptr;
    for (Tenant& candidate : *tenants_) {
      if (candidate.executed >= target_per_tenant) continue;
      if (t == nullptr || candidate.clock < t->clock) t = &candidate;
    }
    if (t == nullptr) return false;

    const double expected_size = t->plan.LeafInputBytes(1.0);
    const sparksim::ConfigVector config =
        service_->OnQueryStart(t->plan, expected_size);
    if (trace_ != nullptr) {
      (void)trace_->RecordProposal(t->clock, t->signature, expected_size,
                                   config);
    }
    const sparksim::ExecutionResult result =
        t->sim->ExecuteQuery(t->plan, config, 1.0);
    t->clock += result.runtime_seconds + t->rng.Uniform(0.05, 0.5);
    ++t->executed;

    QueryEndEvent event;
    event.event_id = ++*next_event_id_;
    event.config = config;
    event.data_size = result.input_bytes;
    event.runtime = result.runtime_seconds;
    event.failed = result.failed;
    event.failure = result.failure;

    if (!chaos_) {
      Deliver(*t, event);
      return true;
    }
    const sparksim::TelemetryFault fault =
        t->sim->fault_model().DrawTelemetryFault();
    if (fault.corruption != sparksim::TelemetryFault::Corruption::kNone) {
      event.runtime =
          sparksim::FaultModel::CorruptRuntime(event.runtime, fault.corruption);
    }
    if (fault.drop) return true;  // the bus ate the event before delivery
    if (fault.reorder) {
      // Parks until this tenant's next on-time delivery (or is lost to the
      // crash, like any in-flight bus buffer).
      t->delayed.push_back(event);
      return true;
    }
    Deliver(*t, event);
    if (fault.duplicate) Deliver(*t, event);
    while (!t->delayed.empty()) {
      Deliver(*t, t->delayed.front());
      t->delayed.pop_front();
    }
    return true;
  }

  /// Re-reads every tenant's guardrail counters from the (new) service —
  /// called after recovery, where counters legitimately restart from the
  /// replayed state. Monotonicity is an invariant of one service lifetime.
  void RebaselineGuardrails() {
    for (Tenant& t : *tenants_) {
      auto counts = service_->GuardrailState(t.signature);
      if (counts.ok()) {
        t.last_strikes = counts->strikes;
        t.last_failure_strikes = counts->failure_strikes;
        t.was_disabled = counts->disabled;
      } else {
        t.last_strikes = 0;
        t.last_failure_strikes = 0;
        t.was_disabled = false;
      }
    }
  }

 private:
  void Deliver(Tenant& t, const QueryEndEvent& event) {
    if (trace_ != nullptr) {
      (void)trace_->RecordEndEvent(t.clock, t.signature, event);
    }
    const size_t before = service_->observations().Count(t.signature);
    if (wire_ != nullptr) {
      // Through the framed protocol and Session batching — the same
      // ingestion the socket server performs, minus the socket.
      wire_->Deliver(t, event);
    } else {
      service_->OnQueryEnd(t.plan, event);
    }
    const size_t after = service_->observations().Count(t.signature);
    // Every observation the service accepted lands in the ack ledger, in
    // acceptance order — the ground truth the recovery invariant compares
    // the journal's durable prefix against.
    const std::vector<Observation>& history =
        service_->observations().History(t.signature);
    for (size_t i = before; i < after; ++i) {
      ledger_->emplace_back(t.signature, history[i]);
    }
    CheckGuardrail(t);
  }

  void CheckGuardrail(Tenant& t) {
    auto counts = service_->GuardrailState(t.signature);
    if (!counts.ok()) return;
    // Regression strikes count *consecutive* regressions: one accepted
    // observation moves them by +1 or resets them to 0 (guardrail.cc), and a
    // rejected delivery leaves them untouched. Anything else — a decrease to
    // a nonzero value, a jump by more than one — means guardrail state was
    // corrupted or swapped between signatures.
    const bool strikes_ok = counts->strikes == t.last_strikes ||
                            counts->strikes == t.last_strikes + 1 ||
                            counts->strikes == 0;
    // Failure strikes are sticky across successes: strictly monotone.
    if (!strikes_ok || counts->failure_strikes < t.last_failure_strikes) {
      AddViolation(violations_,
                   "guardrail strike transition invalid for signature " +
                       std::to_string(t.signature) + ": " +
                       std::to_string(t.last_strikes) + "/" +
                       std::to_string(t.last_failure_strikes) + " -> " +
                       std::to_string(counts->strikes) + "/" +
                       std::to_string(counts->failure_strikes));
    }
    if (t.was_disabled && !counts->disabled) {
      AddViolation(violations_, "guardrail disable flag reset for signature " +
                                    std::to_string(t.signature));
    }
    t.last_strikes = counts->strikes;
    t.last_failure_strikes = counts->failure_strikes;
    t.was_disabled = counts->disabled;
  }

  TuningService* service_;
  std::vector<Tenant>* tenants_;
  WireLoop* wire_ = nullptr;
  bool chaos_;
  TraceRecorder* trace_;
  std::vector<std::pair<uint64_t, Observation>>* ledger_;
  std::vector<std::string>* violations_;
  uint64_t* next_event_id_;
};

}  // namespace

std::string SimulationReport::Summary() const {
  std::ostringstream out;
  out << "seed " << seed << (passed() ? ": PASS" : ": FAIL")
      << " executions=" << executions << " delivered=" << delivered
      << " accepted=" << accepted << " rejected=" << rejected
      << " sim_dropped=" << sim_dropped << " appends=" << journal_appends
      << " errors=" << journal_errors << " recovered=" << records_recovered
      << " torn=" << (tail_torn ? 1 : 0) << " signatures=" << signatures
      << " disabled=" << disabled_signatures
      << " tiering=" << (tiering_armed ? 1 : 0)
      << " budget=" << state_budget
      << " ckpts=" << journal_checkpoints
      << " ckpt_seq=" << checkpoint_seq
      << " lazy=" << (lazy_recovery ? 1 : 0)
      << " sweep=" << (sweep_armed ? 1 : 0)
      << " compress=" << (compress_armed ? 1 : 0)
      << " evictions=" << state_evictions
      << " sweep_evictions=" << sweep_evictions
      << " faultins=" << state_faultins
      << " transfer=" << (transfer_armed ? 1 : 0)
      << " transfer_size=" << transfer_index_size
      << " transfer_digest=" << transfer_digest << " buggify="
      << (buggify_enabled ? (buggify_compiled ? "on" : "inert") : "off")
      << " sections_hit=" << buggify_sections_hit
      << " fires=" << buggify_fires
      << " recovered_digest=" << recovered_digest
      << " final_digest=" << final_digest;
  for (const std::string& violation : violations) {
    out << "\n  violation: " << violation;
  }
  return out.str();
}

SimulationReport RunSimulation(const SimulationOptions& options) {
  SimulationReport report;
  report.seed = options.seed;
#if defined(ROCKHOPPER_SIM_ENABLED)
  report.buggify_compiled = true;
#endif
  report.buggify_enabled = options.buggify;

  const uint64_t seed = options.seed;
  common::Rng master(common::SplitMix64(seed ^ 0x73696d2d72756eULL));

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const int num_tenants =
      std::clamp(options.tenants, 1, sparksim::kNumTpchQueries);
  const int per_tenant = std::max(1, options.events_per_tenant);
  const int total = num_tenants * per_tenant;
  const int crash_at = std::clamp(
      static_cast<int>(options.crash_fraction * total), 1, total - 1);

  std::error_code ec;
  const fs::path scratch = options.scratch_dir.empty()
                               ? fs::temp_directory_path() / "rockhopper-sim"
                               : fs::path(options.scratch_dir);
  fs::create_directories(scratch, ec);
  const std::string tag = "sim-" + std::to_string(seed);
  const std::string journal_path = (scratch / (tag + ".journal")).string();
  const std::string crash_path = (scratch / (tag + ".crash.journal")).string();
  const std::string phase2_path = (scratch / (tag + ".phase2.journal")).string();
  const std::string model_dir = (scratch / (tag + "-models")).string();
  const std::string state_dir = (scratch / (tag + "-state")).string();
  const std::string state_dir_twin = (scratch / (tag + "-state-twin")).string();
  RemoveJournalFamily(journal_path);
  RemoveJournalFamily(crash_path);
  RemoveJournalFamily(phase2_path);
  fs::remove_all(model_dir, ec);
  fs::remove_all(state_dir, ec);
  fs::remove_all(state_dir_twin, ec);

  if (options.buggify) {
    BuggifyRegistry::Global().Enable(seed, options.buggify_options);
  }

  // --- tenants: one TPC-H plan each, simulator and bus seeded per
  // (run seed, signature) so adding a tenant never perturbs another's trace.
  std::vector<Tenant> tenants;
  tenants.reserve(static_cast<size_t>(num_tenants));
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= num_tenants; ++q) {
    Tenant t(core::FlightingPipeline::PlanFor(
        core::FlightingConfig::Suite::kTpch, q));
    sparksim::SparkSimulator::Options sim_options;
    sim_options.noise = sparksim::NoiseParams{0.3, 0.3};
    sim_options.faults = options.chaos ? sparksim::FaultParams::Production()
                                       : sparksim::FaultParams::None();
    sim_options.seed = seed ^ t.signature;
    t.sim = std::make_unique<sparksim::SparkSimulator>(sim_options);
    t.rng = common::Rng(
        common::SplitMix64(seed ^ t.signature ^ 0x7468696e6bULL));
    plans.push_back(t.plan);
    tenants.push_back(std::move(t));
  }

  // --- tiered state layer: seed-chosen arming. Declared before the services
  // so the resolver, plan index, and cold-artifact stores outlive every
  // service that holds pointers into them.
  report.tiering_armed =
      (common::SplitMix64(seed ^ 0x74696572696e67ULL) & 1) != 0;
  report.state_budget = static_cast<uint64_t>(32 * 1024)
                        << (common::SplitMix64(seed ^ 0x627564676574ULL) % 4);
  report.checkpoint_armed =
      (common::SplitMix64(seed ^ 0x636b7074ULL) & 1) != 0;
  report.lazy_recovery =
      (common::SplitMix64(seed ^ 0x6c617a79ULL) & 1) != 0;
  // v2 arming: time-based idle sweeping and LZ compression of cold
  // artifacts + delta bodies are each seed-chosen, so the sweep exercises
  // every combination of {budget eviction, idle eviction} × {raw, lz}.
  report.sweep_armed =
      (common::SplitMix64(seed ^ 0x7377656570ULL) & 1) != 0;
  report.compress_armed =
      (common::SplitMix64(seed ^ 0x636f6d7072657373ULL) & 1) != 0;
  std::map<uint64_t, const sparksim::QueryPlan*> plan_index;
  for (const sparksim::QueryPlan& plan : plans) {
    plan_index[plan.Signature()] = &plan;
  }
  const TuningService::PlanResolver resolver =
      [&plan_index](uint64_t signature) -> const sparksim::QueryPlan* {
    auto it = plan_index.find(signature);
    return it == plan_index.end() ? nullptr : it->second;
  };
  core::ModelStore state_store(state_dir);
  core::ModelStore state_store_twin(state_dir_twin);
  // One tier configuration shared by every service in the run (live,
  // recovered, twin) so recovery faces the same encodings and policies the
  // live phase wrote. The full budget goes to the QueryState tier
  // (fraction 1.0) and observation truncation stays off: the ack-ledger
  // invariants index complete per-signature histories. The background
  // sweeper thread stays off too — the driver loop calls SweepStateTier
  // deterministically.
  const auto tier_for = [&](uint64_t budget) {
    core::StateTierOptions tier;
    tier.shared_budget_bytes = budget;
    tier.state_budget_fraction = 1.0;
    tier.observation_window = 0;
    tier.idle_ttl_ticks = report.sweep_armed ? 2 : 0;
    tier.sweep_interval_ms = 0;
    tier.compress_artifacts = report.compress_armed;
    tier.compress_checkpoints = report.compress_armed;
    // Short chain: mid-phase checkpoints grow and collapse the delta chain
    // within a single run.
    tier.max_delta_chain = 3;
    tier.plan_resolver = resolver;
    return tier;
  };

  // --- transfer tier: seed-chosen arming. Every service in the run (live,
  // recovered, twin) shares the same options so recovery rebuilds an index
  // with the same shape.
  report.transfer_armed =
      (common::SplitMix64(seed ^ 0x7472616e73666572ULL) & 1) != 0;
  core::TuningServiceOptions service_options;
  service_options.transfer.enabled = report.transfer_armed;

  TuningService service(space, nullptr, service_options, seed);
  if (report.tiering_armed) {
    service.AttachStateTier(&state_store, tier_for(report.state_budget));
  }

  auto opened = ObservationJournal::Open(journal_path);
  if (!opened.ok()) {
    AddViolation(&report.violations,
                 "cannot open journal: " + opened.status().ToString());
    if (options.buggify) BuggifyRegistry::Global().Disable();
    return report;
  }
  ObservationJournal journal = std::move(*opened);
  service.AttachJournal(&journal);

  TraceRecorder trace;
  TraceRecorder* trace_ptr = nullptr;
  if (!options.trace_path.empty()) {
    auto trace_opened = TraceRecorder::Open(options.trace_path);
    if (trace_opened.ok()) {
      trace = std::move(*trace_opened);
      trace_ptr = &trace;
    } else {
      AddViolation(&report.violations, "cannot open trace: " +
                                           trace_opened.status().ToString());
    }
  }

  uint64_t next_event_id = 0;
  std::vector<std::pair<uint64_t, Observation>> ledger;
  ServiceDriver driver(&service, &tenants, options.chaos, trace_ptr, &ledger,
                       &report.violations, &next_event_id);
  // Every delivery in the run crosses the framed wire protocol, so the
  // socket front end's parsing and batching layers face the same seed sweep
  // as the service. (Traces record the raw event before encoding; replay
  // feeds the service directly and must land in an identical state.)
  WireLoop wire(&service, &tenants, &report.violations);
  driver.set_wire(&wire);

  // --- phase 1: serve until the crash point, publishing a model checkpoint
  // a few times along the way (exercises the store's atomic-rename path and
  // its partial-persist fault section).
  const common::MetricsSnapshot m0 =
      common::MetricsRegistry::Default().Snapshot();
  core::ModelStore models(model_dir);
  std::string last_committed_artifact;
  bool any_model_committed = false;
  int model_checkpoints = 0;
  const int checkpoint_stride = std::max(1, crash_at / 3);
  // Journal checkpoints land on a different stride so they interleave with
  // (rather than shadow) the model-store publications.
  const int journal_ckpt_stride = std::max(1, (2 * crash_at) / 5);
  for (int i = 0; i < crash_at; ++i) {
    if (!driver.Step(per_tenant)) break;
    ++report.executions;
    if ((i + 1) % checkpoint_stride == 0) {
      std::string artifact = "baseline-artifact seed " + std::to_string(seed) +
                             " checkpoint " +
                             std::to_string(++model_checkpoints) + "\n";
      for (int pad = 0; pad < 5; ++pad) artifact += artifact;
      if (models.Put(kModelKey, artifact).ok()) {
        last_committed_artifact = std::move(artifact);
        any_model_committed = true;
      }
    }
    if (report.checkpoint_armed && (i + 1) % journal_ckpt_stride == 0) {
      auto ckpt = service.Checkpoint();
      if (ckpt.ok()) {
        ++report.journal_checkpoints;
      } else if (!options.buggify) {
        AddViolation(&report.violations,
                     "checkpoint failed without fault injection: " +
                         ckpt.status().ToString());
      }
    }
    // Deterministic stand-in for the background sweeper: advance the idle
    // clock and sweep under live ingest, so idle eviction races real
    // traffic in every armed run.
    if (report.tiering_armed && report.sweep_armed && (i + 1) % 3 == 0) {
      report.sweep_evictions += service.SweepStateTier();
    }
  }

  // --- crash: sync to establish the deterministic durable watermark, then
  // snapshot the journal bytes as the "disk" a restarted process would see.
  // A record stuck in the stdio buffer by an injected flush failure is
  // correctly invisible here — that is the lying-fsync data-loss shape.
  const Status sync_status = journal.Sync();
  if (!options.buggify && !sync_status.ok()) {
    AddViolation(&report.violations,
                 "journal sync failed without fault injection: " +
                     sync_status.ToString());
  }
  const common::MetricsSnapshot m1 =
      common::MetricsRegistry::Default().Snapshot();
  const Counts phase1 = CountsBetween(m0, m1);

  std::string crash_bytes = ReadFileOrEmpty(journal_path);
  const bool ends_clean = !crash_bytes.empty() && crash_bytes.back() == '\n';
  const size_t header_end = std::strlen("rockhopper-journal v1") + 1;
  bool torn = false;
  if (ends_clean && phase1.appends >= 1 && master.Bernoulli(0.4)) {
    // Tear strictly inside the final record line: the crash interrupted the
    // write syscall itself. At least one byte of the record survives and the
    // newline never lands, so recovery must drop exactly this record.
    const size_t prev_nl = crash_bytes.rfind('\n', crash_bytes.size() - 2);
    if (prev_nl != std::string::npos && prev_nl + 1 >= header_end) {
      const size_t line_start = prev_nl + 1;
      const size_t cut =
          line_start + 1 +
          static_cast<size_t>(
              master.Index(crash_bytes.size() - line_start - 1));
      crash_bytes.resize(cut);
      torn = true;
    }
  }
  report.tail_torn = torn;
  if (!WriteFile(crash_path, crash_bytes)) {
    AddViolation(&report.violations, "cannot write crash snapshot");
  }
  // The crash image is the whole journal chain, not just the live tail: a
  // restarted process also sees the checkpoint file and the sealed segments
  // the compactor had not yet absorbed. Checkpoints publish by atomic
  // rename and segments are immutable once sealed, so both survive a crash
  // byte-exact — only the live tail can tear.
  const std::string checkpoint_bytes =
      ReadFileOrEmpty(core::CheckpointPath(journal_path));
  if (!checkpoint_bytes.empty() &&
      !WriteFile(core::CheckpointPath(crash_path), checkpoint_bytes)) {
    AddViolation(&report.violations, "cannot write crash checkpoint snapshot");
  }
  // Published deltas are as crash-stable as the full image (tmp+rename);
  // the restarted process sees the whole chain.
  if (auto deltas = core::ListCheckpointDeltas(journal_path); deltas.ok()) {
    for (const auto& [index, delta_path] : *deltas) {
      if (!WriteFile(core::CheckpointDeltaPath(crash_path, index),
                     ReadFileOrEmpty(delta_path))) {
        AddViolation(&report.violations, "cannot write crash delta snapshot");
      }
    }
  }
  if (auto segments = ObservationJournal::ListSegments(journal_path);
      segments.ok()) {
    for (const auto& [index, segment_path] : *segments) {
      if (!WriteFile(crash_path + ".seg-" + std::to_string(index),
                     ReadFileOrEmpty(segment_path))) {
        AddViolation(&report.violations, "cannot write crash segment snapshot");
      }
    }
  }

  // --- invariant: conservation of deliveries (phase 1).
  if (phase1.delivered !=
      phase1.accepted + phase1.rejected + phase1.sim_dropped) {
    AddViolation(&report.violations,
                 "phase-1 delivery conservation broken: delivered " +
                     std::to_string(phase1.delivered) + " != accepted " +
                     std::to_string(phase1.accepted) + " + rejected " +
                     std::to_string(phase1.rejected) + " + sim_dropped " +
                     std::to_string(phase1.sim_dropped));
  }
  if (phase1.accepted != ledger.size()) {
    AddViolation(&report.violations,
                 "accepted counter disagrees with the store: counter " +
                     std::to_string(phase1.accepted) + ", store appends " +
                     std::to_string(ledger.size()));
  }
  if (phase1.appends + phase1.errors != phase1.accepted) {
    AddViolation(&report.violations,
                 "journal accounting broken: appends " +
                     std::to_string(phase1.appends) + " + errors " +
                     std::to_string(phase1.errors) + " != accepted " +
                     std::to_string(phase1.accepted));
  }

  // --- invariant: chain recovery (checkpoint + sealed segments + live
  // tail) preserves every journaled-and-acked observation. Without fault
  // injection the chain equals the exact durable prefix of the ack ledger.
  // With Buggify armed the accounting legitimately loosens: an injected
  // append failure opens a gap (the record was an error, never acked
  // durable), and an injected flush failure can leave a record in the stdio
  // buffer that a later rotation seals into a segment anyway — so the
  // checks weaken to "nothing journaled is lost, nothing unacked
  // resurrects, per-signature acceptance order is preserved".
  const uint64_t expected_records = phase1.appends - (torn ? 1 : 0);
  auto chain = core::RecoverJournalChain(crash_path);
  if (!chain.ok()) {
    AddViolation(&report.violations,
                 "journal chain recovery failed outright: " +
                     chain.status().ToString());
  } else {
    report.records_recovered =
        chain->checkpoint_records + chain->tail_records;
    report.records_dropped = chain->records_dropped;
    report.checkpoint_seq = chain->checkpoint_seq;
    if (!options.buggify && report.records_recovered != expected_records) {
      AddViolation(&report.violations,
                   "recovered record count mismatch: recovered " +
                       std::to_string(report.records_recovered) +
                       ", durable prefix " +
                       std::to_string(expected_records));
    }
    if (report.records_recovered < expected_records) {
      // Holds even under injected faults: every append that returned OK and
      // survived the final sync is in the chain, minus the torn record.
      AddViolation(&report.violations,
                   "chain recovery lost acked records: recovered " +
                       std::to_string(report.records_recovered) +
                       " < durable " + std::to_string(expected_records));
    }
    if (report.records_recovered > ledger.size()) {
      AddViolation(&report.violations,
                   "chain recovered more records than the service accepted");
    }
    const bool expect_data_loss = torn || !ends_clean;
    if (expect_data_loss &&
        chain->tail_status.code() != StatusCode::kDataLoss) {
      AddViolation(&report.violations,
                   "torn tail not reported as data loss: " +
                       chain->tail_status.ToString());
    }
    // Injected mid-segment write failures surface as DataLoss in the chain
    // even when the live tail is clean, so this direction is only checkable
    // without fault injection.
    if (!options.buggify && !expect_data_loss && !chain->tail_status.ok()) {
      AddViolation(&report.violations,
                   "clean journal chain reported unclean: " +
                       chain->tail_status.ToString());
    }
    if (expected_records <= ledger.size()) {
      std::map<uint64_t, std::vector<const Observation*>> acked;
      for (const auto& entry : ledger) {
        acked[entry.first].push_back(&entry.second);
      }
      if (!options.buggify) {
        std::map<uint64_t, std::vector<const Observation*>> durable;
        for (size_t i = 0; i < expected_records; ++i) {
          durable[ledger[i].first].push_back(&ledger[i].second);
        }
        for (const auto& [signature, expected_history] : durable) {
          const std::vector<Observation>& got =
              chain->store.History(signature);
          if (got.size() != expected_history.size()) {
            AddViolation(&report.violations,
                         "signature " + std::to_string(signature) +
                             " recovered " + std::to_string(got.size()) +
                             " observations, expected " +
                             std::to_string(expected_history.size()));
            continue;
          }
          for (size_t i = 0; i < got.size(); ++i) {
            if (!SameObservation(got[i], *expected_history[i])) {
              AddViolation(&report.violations,
                           "signature " + std::to_string(signature) +
                               " observation " + std::to_string(i) +
                               " differs from the acked original");
              break;
            }
          }
        }
      }
      for (uint64_t signature : chain->store.Signatures()) {
        auto it = acked.find(signature);
        if (it == acked.end()) {
          AddViolation(&report.violations,
                       "recovery resurrected unacked signature " +
                           std::to_string(signature));
          continue;
        }
        // Order-preserving subsequence match against the acked sequence:
        // catches corruption, reordering, and fabricated records even when
        // injected append failures opened gaps in the journaled stream.
        const std::vector<Observation>& got =
            chain->store.History(signature);
        size_t next = 0;
        bool in_order = true;
        for (const Observation& obs : got) {
          while (next < it->second.size() &&
                 !SameObservation(obs, *it->second[next])) {
            ++next;
          }
          if (next == it->second.size()) {
            in_order = false;
            break;
          }
          ++next;
        }
        if (!in_order) {
          AddViolation(&report.violations,
                       "signature " + std::to_string(signature) +
                           " recovered history is not an ordered"
                           " subsequence of its acked observations");
        }
      }
    } else {
      AddViolation(&report.violations,
                   "journal acked more records than the service accepted");
    }
  }

  // --- invariant: a restart never reads a torn model artifact — either the
  // last committed checkpoint, byte-exact, or nothing.
  {
    core::ModelStore restarted(model_dir);
    auto artifact = restarted.GetLatest(kModelKey);
    if (any_model_committed) {
      if (!artifact.ok()) {
        AddViolation(&report.violations,
                     "model store lost a committed artifact: " +
                         artifact.status().ToString());
      } else if (*artifact != last_committed_artifact) {
        AddViolation(&report.violations,
                     "model store returned a torn or stale artifact");
      }
    } else if (artifact.ok()) {
      AddViolation(&report.violations,
                   "model store surfaced an artifact no Put committed");
    }
  }

  // --- invariant: recovery is deterministic — two fresh services restoring
  // the surviving journal chain reach bit-identical state even though one
  // restores lazily (seed-chosen) and they evict under different budgets,
  // so different signatures are resident when the digests are taken. The
  // digest faults every cold signature back in, which is exactly the
  // serialize → evict → fault-in round-trip the tiered layer must make
  // invisible.
  TuningService recovered_service(space, nullptr, service_options, seed);
  recovered_service.AttachStateTier(&state_store,
                                    tier_for(report.state_budget));
  {
    TuningService twin(space, nullptr, service_options, seed);
    twin.AttachStateTier(&state_store_twin,
                         tier_for(report.state_budget * 2));
    TuningService::RecoveryOptions lazy_options;
    lazy_options.lazy = report.lazy_recovery;
    auto r1 =
        recovered_service.RecoverFromCheckpoint(crash_path, plans,
                                                lazy_options);
    auto r2 = twin.RecoverFromCheckpoint(crash_path, plans);
    if (!r1.ok() || !r2.ok()) {
      AddViolation(&report.violations,
                   "service recovery failed: " +
                       (r1.ok() ? r2.status() : r1.status()).ToString());
    } else {
      if (r1->unknown_signatures != 0) {
        AddViolation(&report.violations,
                     "recovery met unknown signatures: " +
                         std::to_string(r1->unknown_signatures));
      }
      if (r1->signatures_restored != r2->signatures_restored ||
          r1->observations_replayed != r2->observations_replayed) {
        AddViolation(&report.violations,
                     "lazy and eager recovery disagree: " +
                         std::to_string(r1->signatures_restored) + "/" +
                         std::to_string(r1->observations_replayed) +
                         " vs " + std::to_string(r2->signatures_restored) +
                         "/" + std::to_string(r2->observations_replayed));
      }
      std::vector<uint64_t> signatures;
      for (const sparksim::QueryPlan& plan : plans) {
        signatures.push_back(plan.Signature());
      }
      report.recovered_digest =
          DigestServiceState(recovered_service, signatures);
      const std::string twin_digest = DigestServiceState(twin, signatures);
      if (report.recovered_digest != twin_digest) {
        AddViolation(&report.violations,
                     "recovery is nondeterministic: digest " +
                         report.recovered_digest + " vs " + twin_digest);
      }
      // --- invariant: the transfer index is as deterministic as the tuner
      // state. Digesting faulted every cold signature in (registering its
      // embedding), so by now both replicas must hold the identical content
      // — whether it arrived via eager replay, lazy materialization, or the
      // checkpointed artifact (possibly torn by Buggify) — and their
      // canonical graph rebuilds must match bit-for-bit.
      if (report.transfer_armed &&
          recovered_service.transfer_index() != nullptr &&
          twin.transfer_index() != nullptr) {
        report.transfer_index_size = recovered_service.transfer_index()->Size();
        report.transfer_digest =
            recovered_service.transfer_index()->ContentDigest();
        const std::string twin_content =
            twin.transfer_index()->ContentDigest();
        if (report.transfer_digest != twin_content) {
          AddViolation(&report.violations,
                       "transfer index content diverged: " +
                           report.transfer_digest + " vs " + twin_content);
        } else if (recovered_service.transfer_index()
                       ->CanonicalGraphDigest() !=
                   twin.transfer_index()->CanonicalGraphDigest()) {
          AddViolation(&report.violations,
                       "transfer index graphs diverged on identical content");
        }
      }
    }
  }

  // --- phase 2: the recovered service serves the remaining executions
  // through a fresh journal, then shuts down with Status checking.
  ObservationJournal journal2;
  bool journal2_attached = false;
  if (auto opened2 = ObservationJournal::Open(phase2_path); opened2.ok()) {
    journal2 = std::move(*opened2);
    recovered_service.AttachJournal(&journal2);
    journal2_attached = true;
  } else {
    AddViolation(&report.violations,
                 "cannot open phase-2 journal: " +
                     opened2.status().ToString());
  }
  for (Tenant& t : tenants) {
    // Fresh per-tenant simulators for the restarted world; in-flight
    // (reordered) deliveries died with the old process.
    sparksim::SparkSimulator::Options sim_options;
    sim_options.noise = sparksim::NoiseParams{0.3, 0.3};
    sim_options.faults = options.chaos ? sparksim::FaultParams::Production()
                                       : sparksim::FaultParams::None();
    sim_options.seed = common::SplitMix64(seed ^ t.signature ^ 0x706832ULL);
    t.sim = std::make_unique<sparksim::SparkSimulator>(sim_options);
    t.delayed.clear();
  }
  driver.set_service(&recovered_service);
  wire.Reset(&recovered_service);
  driver.RebaselineGuardrails();
  const size_t ledger_before_phase2 = ledger.size();
  const common::MetricsSnapshot m2 =
      common::MetricsRegistry::Default().Snapshot();
  uint64_t phase2_steps = 0;
  while (driver.Step(per_tenant)) {
    ++report.executions;
    if (report.tiering_armed && report.sweep_armed &&
        (++phase2_steps % 3) == 0) {
      report.sweep_evictions += recovered_service.SweepStateTier();
    }
  }
  const Status shutdown_status = recovered_service.Shutdown();
  if (!options.buggify && !shutdown_status.ok()) {
    AddViolation(&report.violations,
                 "shutdown failed without fault injection: " +
                     shutdown_status.ToString());
  }
  const common::MetricsSnapshot m3 =
      common::MetricsRegistry::Default().Snapshot();
  const Counts phase2 = CountsBetween(m2, m3);

  if (phase2.delivered !=
      phase2.accepted + phase2.rejected + phase2.sim_dropped) {
    AddViolation(&report.violations,
                 "phase-2 delivery conservation broken: delivered " +
                     std::to_string(phase2.delivered) + " != accepted " +
                     std::to_string(phase2.accepted) + " + rejected " +
                     std::to_string(phase2.rejected) + " + sim_dropped " +
                     std::to_string(phase2.sim_dropped));
  }
  if (phase2.accepted != ledger.size() - ledger_before_phase2) {
    AddViolation(&report.violations,
                 "phase-2 accepted counter disagrees with the store");
  }
  if (journal2_attached && phase2.appends + phase2.errors != phase2.accepted) {
    AddViolation(&report.violations,
                 "phase-2 journal accounting broken: appends " +
                     std::to_string(phase2.appends) + " + errors " +
                     std::to_string(phase2.errors) + " != accepted " +
                     std::to_string(phase2.accepted));
  }

  {
    std::vector<uint64_t> signatures;
    for (const sparksim::QueryPlan& plan : plans) {
      signatures.push_back(plan.Signature());
    }
    report.final_digest = DigestServiceState(recovered_service, signatures);
  }
  report.signatures = recovered_service.NumSignatures();
  report.disabled_signatures = recovered_service.NumDisabled();
  const core::TierStats tier_phase1 = service.StateTierStats();
  const core::TierStats tier_recovered = recovered_service.StateTierStats();
  report.state_evictions = tier_phase1.evictions + tier_recovered.evictions;
  report.state_faultins = tier_phase1.faultins + tier_recovered.faultins;

  report.delivered = phase1.delivered + phase2.delivered;
  report.accepted = phase1.accepted + phase2.accepted;
  report.rejected = phase1.rejected + phase2.rejected;
  report.sim_dropped = phase1.sim_dropped + phase2.sim_dropped;
  report.journal_appends = phase1.appends + phase2.appends;
  report.journal_errors = phase1.errors + phase2.errors;

  if (trace_ptr != nullptr) {
    if (Status closed = trace.Close(); !closed.ok()) {
      AddViolation(&report.violations,
                   "trace close failed: " + closed.ToString());
    }
  }
  if (options.buggify) {
    for (const BuggifySectionStats& stats :
         BuggifyRegistry::Global().Snapshot()) {
      if (stats.passes > 0) ++report.buggify_sections_hit;
      report.buggify_fires += stats.fires;
    }
    BuggifyRegistry::Global().Disable();
  }

  (void)journal.Close();
  RemoveJournalFamily(journal_path);
  RemoveJournalFamily(crash_path);
  RemoveJournalFamily(phase2_path);
  fs::remove_all(model_dir, ec);
  fs::remove_all(state_dir, ec);
  fs::remove_all(state_dir_twin, ec);
  return report;
}

}  // namespace rockhopper::sim
