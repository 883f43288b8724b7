#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/crc32.h"
#include "core/tuning_service.h"
#include "net/wire.h"
#include "population.h"
#include "stack.h"
#include "trace.h"
#include "wire_client.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace rh = rockhopper;
namespace core = rockhopper::core;
namespace net = rockhopper::net;
namespace sparksim = rockhopper::sparksim;

// The client: 2 threads, each driving 2 of the 4 connections.
constexpr int kThreads = 2;
constexpr int kConnsPerThread = 2;
constexpr int kSlots = kThreads * kConnsPerThread;

// Open-loop latency limit for the telemetry_flood SLO rate.
constexpr double kSloP99Us = 10000.0;

constexpr double kMiB = 1024.0 * 1024.0;

// Every size of every workload, in one place.
struct Sizes {
  int setups = 5;  // stack set-ups per pass; setup_s is their median

  // tune_loop: N signatures x K iterations, fixed work sized by seconds.
  size_t tune_signatures = 0;
  int tune_iterations = 40;

  // telemetry_flood: pre-warmed population and the offered-rate ladder
  // (requests/s over all 4 shippers), each rung with its share of the pass
  // time. The end-to-end metrics come from the reference rung.
  size_t flood_signatures = 10000;
  int flood_history = 4;
  std::vector<double> flood_rates = {2500.0, 5000.0, 10000.0};
  std::vector<double> flood_rung_share = {0.2, 0.6, 0.2};
  size_t flood_reference_rung = 1;
  double flood_propose_fraction = 0.02;
  int flood_batch = 16;  // events per shipment

  // cold_population: recovered population, new arrivals, traffic size and
  // the shared state budget (a small fraction of the population resident).
  size_t cold_signatures = 100000;
  size_t cold_new = 20000;
  int cold_history = 3;
  size_t cold_steps = 0;
  double cold_new_fraction = 0.05;
  double cold_zipf = 1.0;
  int cold_touch_cap = 6;
  int cold_new_iterations = 3;
  size_t cold_budget_bytes = 96u << 20;
  uint64_t cold_maintenance_steps = 2000;
};

Sizes SizesFor(const RunOptions& o, double pass_seconds) {
  Sizes s;
  if (!o.toy) {
    s.tune_signatures = static_cast<size_t>(400.0 * pass_seconds);
    s.cold_steps = static_cast<size_t>(500.0 * pass_seconds);
    return s;
  }
  s.setups = 2;
  s.tune_signatures = 24;
  s.tune_iterations = 18;
  s.flood_signatures = 400;
  s.flood_history = 2;
  s.flood_rates = {400.0, 800.0, 1600.0};
  s.flood_batch = 8;
  s.cold_signatures = 2000;
  s.cold_new = 400;
  s.cold_history = 2;
  s.cold_steps = 600;
  s.cold_budget_bytes = 1u << 20;
  s.cold_maintenance_steps = 100;
  return s;
}

std::string ChainDir(const RunOptions& o) { return o.workdir + "/chain"; }

// On hosts with at least 4 CPUs the server side (every thread the stack
// spawns, plus the maintenance calls on the main thread) runs on the first
// half of the CPUs and the client threads on the second half, so client and
// server never steal each other's cores.
void PinThread(bool client) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = client ? n / 2 : 0; c < (client ? n : n / 2); ++c) {
    CPU_SET(static_cast<int>(c), &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Shared per-pass bookkeeping

// One answered request: when its response arrived and how long it took.
struct Sample {
  uint64_t done_ns;
  double us;
};

struct Latencies {
  std::vector<Sample> propose;
  std::vector<Sample> observe;
  std::vector<uint64_t> ok_done_ns;  // arrival of every kOk response

  void Append(const Latencies& o) {
    propose.insert(propose.end(), o.propose.begin(), o.propose.end());
    observe.insert(observe.end(), o.observe.begin(), o.observe.end());
    ok_done_ns.insert(ok_done_ns.end(), o.ok_done_ns.begin(), o.ok_done_ns.end());
  }
};

// Timings are reported per time window and summarized by the median across
// windows, so a host hiccup confined to one window cannot move the result.
constexpr int kWindows = 10;
// A window's p99 needs ten samples beyond it.
constexpr size_t kMinWindowSamples = 1000;

// Median over up to kWindows equal slices of the samples' arrival span of
// each slice's `q` quantile. With too few samples for two windows, the
// plain quantile over all of them.
double WindowedPercentile(const std::vector<Sample>& samples, double q) {
  const size_t windows =
      std::min<size_t>(kWindows, samples.size() / kMinWindowSamples);
  std::vector<double> all;
  if (windows < 2) {
    for (const Sample& s : samples) all.push_back(s.us);
    return Percentile(&all, q);
  }
  uint64_t lo = samples.front().done_ns, hi = lo;
  for (const Sample& s : samples) {
    lo = std::min(lo, s.done_ns);
    hi = std::max(hi, s.done_ns);
  }
  const double width = static_cast<double>(hi - lo + 1) / windows;
  std::vector<std::vector<double>> bins(windows);
  for (const Sample& s : samples) {
    bins[static_cast<size_t>(static_cast<double>(s.done_ns - lo) / width)]
        .push_back(s.us);
  }
  std::vector<double> per_window;
  for (std::vector<double>& bin : bins) {
    if (bin.size() >= kMinWindowSamples / 2) {
      per_window.push_back(Percentile(&bin, q));
    }
  }
  return Median(per_window);
}

// Median over kWindows equal slices of the arrival span of the responses
// per second in each slice.
double WindowedRate(const std::vector<uint64_t>& done_ns) {
  if (done_ns.size() < 2) return 0.0;
  const auto [lo, hi] = std::minmax_element(done_ns.begin(), done_ns.end());
  const double width = static_cast<double>(*hi - *lo + 1) / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (uint64_t t : done_ns) {
    counts[static_cast<size_t>(static_cast<double>(t - *lo) / width)] += 1.0;
  }
  for (double& c : counts) c /= width / 1e9;
  return Median(counts);
}

double MeanUs(const std::vector<Sample>& samples) {
  double sum = 0.0;
  for (const Sample& s : samples) sum += s.us;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

struct Counts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  uint64_t accepted = 0;       // observe verdicts kAccept
  uint64_t verdict_mismatch = 0;
  uint64_t out_of_bounds = 0;  // proposed configs outside the space
  uint64_t proposes_ok = 0;

  void Add(const Counts& c) {
    sent += c.sent;
    ok += c.ok;
    busy += c.busy;
    errors += c.errors;
    accepted += c.accepted;
    verdict_mismatch += c.verdict_mismatch;
    out_of_bounds += c.out_of_bounds;
    proposes_ok += c.proposes_ok;
  }
  void Response(net::WireStatus status) {
    if (status == net::WireStatus::kOk) {
      ++ok;
    } else if (status == net::WireStatus::kBusy) {
      ++busy;
    } else {
      ++errors;
    }
  }
};

// What one pass of a workload measured.
struct PassResult {
  Latencies lat;      // the samples the end-to-end metrics come from
  Counts counts;      // every request of the pass (the checks)
  Counts e2e_counts;  // the requests behind the end-to-end metrics
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  bool lazy_recovery = false;
  double elapsed_s = 0.0;       // traffic wall time
  double server_cpu_s = 0.0;    // process CPU minus client threads
  double client_cpu_s = 0.0;
  double speedup_geomean = 0.0;
  size_t speedup_signatures = 0;
  double peak_rss_mib = 0.0;
  std::unique_ptr<RegistryDelta> registry;
  // Service-level reads at the end of the pass.
  double disabled_frac = 0.0;
  double propose_service_us = 0.0;
  double admission_rate_min = 1.0;
  std::vector<double> checkpoint_s;
  std::vector<double> checkpoint_bytes;
  std::vector<double> sweep_s;
  double late_p99_us = 0.0;
  std::map<std::string, SpanRecorder::SelfTime> self_times;
  size_t spans = 0;
  Report extra;  // workload-specific checks and detail values
};

// Per-signature client state. Each signature belongs to one client thread
// (closed loops: to one connection slot), so threads never share an entry.
struct SignatureState {
  sparksim::ConfigVector last_config;  // last proposed (or current) config
  uint32_t touches = 0;
  bool proposed = false;
};

double GeoMeanSpeedup(const Population& pop, const Executor& executor,
                      const std::vector<SignatureState>& state,
                      size_t* counted) {
  double log_sum = 0.0;
  size_t n = 0;
  const sparksim::ConfigVector defaults = executor.space().Defaults();
  for (size_t i = 0; i < state.size(); ++i) {
    if (!state[i].proposed) continue;
    const double base = executor.NoiseFree(pop.plans[i], defaults);
    const double tuned = executor.NoiseFree(pop.plans[i], state[i].last_config);
    if (!(base > 0.0) || !(tuned > 0.0)) continue;
    log_sum += std::log(base / tuned);
    ++n;
  }
  *counted = n;
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

// Stands up `setups` stacks one after another (the earlier ones shut down
// again) and returns the last, live one. Every set-up does identical work.
std::unique_ptr<Stack> SetUp(const Population& pop, const StackOptions& options,
                             int setups, PassResult* result,
                             rh::Status* status) {
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < setups; ++r) {
    stack.reset();
    stack = std::make_unique<Stack>(&pop, options);
    *status = stack->Start();
    if (!status->ok()) return nullptr;
    result->setup_s.push_back(stack->setup_s());
    result->recovery_s.push_back(stack->recovery_s());
    if (r + 1 < setups) {
      *status = stack->Shutdown();
      if (!status->ok()) return nullptr;
    }
  }
  return stack;
}

// A fresh per-pass directory holding the prepared chain (the pass appends
// to its journal and checkpoints into it): the last pass takes the chain
// itself, earlier ones a copy. Ends with sync(2), so neither the chain's
// writes nor an earlier run's deletions are still being flushed while the
// pass is measured.
rh::Status PassDir(const RunOptions& o, int pass, bool with_chain,
                   std::string* dir) {
  *dir = o.workdir + "/pass" + std::to_string(pass);
  std::error_code ec;
  fs::remove_all(*dir, ec);
  const bool last_pass = !o.trace || pass == 1;
  if (with_chain && last_pass) {
    fs::rename(ChainDir(o), *dir, ec);
    if (ec) return rh::Status::IOError("cannot move chain: " + ec.message());
  } else {
    fs::create_directories(*dir, ec);
    if (ec) return rh::Status::IOError("cannot create " + *dir);
    if (with_chain) {
      for (const auto& entry : fs::directory_iterator(ChainDir(o), ec)) {
        fs::copy(entry.path(), fs::path(*dir) / entry.path().filename(), ec);
        if (ec) return rh::Status::IOError("cannot copy chain: " + ec.message());
      }
    }
  }
  ::sync();
  return rh::Status::OK();
}

// ---------------------------------------------------------------------------
// Closed loop (tune_loop, cold_population): each connection slot walks its
// own step list; a step is Propose -> client-side execution of the returned
// config -> ObserveQueryEnd carrying that config and its runtime.

struct ClosedLoopInput {
  uint16_t port = 0;
  const Population* pop = nullptr;
  const Executor* executor = nullptr;
  uint64_t seed = 0;
  std::vector<std::vector<uint32_t>> steps;  // per slot: population indices
  std::vector<SignatureState>* state = nullptr;
  SpanRecorder* spans = nullptr;
  std::atomic<uint64_t>* steps_done = nullptr;
};

struct ThreadOutput {
  Latencies lat;
  Counts counts;
  uint64_t cpu_ns = 0;
  std::vector<double> late_us;
};

void ClosedLoopThread(const ClosedLoopInput& in, int thread, ThreadOutput* out) {
  PinThread(/*client=*/true);
  const uint64_t cpu0 = ThreadCpuNs();
  SpanBuffer* spans = in.spans->NewBuffer();
  struct Slot {
    WireConn conn;
    int id = 0;
    size_t next = 0;
    int phase = 0;  // 0 idle, 1 awaiting propose, 2 awaiting observe
    uint32_t idx = 0;
    uint64_t sent_ns = 0;
    uint64_t request = 0;
    int32_t step_span = -1;
    uint32_t seq = 0;
    bool broken = false;
  };
  Slot slots[kConnsPerThread];
  std::vector<WireConn*> conns;
  for (int c = 0; c < kConnsPerThread; ++c) {
    slots[c].id = thread * kConnsPerThread + c;
    if (!slots[c].conn.Connect(in.port)) {
      slots[c].broken = true;
      continue;
    }
    conns.push_back(&slots[c].conn);
  }
  Counts& counts = out->counts;
  const uint64_t ids = 0x0100000000000000ull;
  auto fail = [&](Slot& s) {
    if (s.phase != 0) ++counts.errors;
    s.phase = 0;
    s.broken = true;
  };
  auto start_step = [&](Slot& s) {
    const std::vector<uint32_t>& steps = in.steps[static_cast<size_t>(s.id)];
    s.idx = steps[s.next];
    s.request = static_cast<uint64_t>(s.id) * ids + s.next + 1;
    ++s.next;
    const sparksim::QueryPlan& plan = in.pop->plans[s.idx];
    s.sent_ns = NowNs();
    s.step_span = spans->Begin("step", s.request, -1, s.sent_ns);
    s.conn.Queue(net::Verb::kPropose, static_cast<uint32_t>(s.id + 1), s.seq++,
                 net::EncodeProposePayload(in.pop->signatures[s.idx],
                                           plan.stats().leaf_bytes));
    ++counts.sent;
    s.phase = 1;
  };
  auto on_response = [&](Slot& s, const WireConn::Response& r) {
    const uint64_t now = NowNs();
    const double us = static_cast<double>(now - s.sent_ns) / 1e3;
    counts.Response(r.status);
    if (r.status == net::WireStatus::kOk) out->lat.ok_done_ns.push_back(now);
    if (s.phase == 1) {
      out->lat.propose.push_back(Sample{now, us});
      spans->Add("propose", s.request, s.step_span, s.sent_ns, now);
      if (r.status != net::WireStatus::kOk) {
        spans->End(s.step_span, now);
        s.phase = 0;
        in.steps_done->fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ++counts.proposes_ok;
      SignatureState& st = (*in.state)[s.idx];
      if (!net::DecodeConfigPayload(
              reinterpret_cast<const uint8_t*>(r.payload.data()),
              r.payload.size(), &st.last_config) ||
          !in.executor->InBounds(st.last_config)) {
        ++counts.out_of_bounds;
      }
      st.proposed = true;
      const uint64_t signature = in.pop->signatures[s.idx];
      rh::common::Rng noise = ExecutionRng(in.seed, signature, st.touches++);
      const Execution run = in.executor->Run(in.pop->plans[s.idx],
                                             st.last_config, &noise);
      core::QueryEndEvent event;
      event.event_id = s.request;
      event.config = st.last_config;
      event.data_size = run.data_size;
      event.runtime = run.runtime;
      event.failed = run.failed;
      event.failure = run.failure;
      const std::string payload = net::EncodeObservePayload(signature, event);
      s.sent_ns = NowNs();
      spans->Add("client.execute", s.request, s.step_span, now, s.sent_ns);
      s.conn.Queue(net::Verb::kObserveQueryEnd,
                   static_cast<uint32_t>(s.id + 1), s.seq++, payload);
      ++counts.sent;
      s.phase = 2;
      return;
    }
    out->lat.observe.push_back(Sample{now, us});
    spans->Add("observe", s.request, s.step_span, s.sent_ns, now);
    spans->End(s.step_span, now);
    s.phase = 0;
    in.steps_done->fetch_add(1, std::memory_order_relaxed);
    core::TelemetryVerdict verdict = core::TelemetryVerdict::kAccept;
    if (r.status == net::WireStatus::kOk) {
      if (!net::DecodeVerdictPayload(
              reinterpret_cast<const uint8_t*>(r.payload.data()),
              r.payload.size(), &verdict) ||
          verdict != core::TelemetryVerdict::kAccept) {
        // Every closed-loop event is well formed and unique: anything but
        // an accept means the service misjudged it.
        ++counts.verdict_mismatch;
      } else {
        ++counts.accepted;
      }
    }
  };

  std::vector<WireConn::Response> responses;
  for (;;) {
    bool active = false;
    for (Slot& s : slots) {
      if (s.broken) continue;
      if (s.phase == 0 && s.next < in.steps[static_cast<size_t>(s.id)].size()) {
        start_step(s);
      }
      if (s.phase != 0) active = true;
    }
    if (!active) break;
    for (Slot& s : slots) {
      if (!s.broken && !s.conn.FlushWrites()) fail(s);
    }
    if (!WaitReady(conns, 50'000'000)) break;
    for (Slot& s : slots) {
      if (s.broken || s.phase == 0) continue;
      if (!s.conn.ReadResponses(&responses)) {
        fail(s);
        continue;
      }
      for (const WireConn::Response& r : responses) on_response(s, r);
    }
  }
  for (Slot& s : slots) {
    // A slot that broke leaves its remaining steps unsent.
    if (s.phase != 0) fail(s);
  }
  out->cpu_ns = ThreadCpuNs() - cpu0;
}

// Runs the closed loop on kThreads threads while `tick` (when given) runs
// on the calling thread each time another `tick_steps` steps completed.
// Maintenance is paced by work done, not by wall time, so a slow run does
// not also do more of it per request.
void RunClosedLoop(const ClosedLoopInput& in, PassResult* result,
                   uint64_t tick_steps, const std::function<void()>& tick) {
  std::vector<ThreadOutput> outs(kThreads);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClosedLoopThread(in, t, &outs[static_cast<size_t>(t)]);
      running.fetch_sub(1);
    });
  }
  uint64_t next_tick = tick_steps;
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (tick && in.steps_done->load() >= next_tick && running.load() > 0) {
      tick();
      next_tick += tick_steps;
    }
  }
  for (std::thread& t : threads) t.join();
  for (ThreadOutput& o : outs) {
    result->counts.Add(o.counts);
    result->client_cpu_s += static_cast<double>(o.cpu_ns) / 1e9;
    result->lat.Append(o.lat);
  }
}

// Direct OnQueryStart timing for the traced pass: the service's own share
// of a proposal, without the wire. Runs after the traffic, on signatures the
// traffic proposed for, so it cannot perturb what was measured.
double TimeDirectProposes(core::TuningService& service, const Population& pop,
                          const std::vector<SignatureState>& state,
                          SpanBuffer* spans) {
  std::vector<double> us;
  for (size_t i = 0; i < state.size() && us.size() < 500; ++i) {
    if (!state[i].proposed) continue;
    const uint64_t t0 = NowNs();
    (void)service.OnQueryStart(pop.plans[i], pop.plans[i].stats().leaf_bytes);
    const uint64_t t1 = NowNs();
    spans->Add("propose.service", 0, -1, t0, t1);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  double sum = 0.0;
  for (double v : us) sum += v;
  return us.empty() ? 0.0 : sum / static_cast<double>(us.size());
}

// Histories, guardrail counters, iteration counts and incumbent centroids
// of `signatures` — the per-signature tuning state a journal replay must
// reproduce. (sim::DigestServiceState also hashes ExplainQuery text, which
// carries service-wide telemetry counters and the last proposal's candidate
// count; a replayed twin never sanitizes or proposes, so that text differs
// by construction.)
std::string TuningStateDigest(const core::TuningService& service,
                              std::vector<uint64_t> signatures) {
  std::sort(signatures.begin(), signatures.end());
  uint32_t crc = 0;
  auto mix = [&crc](const void* data, size_t size) {
    crc = rh::common::Crc32(data, size, crc);
  };
  for (uint64_t signature : signatures) {
    mix(&signature, sizeof(signature));
    for (const core::Observation& obs :
         service.observations().History(signature)) {
      mix(&obs.iteration, sizeof(obs.iteration));
      mix(&obs.failed, sizeof(obs.failed));
      mix(&obs.data_size, sizeof(obs.data_size));
      mix(&obs.runtime, sizeof(obs.runtime));
      mix(obs.config.data(), obs.config.size() * sizeof(double));
    }
    if (auto g = service.GuardrailState(signature); g.ok()) {
      const int v[4] = {g->strikes, g->failure_strikes,
                        g->consecutive_failures, g->disabled ? 1 : 0};
      mix(v, sizeof(v));
    }
    const size_t iterations = service.IterationCount(signature);
    mix(&iterations, sizeof(iterations));
    if (auto c = service.IncumbentConfig(signature); c.ok()) {
      mix(c->data(), c->size() * sizeof(double));
    }
  }
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

// Common end of a pass: drain, shut down, scrape, and read the values every
// workload reports.
void FinishPass(Stack* stack, const Population& pop, const Executor& executor,
                const std::vector<SignatureState>& state,
                const rh::common::MetricsSnapshot& before, uint64_t cpu0,
                uint64_t t0, PassResult* result) {
  result->elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  result->server_cpu_s =
      static_cast<double>(ProcessCpuNs() - cpu0) / 1e9 - result->client_cpu_s;
  result->e2e_counts = result->counts;
  stack->StopServer();
  const rh::Status shutdown = stack->Shutdown();
  result->extra.Check("journal_shutdown", shutdown.ok(), shutdown.ToString());
  result->registry =
      std::make_unique<RegistryDelta>(before, stack->service().Metrics());
  const size_t total = stack->service().NumSignatures();
  result->disabled_frac =
      total > 0 ? static_cast<double>(stack->service().NumDisabled()) /
                      static_cast<double>(total)
                : 0.0;
  result->speedup_geomean =
      GeoMeanSpeedup(pop, executor, state, &result->speedup_signatures);
  result->peak_rss_mib = PeakRssMib();
}

// ---------------------------------------------------------------------------
// tune_loop

PassResult TuneLoopPass(const RunOptions& o, const Sizes& sz, int pass,
                        bool traced) {
  PassResult result;
  const Population pop = MakePopulation(o.seed, sz.tune_signatures);
  const Executor executor;
  std::string dir;
  rh::Status st = PassDir(o, pass, /*with_chain=*/false, &dir);
  StackOptions options;
  options.journal_path = dir + "/journal";
  std::unique_ptr<Stack> stack;
  if (st.ok()) stack = SetUp(pop, options, sz.setups, &result, &st);
  result.extra.Check("stack_start", st.ok(), st.ToString());
  if (!st.ok()) return result;

  ClosedLoopInput in;
  in.port = stack->port();
  in.pop = &pop;
  in.executor = &executor;
  in.seed = o.seed;
  in.steps.resize(kSlots);
  for (int it = 0; it < sz.tune_iterations; ++it) {
    for (uint32_t i = 0; i < pop.plans.size(); ++i) {
      in.steps[i % kSlots].push_back(i);
    }
  }
  std::vector<SignatureState> state(pop.plans.size());
  in.state = &state;
  SpanRecorder spans(traced);
  in.spans = &spans;

  const rh::common::MetricsSnapshot before = stack->service().Metrics();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  std::atomic<uint64_t> steps_done{0};
  in.steps_done = &steps_done;
  std::function<void()> sample_admission;
  if (traced) {
    sample_admission = [&] {
      result.admission_rate_min = std::min(
          result.admission_rate_min,
          stack->service().Metrics().Value("rockhopper_admission_rate"));
    };
  }
  RunClosedLoop(in, &result, 2000, sample_admission);
  FinishPass(stack.get(), pop, executor, state, before, cpu0, t0, &result);

  // The live service against a fresh replay of its own journal, on every
  // 8th signature (the replay refits each one's whole trajectory).
  std::vector<sparksim::QueryPlan> sample_plans;
  std::vector<uint64_t> sample;
  for (size_t i = 0; i < pop.plans.size(); i += 8) {
    sample_plans.push_back(pop.plans[i]);
    sample.push_back(pop.signatures[i]);
  }
  core::TuningService twin(executor.space(), nullptr, ServiceOptions(false),
                           kServiceSeed);
  auto recovered = twin.RecoverFromJournal(options.journal_path, sample_plans);
  const std::string live = TuningStateDigest(stack->service(), sample);
  const std::string replay =
      recovered.ok() ? TuningStateDigest(twin, sample) : "error";
  result.extra.Check("journal_recovery_digest", recovered.ok() && live == replay,
                     "live " + live + " vs recovered " + replay);
  if (traced) {
    result.propose_service_us = TimeDirectProposes(
        stack->service(), pop, state, spans.NewBuffer());
  }
  result.self_times = spans.SelfTimes();
  result.spans = spans.NumSpans();
  if (traced && !o.spans_path.empty()) spans.Write(o.spans_path);
  return result;
}

// ---------------------------------------------------------------------------
// cold_population

// Zipf(s) draws over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += std::pow(static_cast<double>(k + 1), -s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(rh::common::Rng* rng) const {
    const double u = rng->Uniform();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Per slot: Zipf-skewed touches of the recovered signatures it owns (hot
// ranks in a seed-shuffled order, each signature at most touch_cap times)
// mixed with brand-new signatures, each run a few iterations in a row.
std::vector<std::vector<uint32_t>> ColdSteps(const Sizes& sz, uint64_t seed) {
  std::vector<std::vector<uint32_t>> steps(kSlots);
  for (int slot = 0; slot < kSlots; ++slot) {
    std::vector<uint32_t> owned;
    for (size_t i = static_cast<size_t>(slot); i < sz.cold_signatures; i += kSlots) {
      owned.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> fresh;
    for (size_t i = sz.cold_signatures + static_cast<size_t>(slot);
         i < sz.cold_signatures + sz.cold_new; i += kSlots) {
      fresh.push_back(static_cast<uint32_t>(i));
    }
    rh::common::Rng rng(rh::common::SplitMix64(seed ^ (0xc01dull + slot)));
    rng.Shuffle(&owned);
    const Zipf zipf(owned.size(), sz.cold_zipf);
    std::vector<int> touches(owned.size(), 0);
    size_t next_fresh = 0;
    std::vector<uint32_t>& out = steps[static_cast<size_t>(slot)];
    const size_t per_slot = sz.cold_steps / kSlots;
    while (out.size() < per_slot) {
      if (rng.Bernoulli(sz.cold_new_fraction) && next_fresh < fresh.size()) {
        for (int k = 0; k < sz.cold_new_iterations; ++k) {
          out.push_back(fresh[next_fresh]);
        }
        ++next_fresh;
        continue;
      }
      size_t rank = zipf.Draw(&rng);
      for (int retry = 0; retry < 8 && touches[rank] >= sz.cold_touch_cap; ++retry) {
        rank = zipf.Draw(&rng);
      }
      if (touches[rank] >= sz.cold_touch_cap) rank = rng.Index(owned.size());
      ++touches[rank];
      out.push_back(owned[rank]);
    }
    out.resize(per_slot);
  }
  return steps;
}

StackOptions ColdStackOptions(const Sizes& sz, const std::string& dir) {
  StackOptions options;
  options.journal_path = dir + "/journal";
  options.state_dir = dir + "/state";
  options.shared_budget_bytes = sz.cold_budget_bytes;
  options.recover = true;
  options.lazy = true;
  options.transfer = true;
  return options;
}

PassResult ColdPopulationPass(const RunOptions& o, const Sizes& sz, int pass,
                              bool traced) {
  PassResult result;
  const Population pop =
      MakePopulation(o.seed, sz.cold_signatures + sz.cold_new);
  const Executor executor;
  std::string dir;
  rh::Status st = PassDir(o, pass, /*with_chain=*/true, &dir);
  const StackOptions options = ColdStackOptions(sz, dir);
  result.lazy_recovery = true;
  std::unique_ptr<Stack> stack;
  if (st.ok()) stack = SetUp(pop, options, sz.setups, &result, &st);
  result.extra.Check("stack_start", st.ok(), st.ToString());
  if (!st.ok()) return result;
  const core::TuningService::RecoveryReport& rec = stack->recovery();
  result.extra.Check(
      "recovery_complete",
      rec.signatures_restored == sz.cold_signatures &&
          rec.unknown_signatures == 0 && rec.journal_clean,
      "restored " + std::to_string(rec.signatures_restored) + " of " +
          std::to_string(sz.cold_signatures) + ", unknown " +
          std::to_string(rec.unknown_signatures));

  ClosedLoopInput in;
  in.port = stack->port();
  in.pop = &pop;
  in.executor = &executor;
  in.seed = o.seed;
  in.steps = ColdSteps(sz, o.seed);
  std::vector<SignatureState> state(pop.plans.size());
  in.state = &state;
  SpanRecorder spans(traced);
  in.spans = &spans;
  SpanBuffer* main_spans = spans.NewBuffer();

  const rh::common::MetricsSnapshot before = stack->service().Metrics();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  bool checkpoints_ok = true;
  std::atomic<uint64_t> steps_done{0};
  in.steps_done = &steps_done;
  // The state plane's maintenance, as the background sweeper and the
  // periodic checkpointer would run it: one sweep and one incremental
  // checkpoint per cold_maintenance_steps steps.
  RunClosedLoop(in, &result, sz.cold_maintenance_steps, [&] {
    const uint64_t s0 = NowNs();
    stack->service().SweepStateTier();
    const uint64_t c0 = NowNs();
    main_spans->Add("sweep", 0, -1, s0, c0);
    result.sweep_s.push_back(static_cast<double>(c0 - s0) / 1e9);
    auto report = stack->service().Checkpoint();
    const uint64_t c1 = NowNs();
    main_spans->Add("checkpoint", 0, -1, c0, c1);
    checkpoints_ok = checkpoints_ok && report.ok();
    if (report.ok()) {
      result.checkpoint_s.push_back(static_cast<double>(c1 - c0) / 1e9);
      result.checkpoint_bytes.push_back(
          static_cast<double>(report->bytes_written));
    }
    if (traced) {
      result.admission_rate_min = std::min(
          result.admission_rate_min,
          stack->service().Metrics().Value("rockhopper_admission_rate"));
    }
  });
  result.extra.Check("checkpoints", checkpoints_ok, "Checkpoint() failed");
  FinishPass(stack.get(), pop, executor, state, before, cpu0, t0, &result);
  if (traced) {
    result.propose_service_us =
        TimeDirectProposes(stack->service(), pop, state, main_spans);
  }
  result.self_times = spans.SelfTimes();
  result.spans = spans.NumSpans();
  if (traced && !o.spans_path.empty()) spans.Write(o.spans_path);
  return result;
}

// ---------------------------------------------------------------------------
// telemetry_flood: open loop. Each client thread drives one telemetry
// shipper connection (query-end events in Poisson-timed shipments) and one
// proposer connection (query-start Proposes, Poisson-timed): a Spark
// application asking for its config and the telemetry bus reporting its
// runs are separate clients. Requests are timed from
// their scheduled send, so a stall also delays (and is charged to) later
// ones.

constexpr uint8_t kExpectPropose = 0xff;
constexpr uint8_t kExpectAfterOriginal = 0xfe;  // duplicate copy

struct Pending {
  uint64_t sched_ns;
  uint64_t sent_ns;
  uint64_t request;
  uint32_t idx;
  uint8_t expect;  // TelemetryVerdict, or one of the markers above
};

struct RungStats {
  Latencies lat;
  std::vector<double> late_us;
  Counts counts;
  size_t backlog_end = 0;
  uint64_t client_cpu_ns = 0;   // summed over client threads
  uint64_t process_cpu_ns = 0;  // whole process, taken by thread 0
  uint64_t wall_ns = 0;         // taken by thread 0

  void Add(const RungStats& o) {
    lat.Append(o.lat);
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    counts.Add(o.counts);
    backlog_end += o.backlog_end;
    client_cpu_ns += o.client_cpu_ns;
    process_cpu_ns += o.process_cpu_ns;
    wall_ns += o.wall_ns;
  }
};

struct FloodShared {
  uint16_t port = 0;
  const Population* pop = nullptr;
  const Executor* executor = nullptr;
  uint64_t seed = 0;
  const Sizes* sz = nullptr;
  std::vector<double> rung_s;
  std::vector<SignatureState>* state = nullptr;
  SpanRecorder* spans = nullptr;
};

struct FloodThreadOutput {
  std::vector<RungStats> rungs;
  uint64_t cpu_ns = 0;
};

void FloodThread(const FloodShared& in, int thread, std::barrier<>* sync,
                 FloodThreadOutput* out) {
  PinThread(/*client=*/true);
  const uint64_t cpu0 = ThreadCpuNs();
  SpanBuffer* spans = in.spans->NewBuffer();
  struct Shipper {
    WireConn conn;
    int id = 0;
    bool proposer = false;
    rh::common::Rng rng{0};
    std::unique_ptr<sparksim::FaultModel> faults;
    std::vector<uint32_t> owned;
    std::deque<Pending> pending;
    uint64_t next_batch_ns = 0;
    uint64_t next_propose_ns = 0;
    uint32_t seq = 0;
    uint64_t events = 0;
    bool last_original_accepted = false;
    bool broken = false;
  };
  Shipper shippers[kConnsPerThread];
  std::vector<WireConn*> conns;
  for (int c = 0; c < kConnsPerThread; ++c) {
    Shipper& sh = shippers[c];
    sh.id = thread * kConnsPerThread + c;
    sh.proposer = c == 1;
    sh.rng = rh::common::Rng(rh::common::SplitMix64(in.seed ^ (0xf100d + sh.id)));
    sh.faults = std::make_unique<sparksim::FaultModel>(
        sparksim::FaultParams::Production(),
        rh::common::SplitMix64(in.seed ^ (0xfa17 + sh.id)));
    // Both connections of a thread share its signatures, so the config a
    // Propose returns is what that thread's shipper reports next.
    for (size_t i = static_cast<size_t>(thread); i < in.pop->plans.size();
         i += kThreads) {
      sh.owned.push_back(static_cast<uint32_t>(i));
    }
  }
  // Connect in one global order — both shippers, then both proposers — so
  // the server's round-robin puts one shipper and one proposer on each of
  // its event-loop threads in every run (a racy order could stack both
  // shippers on one loop and double its load).
  for (int c = 0; c < kConnsPerThread; ++c) {
    for (int t = 0; t < kThreads; ++t) {
      if (t == thread) {
        Shipper& sh = shippers[c];
        sh.broken = !sh.conn.Connect(in.port);
        if (!sh.broken) conns.push_back(&sh.conn);
      }
      sync->arrive_and_wait();
    }
  }
  out->rungs.resize(in.sz->flood_rates.size());

  size_t rung = 0;
  auto queue = [&](Shipper& sh, net::Verb verb, const std::string& payload,
                   Pending p) {
    sh.conn.Queue(verb, static_cast<uint32_t>(sh.id + 1), sh.seq++, payload);
    sh.pending.push_back(p);
    ++out->rungs[rung].counts.sent;
  };
  // A query-start lookup of shipper `sh`, due at `sched`.
  auto emit_propose = [&](Shipper& sh, uint64_t sched) {
    const uint64_t now = NowNs();
    out->rungs[rung].late_us.push_back(static_cast<double>(now - sched) / 1e3);
    const uint32_t idx = sh.owned[sh.rng.Index(sh.owned.size())];
    const uint64_t request =
        (static_cast<uint64_t>(sh.id + 1) << 48) | ++sh.events;
    queue(sh, net::Verb::kPropose,
          net::EncodeProposePayload(in.pop->signatures[idx],
                                    in.pop->plans[idx].stats().leaf_bytes),
          Pending{sched, now, request, idx, kExpectPropose});
  };
  // One shipment of query-end events, due at `sched`: flood_batch events
  // drawn from the bus's fault model, written to the socket together.
  auto emit_batch = [&](Shipper& sh, uint64_t sched) {
    const uint64_t now = NowNs();
    out->rungs[rung].late_us.push_back(static_cast<double>(now - sched) / 1e3);
    for (int k = 0; k < in.sz->flood_batch; ++k) {
      const uint32_t idx = sh.owned[sh.rng.Index(sh.owned.size())];
      const uint64_t signature = in.pop->signatures[idx];
      const SignatureState& st = (*in.state)[idx];
      const uint64_t request =
          (static_cast<uint64_t>(sh.id + 1) << 48) | ++sh.events;
      const sparksim::TelemetryFault tf = sh.faults->DrawTelemetryFault();
      if (tf.drop) continue;  // lost on the bus: never sent, never attempted
      const Execution run = in.executor->Run(in.pop->plans[idx], st.last_config,
                                             &sh.rng, sh.faults.get());
      core::QueryEndEvent event;
      event.event_id = request;
      event.config = st.last_config;
      event.data_size = run.data_size;
      event.runtime =
          sparksim::FaultModel::CorruptRuntime(run.runtime, tf.corruption);
      event.failed = run.failed;
      event.failure = run.failure;
      // The sanitizer's rules, applied by the shipper that knows the truth.
      core::TelemetryVerdict expect = core::TelemetryVerdict::kAccept;
      if (!std::isfinite(event.runtime)) {
        expect = core::TelemetryVerdict::kRejectNonFinite;
      } else if (!event.failed && event.runtime <= 0.0) {
        expect = core::TelemetryVerdict::kRejectNonPositive;
      }
      const std::string payload = net::EncodeObservePayload(signature, event);
      queue(sh, net::Verb::kObserveQueryEnd, payload,
            Pending{sched, now, request, idx, static_cast<uint8_t>(expect)});
      if (tf.duplicate &&
          tf.corruption == sparksim::TelemetryFault::Corruption::kNone) {
        queue(sh, net::Verb::kObserveQueryEnd, payload,
              Pending{sched, now, request, idx, kExpectAfterOriginal});
      }
    }
  };
  auto on_response = [&](Shipper& sh, const WireConn::Response& r) {
    const uint64_t now = NowNs();
    if (sh.pending.empty()) {
      ++out->rungs[rung].counts.errors;
      return;
    }
    const Pending p = sh.pending.front();
    sh.pending.pop_front();
    RungStats& rs = out->rungs[rung];
    rs.counts.Response(r.status);
    if (r.status == net::WireStatus::kOk) rs.lat.ok_done_ns.push_back(now);
    const double us = static_cast<double>(now - p.sched_ns) / 1e3;
    const int32_t root = spans->Add("request", p.request, -1, p.sched_ns, now);
    spans->Add("client.late", p.request, root, p.sched_ns, p.sent_ns);
    if (p.expect == kExpectPropose) {
      rs.lat.propose.push_back(Sample{now, us});
      if (r.status != net::WireStatus::kOk) return;
      ++rs.counts.proposes_ok;
      SignatureState& st = (*in.state)[p.idx];
      if (!net::DecodeConfigPayload(
              reinterpret_cast<const uint8_t*>(r.payload.data()),
              r.payload.size(), &st.last_config) ||
          !in.executor->InBounds(st.last_config)) {
        ++rs.counts.out_of_bounds;
        st.last_config = in.executor->space().Defaults();
      }
      st.proposed = true;
      return;
    }
    rs.lat.observe.push_back(Sample{now, us});
    const bool is_copy = p.expect == kExpectAfterOriginal;
    if (r.status != net::WireStatus::kOk) {
      if (!is_copy) sh.last_original_accepted = false;
      return;
    }
    core::TelemetryVerdict verdict = core::TelemetryVerdict::kAccept;
    if (!net::DecodeVerdictPayload(
            reinterpret_cast<const uint8_t*>(r.payload.data()),
            r.payload.size(), &verdict)) {
      ++rs.counts.verdict_mismatch;
      return;
    }
    if (verdict == core::TelemetryVerdict::kAccept) ++rs.counts.accepted;
    core::TelemetryVerdict expect = static_cast<core::TelemetryVerdict>(p.expect);
    if (is_copy) {
      expect = sh.last_original_accepted
                   ? core::TelemetryVerdict::kRejectDuplicate
                   : core::TelemetryVerdict::kAccept;
    } else {
      sh.last_original_accepted = verdict == core::TelemetryVerdict::kAccept;
    }
    if (verdict != expect) ++rs.counts.verdict_mismatch;
  };
  std::vector<WireConn::Response> responses;
  auto pump = [&](uint64_t wait_ns) {
    for (Shipper& sh : shippers) {
      if (!sh.broken && !sh.conn.FlushWrites()) sh.broken = true;
    }
    if (!WaitReady(conns, wait_ns)) return;
    for (Shipper& sh : shippers) {
      if (sh.broken) continue;
      if (!sh.conn.ReadResponses(&responses)) {
        sh.broken = true;
        continue;
      }
      for (const WireConn::Response& r : responses) on_response(sh, r);
    }
  };

  for (rung = 0; rung < in.sz->flood_rates.size(); ++rung) {
    sync->arrive_and_wait();
    const uint64_t rung_cpu0 = ThreadCpuNs();
    const uint64_t rung_process0 = ProcessCpuNs();
    // Per client thread: its shipper sends the observe events in shipments
    // of flood_batch, its proposer the Proposes.
    const double events = in.sz->flood_rates[rung] / kThreads;
    const double batches_per_s =
        events * (1.0 - in.sz->flood_propose_fraction) / in.sz->flood_batch;
    const double proposes_per_s = events * in.sz->flood_propose_fraction;
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(in.rung_s[rung] * 1e9);
    auto gap = [](Shipper& sh, double rate) {
      return static_cast<uint64_t>(-std::log(1.0 - sh.rng.Uniform()) / rate *
                                   1e9);
    };
    for (Shipper& sh : shippers) {
      sh.next_batch_ns = sh.proposer ? UINT64_MAX : start + gap(sh, batches_per_s);
      sh.next_propose_ns = sh.proposer ? start + gap(sh, proposes_per_s) : UINT64_MAX;
    }
    for (;;) {
      const uint64_t now = NowNs();
      uint64_t next = end;
      for (Shipper& sh : shippers) {
        for (;;) {
          const bool batch_first = sh.next_batch_ns <= sh.next_propose_ns;
          const uint64_t due = batch_first ? sh.next_batch_ns : sh.next_propose_ns;
          if (sh.broken || due > now || due >= end) break;
          if (batch_first) {
            emit_batch(sh, due);
            sh.next_batch_ns += gap(sh, batches_per_s);
          } else {
            emit_propose(sh, due);
            sh.next_propose_ns += gap(sh, proposes_per_s);
          }
        }
        next = std::min({next, sh.next_batch_ns, sh.next_propose_ns});
      }
      if (now >= end) break;
      pump(next > now ? std::min<uint64_t>(next - now, 1'000'000) : 0);
    }
    // Backlog at the end of the schedule, then drain before the next rung.
    RungStats& rs = out->rungs[rung];
    for (Shipper& sh : shippers) rs.backlog_end += sh.pending.size();
    const uint64_t drain_until = NowNs() + 5'000'000'000ull;
    for (;;) {
      bool pending = false;
      for (Shipper& sh : shippers) pending |= !sh.broken && !sh.pending.empty();
      if (!pending || NowNs() > drain_until) break;
      pump(1'000'000);
    }
    for (Shipper& sh : shippers) {
      // Requests a broken connection never answered are transport failures.
      rs.counts.errors += sh.pending.size();
      sh.pending.clear();
    }
    sync->arrive_and_wait();
    rs.client_cpu_ns = ThreadCpuNs() - rung_cpu0;
    if (thread == 0) {
      rs.process_cpu_ns = ProcessCpuNs() - rung_process0;
      rs.wall_ns = NowNs() - start;
    }
  }
  out->cpu_ns = ThreadCpuNs() - cpu0;
}

PassResult TelemetryFloodPass(const RunOptions& o, const Sizes& sz, int pass,
                              bool traced, double pass_seconds) {
  PassResult result;
  const Population pop = MakePopulation(o.seed, sz.flood_signatures);
  const Executor executor;
  std::string dir;
  rh::Status st = PassDir(o, pass, /*with_chain=*/true, &dir);
  StackOptions options;
  options.journal_path = dir + "/journal";
  options.recover = true;  // eager: every signature pre-warmed at start
  std::unique_ptr<Stack> stack;
  if (st.ok()) stack = SetUp(pop, options, sz.setups, &result, &st);
  result.extra.Check("stack_start", st.ok(), st.ToString());
  if (!st.ok()) return result;
  result.extra.Check(
      "recovery_complete",
      stack->recovery().signatures_restored == sz.flood_signatures,
      "restored " + std::to_string(stack->recovery().signatures_restored));

  std::vector<SignatureState> state(pop.plans.size());
  for (SignatureState& s : state) s.last_config = executor.space().Defaults();
  SpanRecorder spans(traced);
  FloodShared in;
  in.port = stack->port();
  in.pop = &pop;
  in.executor = &executor;
  in.seed = o.seed;
  in.sz = &sz;
  for (double share : sz.flood_rung_share) in.rung_s.push_back(share * pass_seconds);
  in.state = &state;
  in.spans = &spans;

  const rh::common::MetricsSnapshot before = stack->service().Metrics();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  std::barrier<> sync(kThreads);
  std::vector<FloodThreadOutput> outs(kThreads);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FloodThread(in, t, &sync, &outs[static_cast<size_t>(t)]);
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (traced) {
      result.admission_rate_min = std::min(
          result.admission_rate_min,
          stack->service().Metrics().Value("rockhopper_admission_rate"));
    }
  }
  for (std::thread& t : threads) t.join();

  // Merge per rung; the rung table goes to the detail line.
  std::vector<RungStats> rungs(sz.flood_rates.size());
  for (FloodThreadOutput& out : outs) {
    result.client_cpu_s += static_cast<double>(out.cpu_ns) / 1e9;
    for (size_t r = 0; r < rungs.size(); ++r) rungs[r].Add(out.rungs[r]);
  }
  std::vector<double> late_all;
  double slo_rate = 0.0;
  for (size_t r = 0; r < rungs.size(); ++r) {
    RungStats& rs = rungs[r];
    result.counts.Add(rs.counts);
    late_all.insert(late_all.end(), rs.late_us.begin(), rs.late_us.end());
    const std::string prefix = "rung" + std::to_string(r) + ".";
    const double rate = sz.flood_rates[r];
    const double p99 = WindowedPercentile(rs.lat.observe, 0.99);
    result.extra.Detail(prefix + "offered_qps", rate, "1/s");
    result.extra.Detail(prefix + "ok_per_s", WindowedRate(rs.lat.ok_done_ns),
                        "1/s");
    result.extra.Detail(prefix + "observe_p50_us",
                        WindowedPercentile(rs.lat.observe, 0.50), "us");
    result.extra.Detail(prefix + "observe_p99_us", p99, "us");
    result.extra.Detail(prefix + "late_p99_us", Percentile(&rs.late_us, 0.99),
                        "us");
    result.extra.Detail(prefix + "backlog_end", static_cast<double>(rs.backlog_end),
                        "count");
    result.extra.Detail(prefix + "busy", static_cast<double>(rs.counts.busy),
                        "count");
    // Meets the limit, sheds nothing, and leaves no more than one server
    // batch (max_batch = 64) per connection outstanding.
    const bool meets = p99 <= kSloP99Us && rs.counts.busy == 0 &&
                       rs.counts.errors == 0 &&
                       rs.backlog_end <= static_cast<size_t>(kSlots) * 64;
    if (meets) slo_rate = std::max(slo_rate, rate);
  }
  result.extra.Detail("slo_rate_qps", slo_rate, "1/s");
  result.extra.Detail("slo_p99_limit_us", kSloP99Us, "us");
  result.late_p99_us = Percentile(&late_all, 0.99);
  FinishPass(stack.get(), pop, executor, state, before, cpu0, t0, &result);
  // The end-to-end metrics are the reference rung's alone: the rungs
  // around it bracket capacity and only feed the SLO rate.
  const RungStats& ref = rungs[sz.flood_reference_rung];
  result.lat = ref.lat;
  result.e2e_counts = ref.counts;
  result.server_cpu_s =
      static_cast<double>(ref.process_cpu_ns - ref.client_cpu_ns) / 1e9;
  if (traced) {
    result.propose_service_us =
        TimeDirectProposes(stack->service(), pop, state, spans.NewBuffer());
  }
  result.self_times = spans.SelfTimes();
  result.spans = spans.NumSpans();
  if (traced && !o.spans_path.empty()) spans.Write(o.spans_path);
  return result;
}

// ---------------------------------------------------------------------------
// Reporting

// The gated metrics (BENCHMARK.json end_to_end) are the ones that held
// still across identical runs on a shared 4-vCPU host; throughput and the
// latency percentiles swung by 20-90 % there on at least one workload and
// are printed on the detail line instead.
void EndToEnd(const PassResult& p, Report* report) {
  const Counts& c = p.e2e_counts;
  report->Set("setup_s", Median(p.setup_s), "s");
  report->Detail("ok_per_s", WindowedRate(p.lat.ok_done_ns), "1/s");
  report->Detail("propose_p50_us", WindowedPercentile(p.lat.propose, 0.50), "us");
  report->Detail("propose_p99_us", WindowedPercentile(p.lat.propose, 0.99), "us");
  report->Detail("observe_p50_us", WindowedPercentile(p.lat.observe, 0.50), "us");
  report->Detail("observe_p99_us", WindowedPercentile(p.lat.observe, 0.99), "us");
  report->Set("server_cpu_us_per_op",
              p.server_cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(c.ok, 1)),
              "us");
  report->Set("peak_rss_mib", p.peak_rss_mib, "MiB");
  report->Set("speedup_geomean", p.speedup_geomean, "x");
  report->Set("ok_frac",
              static_cast<double>(c.ok) /
                  static_cast<double>(std::max<uint64_t>(c.sent, 1)),
              "frac");
  report->Detail("propose_samples", static_cast<double>(p.lat.propose.size()),
                 "count");
  report->Detail("observe_samples", static_cast<double>(p.lat.observe.size()),
                 "count");
  report->Detail("speedup_signatures", static_cast<double>(p.speedup_signatures),
                 "count");
  report->Detail("elapsed_s", p.elapsed_s, "s");
  report->Detail("client_cpu_s", p.client_cpu_s, "s");
  report->Detail("busy", static_cast<double>(p.counts.busy), "count");
  report->Detail("recovery_s", Median(p.recovery_s), "s");
}

void PerLayer(const PassResult& p, const PassResult& untraced,
              Report* report) {
  const RegistryDelta& d = *p.registry;
  const double us = 1e6;
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto self = [&](const char* name) {
    auto it = p.self_times.find(name);
    return it == p.self_times.end() ? 0.0 : it->second.MeanSelfUs();
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double requests =
      d.Count("rockhopper_net_requests_total", "verb=\"observe_query_end\"") +
      d.Count("rockhopper_net_requests_total", "verb=\"propose\"");
  // net
  report->Set("net.server_us", d.HistMean("rockhopper_net_request_seconds") * us, "us");
  report->Set("net.wait_us.propose",
              MeanUs(p.lat.propose) - p.propose_service_us, "us");
  report->Set("net.wait_us.observe",
              MeanUs(p.lat.observe) - d.HistMean("rockhopper_ingest_seconds") * us,
              "us");
  report->Set("net.batch_size", d.HistMean("rockhopper_net_batch_size"), "count");
  report->Set("net.shed_frac.tenant",
              frac(d.Count("rockhopper_net_shed_total", "layer=\"tenant\""), requests),
              "frac");
  report->Set("net.shed_frac.global",
              frac(d.Count("rockhopper_net_shed_total", "layer=\"global\""), requests),
              "frac");
  report->Set("admission.rate_min", p.admission_rate_min, "frac");
  // core/ingest_pipeline
  const char* stage = "rockhopper_ingest_stage_seconds";
  report->Set("ingest.sanitize_us", d.HistMean(stage, "stage=\"sanitize\"") * us, "us");
  report->Set("ingest.failure_policy_us",
              d.HistMean(stage, "stage=\"failure_policy\"") * us, "us");
  report->Set("ingest.journal_us", d.HistMean(stage, "stage=\"journal\"") * us, "us");
  report->Set("ingest.tune_us", d.HistMean(stage, "stage=\"tune\"") * us, "us");
  report->Set("ingest.accept_frac",
              frac(d.Count("rockhopper_telemetry_events_total", "verdict=\"accepted\""),
                   d.Count("rockhopper_queries_ended_total")),
              "frac");
  // core/journal
  report->Set("journal.flush_us", d.HistMean("rockhopper_journal_flush_seconds") * us, "us");
  report->Set("journal.batch_records", d.HistMean("rockhopper_journal_batch_size"), "count");
  report->Set("journal.appends", d.Count("rockhopper_journal_appends_total"), "count");
  report->Set("journal.errors", d.Count("rockhopper_journal_errors_total"), "count");
  // propose path
  report->Set("propose.service_us", p.propose_service_us, "us");
  report->Set("propose.fallback_frac",
              frac(d.Count("rockhopper_proposals_total", "source=\"fallback\""),
                   d.Count("rockhopper_queries_started_total")),
              "frac");
  // state tier, observation store, compression
  const double faultins = d.Count("rockhopper_state_faultins_total");
  report->Set("state.faultins", faultins, "count");
  report->Set("state.faultin_us", d.HistMean("rockhopper_state_faultin_seconds") * us, "us");
  report->Set("state.resident_hit_frac", requests > 0 ? 1.0 - faultins / requests : 0.0,
              "frac");
  report->Set("state.evictions", d.Count("rockhopper_state_evictions_total"), "count");
  report->Set("state.resident_mib", d.Gauge("rockhopper_state_resident_bytes") / kMiB, "MiB");
  report->Set("obs.resident_mib", d.Gauge("rockhopper_obs_resident_bytes") / kMiB, "MiB");
  report->Set("compress.encode_us", d.HistMean("rockhopper_compress_seconds") * us, "us");
  // transfer
  const double hits = d.Count("rockhopper_transfer_total", "outcome=\"hit\"");
  const double misses = d.Count("rockhopper_transfer_total", "outcome=\"miss\"");
  report->Set("transfer.search_us", d.HistMean("rockhopper_transfer_search_seconds") * us, "us");
  report->Set("transfer.insert_us", d.HistMean("rockhopper_transfer_insert_seconds") * us, "us");
  report->Set("transfer.hit_frac", frac(hits, hits + misses), "frac");
  report->Set("transfer.index_size", d.Gauge("rockhopper_transfer_index_size"), "count");
  // checkpoint / recovery
  const double recovery = Median(p.recovery_s);
  report->Set("recovery.lazy_s", p.lazy_recovery ? recovery : 0.0, "s");
  report->Set("recovery.eager_s", p.lazy_recovery ? 0.0 : recovery, "s");
  report->Set("checkpoint.delta_s", mean(p.checkpoint_s), "s");
  report->Set("state.sweep_s", mean(p.sweep_s), "s");
  report->Set("checkpoint.bytes", mean(p.checkpoint_bytes), "bytes");
  // guardrail
  report->Set("guardrail.disabled_frac", p.disabled_frac, "frac");
  // the benchmark's own client and the recorder
  report->Set("client.execute_us", self("client.execute"), "us");
  report->Set("client.late_p99_us", p.late_p99_us, "us");
  report->Set("trace.spans", static_cast<double>(p.spans), "count");
  const double base = static_cast<double>(std::max<uint64_t>(untraced.counts.ok, 1));
  const double traced_ops = static_cast<double>(std::max<uint64_t>(p.counts.ok, 1));
  report->Set("trace.overhead_frac",
              (p.elapsed_s / traced_ops) / (untraced.elapsed_s / base) - 1.0, "frac");
  report->Check("registry_names_resolve", d.missing().empty(),
                "not in the registry: " + d.missing());
}

void Checks(const PassResult& p, Report* report) {
  for (const auto& [name, problem] : p.extra.checks) {
    report->Check(name, problem.empty(), problem);
  }
  for (const auto& [name, metric] : p.extra.detail) {
    report->Detail(name, metric.value, metric.unit);
  }
  if (!p.registry) return;  // the stack never came up
  const Counts& c = p.counts;
  report->Check("sent_eq_ok_busy_errors", c.sent == c.ok + c.busy + c.errors,
                std::to_string(c.sent) + " sent vs " + std::to_string(c.ok) +
                    "+" + std::to_string(c.busy) + "+" + std::to_string(c.errors));
  report->Check("no_transport_errors", c.errors == 0,
                std::to_string(c.errors) + " errors");
  const double appends = p.registry->Count("rockhopper_journal_appends_total");
  report->Check("accepted_eq_journal_appends",
                static_cast<double>(c.accepted) == appends,
                std::to_string(c.accepted) + " accepted vs " +
                    std::to_string(static_cast<uint64_t>(appends)) + " appends");
  const double journal_errors = p.registry->Count("rockhopper_journal_errors_total");
  report->Check("journal_errors_zero", journal_errors == 0.0,
                std::to_string(journal_errors) + " journal errors");
  report->Check("proposals_in_bounds", c.out_of_bounds == 0,
                std::to_string(c.out_of_bounds) + " proposals outside the space");
  report->Check("verdicts_as_expected", c.verdict_mismatch == 0,
                std::to_string(c.verdict_mismatch) + " unexpected verdicts");
  report->Check("work_done", c.ok > 0 && c.proposes_ok > 0,
                "no successful requests of both verbs");
}

PassResult RunPass(const RunOptions& o, int pass, bool traced,
                   double pass_seconds) {
  const Sizes sz = SizesFor(o, pass_seconds);
  PinThread(/*client=*/false);
  if (o.workload == "tune_loop") return TuneLoopPass(o, sz, pass, traced);
  if (o.workload == "cold_population") {
    return ColdPopulationPass(o, sz, pass, traced);
  }
  return TelemetryFloodPass(o, sz, pass, traced, pass_seconds);
}

}  // namespace

bool KnownWorkload(const std::string& w) {
  return w == "tune_loop" || w == "telemetry_flood" || w == "cold_population";
}

rh::Status Prepare(const RunOptions& o) {
  if (o.workload == "tune_loop") return rh::Status::OK();
  const Sizes sz = SizesFor(o, o.seconds);
  std::error_code ec;
  fs::remove_all(ChainDir(o), ec);
  fs::create_directories(ChainDir(o), ec);
  if (ec) return rh::Status::IOError("cannot create " + ChainDir(o));
  const Executor executor;
  const std::string journal = ChainDir(o) + "/journal";
  if (o.workload == "telemetry_flood") {
    const Population pop = MakePopulation(o.seed, sz.flood_signatures);
    return WriteChain(pop, pop.plans.size(), executor, o.seed, sz.flood_history,
                      journal);
  }
  const Population pop = MakePopulation(o.seed, sz.cold_signatures + sz.cold_new);
  return WriteChain(pop, sz.cold_signatures, executor, o.seed, sz.cold_history,
                    journal);
}

Report Run(const RunOptions& o) {
  Report report;
  if (!o.trace) {
    const PassResult p = RunPass(o, 0, false, o.seconds);
    Checks(p, &report);
    if (p.registry) EndToEnd(p, &report);
    report.attempted = p.counts.sent;
    report.failed = p.counts.errors;
    return report;
  }
  // Traced run: an untraced and a traced pass of half the size each, on
  // fresh stacks; the per-layer numbers come from the traced pass.
  const PassResult plain = RunPass(o, 0, false, o.seconds / 2);
  const PassResult traced = RunPass(o, 1, true, o.seconds / 2);
  Checks(plain, &report);
  Checks(traced, &report);
  if (plain.registry && traced.registry) PerLayer(traced, plain, &report);
  report.attempted = plain.counts.sent + traced.counts.sent;
  report.failed = plain.counts.errors + traced.counts.errors;
  return report;
}

}  // namespace perfbench
