// Micro-benchmarks for the failure-aware ingestion path: what sanitization,
// failure imputation, and the crash-safe journal cost per OnQueryEnd, and
// what the fault model itself costs per execution. The robustness layer sits
// on the telemetry hot path, so its overhead must stay negligible next to a
// query execution.

#include <cstdio>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "core/journal.h"
#include "core/telemetry.h"
#include "core/tuning_service.h"
#include "sparksim/fault.h"
#include "sparksim/workloads.h"

using namespace rockhopper;           // NOLINT(build/namespaces)
using namespace rockhopper::core;     // NOLINT(build/namespaces)
using namespace rockhopper::sparksim; // NOLINT(build/namespaces)

namespace {

QueryEndEvent MakeEvent(const ConfigSpace& space, uint64_t event_id) {
  QueryEndEvent event;
  event.event_id = event_id;
  event.config = space.Defaults();
  event.data_size = 1.0;
  event.runtime = 30.0;
  return event;
}

// Baseline: the trusted path (no event ids, so no dedup bookkeeping).
void BM_OnQueryEndTrusted(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  TuningServiceOptions options;
  options.guardrail.min_iterations = 1 << 30;  // keep the fit out of the loop
  TuningService service(space, nullptr, options, 1);
  const QueryPlan plan = TpchPlan(5);
  const ConfigVector config = space.Defaults();
  for (auto _ : state) {
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(config, 1.0, 30.0));
  }
}
BENCHMARK(BM_OnQueryEndTrusted);

// Sanitized path: full event ingestion with dedup bookkeeping.
void BM_OnQueryEndSanitized(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  TuningServiceOptions options;
  options.guardrail.min_iterations = 1 << 30;
  TuningService service(space, nullptr, options, 1);
  const QueryPlan plan = TpchPlan(5);
  uint64_t event_id = 1;
  for (auto _ : state) {
    service.OnQueryEnd(plan, MakeEvent(space, event_id++));
  }
}
BENCHMARK(BM_OnQueryEndSanitized);

// Sanitized + journaled: each accepted event is CRC'd and flushed to disk.
void BM_OnQueryEndJournaled(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_bench_journal.log")
          .string();
  std::remove(path.c_str());
  auto journal = ObservationJournal::Open(path);
  if (!journal.ok()) {
    state.SkipWithError("cannot open journal");
    return;
  }
  TuningServiceOptions options;
  options.guardrail.min_iterations = 1 << 30;
  TuningService service(space, nullptr, options, 1);
  service.AttachJournal(&*journal);
  const QueryPlan plan = TpchPlan(5);
  uint64_t event_id = 1;
  for (auto _ : state) {
    service.OnQueryEnd(plan, MakeEvent(space, event_id++));
  }
  journal->Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_OnQueryEndJournaled);

// The sanitizer alone (verdict + counters + dedup window).
void BM_SanitizerAdmit(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  TelemetrySanitizer sanitizer;
  uint64_t event_id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sanitizer.Admit(1, MakeEvent(space, event_id++), space));
  }
}
BENCHMARK(BM_SanitizerAdmit);

// One flushed journal append (format + CRC + fwrite, then Sync's fflush).
void BM_JournalAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_bench_append.log")
          .string();
  std::remove(path.c_str());
  auto journal = ObservationJournal::Open(path);
  if (!journal.ok()) {
    state.SkipWithError("cannot open journal");
    return;
  }
  Observation obs;
  obs.config = QueryLevelSpace().Defaults();
  obs.data_size = 1.0;
  obs.runtime = 30.0;
  obs.iteration = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal->Append(1, obs));
    benchmark::DoNotOptimize(journal->Sync());
  }
  journal->Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend);

// The fault model's per-execution draw under the Production preset.
void BM_DrawJobFault(benchmark::State& state) {
  FaultModel model(FaultParams::Production(), 7);
  EffectiveConfig config;
  ExecutionMetrics metrics;
  metrics.shuffle_bytes = 5e10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.DrawJobFault(config, metrics));
  }
}
BENCHMARK(BM_DrawJobFault);

void BM_DrawTelemetryFault(benchmark::State& state) {
  FaultModel model(FaultParams::Production(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.DrawTelemetryFault());
  }
}
BENCHMARK(BM_DrawTelemetryFault);

}  // namespace

BENCHMARK_MAIN();
