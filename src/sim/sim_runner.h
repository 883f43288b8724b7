#ifndef ROCKHOPPER_SIM_SIM_RUNNER_H_
#define ROCKHOPPER_SIM_SIM_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/buggify.h"

namespace rockhopper::sim {

/// Parameters of one whole-service simulation run. Everything the run does —
/// tenant scheduling, simulated executions, telemetry-bus faults, Buggify
/// fault sections, the crash point, the torn-tail shape — derives from
/// `seed`, so a failing seed reproduces from its number alone.
struct SimulationOptions {
  uint64_t seed = 1;
  /// Concurrent tenants (distinct TPC-H query signatures), clamped to the
  /// suite size. The scheduler interleaves them on a virtual clock.
  int tenants = 4;
  /// Query executions per tenant across both phases.
  int events_per_tenant = 32;
  /// Fraction of total executions delivered before the simulated process
  /// crash (clamped so both phases run at least one event).
  double crash_fraction = 0.6;
  /// Arms the Buggify registry for this run's seed. Only effective in
  /// ROCKHOPPER_SIM builds; elsewhere the sections are compiled to `false`.
  bool buggify = true;
  /// Section probabilities while armed. The sim default activates sections
  /// aggressively (every run should exercise some faults) but fires
  /// per-encounter rarely (so runs still make progress).
  BuggifyOptions buggify_options{/*activate_probability=*/0.5,
                                 /*fire_probability=*/0.08};
  /// Telemetry-bus faults (drop/duplicate/reorder/corrupt) plus the
  /// simulator's production job-fault preset.
  bool chaos = true;
  /// Working directory for journals and model artifacts; default
  /// <tmp>/rockhopper-sim. Files are per-seed and removed on completion.
  std::string scratch_dir;
  /// When set, record every proposal and delivery to this trace file
  /// (sim/trace.h) for later `rockhopper replay`.
  std::string trace_path;
};

/// Everything one run observed, plus the invariant verdict. All fields are
/// pure functions of the seed and options — Summary() of two runs of the
/// same seed is byte-identical, which is what the reproducibility gate in
/// tools/run_simulation_sweep.sh asserts.
struct SimulationReport {
  uint64_t seed = 0;

  // Whole-run telemetry accounting (both phases, from metric deltas).
  uint64_t executions = 0;     ///< simulated query executions
  uint64_t delivered = 0;      ///< OnQueryEnd deliveries (dups/redeliveries in)
  uint64_t accepted = 0;       ///< sanitizer-accepted observations
  uint64_t rejected = 0;       ///< sanitizer-rejected deliveries
  uint64_t sim_dropped = 0;    ///< deliveries swallowed by injected drops
  uint64_t journal_appends = 0;
  uint64_t journal_errors = 0;

  // Crash / recovery.
  uint64_t records_recovered = 0;
  uint64_t records_dropped = 0;  ///< dropped by chain recovery around damage
  bool tail_torn = false;        ///< the crash tore the final record
  std::string recovered_digest;  ///< service state digest after recovery
  std::string final_digest;      ///< digest after phase 2 + shutdown

  // Tiered state layer (seed-chosen arming; see docs/ARCHITECTURE.md).
  bool tiering_armed = false;      ///< phase 1 ran with an eviction budget
  bool checkpoint_armed = false;   ///< phase 1 took journal checkpoints
  bool lazy_recovery = false;      ///< recovered service used lazy restore
  bool sweep_armed = false;        ///< time-based idle eviction ran
  bool compress_armed = false;     ///< cold artifacts / deltas LZ-encoded
  uint64_t state_budget = 0;       ///< resident-bytes budget when armed
  uint64_t journal_checkpoints = 0;  ///< successful Checkpoint() calls
  uint64_t sweep_evictions = 0;      ///< idle-TTL evictions across phases
  uint64_t checkpoint_seq = 0;       ///< chain recovery's checkpoint seq
  uint64_t state_evictions = 0;      ///< evictions across both services
  uint64_t state_faultins = 0;       ///< fault-ins across both services

  // Transfer tier (seed-chosen arming; see core/transfer.h).
  bool transfer_armed = false;  ///< services ran with the HNSW transfer tier
  uint64_t transfer_index_size = 0;  ///< signatures indexed after recovery
  std::string transfer_digest;       ///< recovered index content digest

  size_t signatures = 0;
  size_t disabled_signatures = 0;

  bool buggify_compiled = false;  ///< ROCKHOPPER_SIM build
  bool buggify_enabled = false;   ///< registry armed for this run
  uint64_t buggify_sections_hit = 0;  ///< sections encountered while armed
  uint64_t buggify_fires = 0;         ///< total injected faults

  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;

  bool passed() const { return violations.empty(); }
  /// One-line deterministic summary (no wall-clock, no pointers): identical
  /// across re-runs of the same seed, in-process sweeps included.
  std::string Summary() const;
};

/// Runs the whole multi-tenant service deterministically from one seed:
///
///   phase 1  N tenants interleaved on a virtual clock drive one shared
///            TuningService through simulated executions and a faulty
///            telemetry bus, journaling every accepted observation, with
///            Buggify sections armed; on a
///            seed-chosen subset of runs the tiered state layer is armed
///            (cold-signature eviction under a resident-bytes budget) and
///            journal checkpoints compact the log mid-phase;
///   crash    the "process" dies: the live journal is snapshotted at its
///            synced watermark (final record sometimes torn mid-line,
///            seed-chosen) together with the checkpoint file and sealed
///            segments — the full chain a restarted process would see;
///   recover  two fresh services restore the chain via
///            RecoverFromCheckpoint — one lazy (seed-chosen) with the run's
///            eviction budget, one eager with a different budget — and
///            their state digests must match (recovery is deterministic
///            regardless of restore mode or which signatures are resident);
///            the chain-recovered observations must be consistent with the
///            acked ledger (nothing journaled-and-acked is lost, nothing
///            unacked resurrects, per-signature order preserved);
///   phase 2  the recovered service serves the remaining executions through
///            a fresh journal — faulting cold signatures back in under live
///            traffic — then shuts down through Status-checked Sync/Close.
///
/// Cross-layer invariants checked throughout (see docs/FAULT_MODEL.md):
/// guardrail strike transitions (consecutive regression strikes move +1 or
/// reset; failure strikes and the disable flag are sticky),
/// delivered == accepted + rejected +
/// sim-dropped, appends + errors == accepted, recovered state equality, and
/// model-store readers never observing a torn artifact.
SimulationReport RunSimulation(const SimulationOptions& options);

}  // namespace rockhopper::sim

#endif  // ROCKHOPPER_SIM_SIM_RUNNER_H_
