// The journal-chain verbs: restore a service from checkpoint + deltas +
// sealed segments + live tail, compact a journal offline, and inspect the
// transfer tier's neighbours of a recovered signature.

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "core/checkpoint.h"
#include "core/embedding.h"
#include "core/transfer.h"
#include "tools/cli/cli.h"

namespace rockhopper::cli {

using namespace rockhopper::core;  // NOLINT(build/namespaces)

int RunRecover(const Flags& flags) {
  const std::string journal_path = flags.Text("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "recover requires --journal=FILE\n");
    return 1;
  }
  auto built = BuildServiceStack(flags, "tpch",
                                 static_cast<uint64_t>(flags.Int("seed", 31)));
  ServiceStack& stack = **built;
  TuningService& service = *stack.service;
  // --lazy-recovery restores signatures as cold pointers that fault in on
  // first touch instead of decoding everything up front — the
  // bounded-memory restart path.
  TuningService::RecoveryOptions recovery;
  recovery.lazy =
      stack.state_store && service.state_tier_options().lazy_recovery;
  auto report =
      service.RecoverFromCheckpoint(journal_path, stack.plans, recovery);
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "no journal at %s\n", journal_path.c_str());
    } else {
      std::fprintf(stderr, "recovery failed: %s\n",
                   report.status().ToString().c_str());
    }
    return 1;
  }
  // The tail status distinguishes a clean shutdown from recovered-around
  // damage: kDataLoss means bytes were dropped and re-running recover will
  // not bring them back.
  if (report->journal_status.ok()) {
    std::printf("journal %s: clean\n", journal_path.c_str());
  } else if (report->journal_status.code() == StatusCode::kDataLoss) {
    std::printf("journal %s: recovered around damaged tail (%s)\n",
                journal_path.c_str(),
                report->journal_status.ToString().c_str());
  } else {
    std::printf("journal %s: %s\n", journal_path.c_str(),
                report->journal_status.ToString().c_str());
  }
  std::printf("checkpoint seq %" PRIu64 "; replayed tail of %zu records "
              "across %zu sealed segments + live journal\n",
              report->checkpoint_seq, report->tail_records,
              report->segments_replayed);
  std::printf("recovered %zu signatures, %zu observations (%zu dropped, "
              "%zu unknown signatures)\n",
              report->signatures_restored, report->observations_replayed,
              report->observations_dropped, report->unknown_signatures);
  for (const sparksim::QueryPlan& plan : stack.plans) {
    const size_t n = service.IterationCount(plan.Signature());
    if (n == 0) continue;
    std::printf("  signature %" PRIu64 ": %zu iterations, tuning %s\n",
                plan.Signature(), n,
                service.IsTuningEnabled(plan.Signature()) ? "enabled"
                                                          : "disabled");
  }
  return 0;
}

// Operator debugging of bad warm starts: recover a service from the journal
// chain with the transfer tier armed, then print the signature's k nearest
// registered neighbors — raw and normalized embedding distance plus the
// incumbent config the zero-execution recommendation would blend from.
// Uses the exact scan (not HNSW) so the output is the ground truth the
// approximate search is measured against.
int RunNeighbors(const Flags& flags) {
  const std::string journal_path = flags.Text("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "neighbors requires --journal=FILE\n");
    return 1;
  }
  std::string signature_text = flags.Text("signature", "");
  if (signature_text.empty() && !flags.positional().empty()) {
    signature_text = flags.positional().front();
  }
  if (signature_text.empty()) {
    std::fprintf(stderr,
                 "usage: rockhopper neighbors <signature> --journal=FILE "
                 "[--suite=tpch|tpcds] [--k=N]\n");
    return 1;
  }
  char* end = nullptr;
  const uint64_t signature =
      std::strtoull(signature_text.c_str(), &end, 10);
  if (end == signature_text.c_str() || *end != '\0') {
    std::fprintf(stderr, "neighbors: '%s' is not a signature\n",
                 signature_text.c_str());
    return 1;
  }

  TuningServiceOptions options;
  options.transfer.enabled = true;
  auto built = BuildServiceStack(
      flags, "tpch", static_cast<uint64_t>(flags.Int("seed", 31)), "", options);
  ServiceStack& stack = **built;
  TuningService& service = *stack.service;
  auto report = service.RecoverFromCheckpoint(journal_path, stack.plans);
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const sparksim::QueryPlan* query_plan = stack.Plan(signature);
  if (query_plan == nullptr) {
    std::fprintf(stderr,
                 "signature %" PRIu64
                 " is not in suite %s; recovered signatures:\n",
                 signature, flags.Text("suite", "tpch").c_str());
    for (const sparksim::QueryPlan& plan : stack.plans) {
      if (service.IterationCount(plan.Signature()) == 0) continue;
      std::fprintf(stderr, "  %" PRIu64 "\n", plan.Signature());
    }
    return 1;
  }

  const std::vector<double> embedding =
      ComputeEmbedding(*query_plan, options.embedding);
  const size_t k = static_cast<size_t>(flags.Int("k", 8));
  const std::vector<TransferNeighbor> neighbors =
      service.transfer_index()->ExactNeighbors(embedding, k, signature);
  std::printf("signature %" PRIu64 ": %zu nearest of %zu registered "
              "(radius %.2f normalized)\n",
              signature, neighbors.size(), service.transfer_index()->Size(),
              options.transfer.max_distance);
  for (const TransferNeighbor& n : neighbors) {
    std::printf("  signature %" PRIu64 "  distance=%.4f  normalized=%.4f  "
                "iterations=%zu  tuning %s\n",
                n.signature, n.distance, n.normalized_distance,
                service.IterationCount(n.signature),
                service.IsTuningEnabled(n.signature) ? "enabled" : "disabled");
    auto incumbent = service.IncumbentConfig(n.signature);
    if (!incumbent.ok()) {
      std::printf("    incumbent unavailable: %s\n",
                  incumbent.status().ToString().c_str());
      continue;
    }
    std::printf("    incumbent:");
    for (size_t i = 0; i < stack.space.size() && i < incumbent->size(); ++i) {
      std::printf(" %s=%g", stack.space.param(i).name.c_str(), (*incumbent)[i]);
    }
    std::printf("\n");
  }
  return 0;
}

// Offline journal compaction: seal the live file behind a rotation barrier,
// absorb the sealed segments into the checkpoint, truncate the absorbed
// prefix. Safe to re-run; a crashed previous compaction is finished.
int RunCheckpoint(const Flags& flags) {
  const std::string journal_path = flags.Text("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "checkpoint requires --journal=FILE\n");
    return 1;
  }
  // Open would create an empty journal; an explicit miss is more useful.
  if (!std::filesystem::exists(journal_path)) {
    std::fprintf(stderr, "no journal at %s\n", journal_path.c_str());
    return 1;
  }
  auto opened = ObservationJournal::Open(journal_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open journal: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ObservationJournal journal = std::move(*opened);
  auto report = CheckpointLive(&journal);
  const Status closed = journal.Close();
  if (!report.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!closed.ok()) {
    std::fprintf(stderr, "journal close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint %s: seq %" PRIu64 ", %zu records (%zu segments "
              "absorbed, %zu torn records dropped)\n",
              report->checkpoint_path.c_str(), report->last_segment,
              report->records, report->segments_absorbed,
              report->records_dropped);
  return 0;
}

}  // namespace rockhopper::cli
