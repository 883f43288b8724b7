#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// The system under test, stood up in process exactly as a deployment runs
// it: TuningService (optionally with the tiered state plane, the transfer
// index, and recovery from a checkpoint chain) behind net::ServerCore and
// net::Server on a loopback port, with a group-commit journal attached.
// The benchmark touches it only through public entry points.

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "net/server.h"
#include "net/server_core.h"
#include "population.h"

namespace perfbench {

struct StackOptions {
  std::string journal_path;
  /// ModelStore root for evicted state (used when the state tier is on).
  std::string state_dir;
  /// > 0 attaches the state tier with this shared resident budget.
  size_t shared_budget_bytes = 0;
  /// Restore from the checkpoint chain at journal_path before serving.
  bool recover = false;
  /// Lazy recovery (tuners materialize on first touch); needs the tier.
  bool lazy = false;
  bool transfer = false;
};

class Stack {
 public:
  Stack(const Population* population, StackOptions options);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Builds the service, recovers, opens the journal and starts listening.
  /// setup_s() covers all of it; recovery_s() the RecoverFromCheckpoint
  /// call alone.
  rockhopper::Status Start();
  double setup_s() const { return setup_s_; }
  double recovery_s() const { return recovery_s_; }
  const rockhopper::core::TuningService::RecoveryReport& recovery() const {
    return recovery_;
  }

  rockhopper::core::TuningService& service() { return *service_; }
  uint16_t port() const { return server_->port(); }

  /// Drains the server (staged batches flush, responses are written).
  void StopServer();
  /// Stops the server if still running, then closes the journal; returns
  /// the journal's sticky first error.
  rockhopper::Status Shutdown();

 private:
  const Population* population_;
  StackOptions options_;
  /// The service keeps a reference to its space.
  const rockhopper::sparksim::ConfigSpace space_ =
      rockhopper::sparksim::QueryLevelSpace();
  double setup_s_ = 0.0;
  double recovery_s_ = 0.0;
  rockhopper::core::TuningService::RecoveryReport recovery_;
  std::unique_ptr<rockhopper::core::ModelStore> store_;
  std::unique_ptr<rockhopper::core::TuningService> service_;
  rockhopper::core::ObservationJournal journal_;
  rockhopper::net::PlanRegistry registry_;
  std::unique_ptr<rockhopper::net::ServerCore> core_;
  std::unique_ptr<rockhopper::net::Server> server_;
  bool shut_down_ = false;
};

/// The service's fixed tuner seed: runs differ only by their inputs.
inline constexpr uint64_t kServiceSeed = 37;

/// Options every stack in the benchmark shares (transfer toggled per
/// workload); a recovery twin must be built with the same ones.
rockhopper::core::TuningServiceOptions ServiceOptions(bool transfer);

/// Differences of the service's metric registry between two scrapes.
class RegistryDelta {
 public:
  RegistryDelta(rockhopper::common::MetricsSnapshot before,
                rockhopper::common::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  /// Counter increase.
  double Count(const std::string& name, const std::string& labels = "") const;
  /// Histogram observations added / their summed value.
  double HistCount(const std::string& name,
                   const std::string& labels = "") const;
  double HistSum(const std::string& name, const std::string& labels = "") const;
  /// Mean of the observations added between the scrapes (0 when none).
  double HistMean(const std::string& name,
                  const std::string& labels = "") const;
  /// Gauge value at the second scrape.
  double Gauge(const std::string& name, const std::string& labels = "") const;
  /// Names looked up above that the registry does not have (a renamed
  /// metric must fail the run, not read as zero).
  const std::string& missing() const { return missing_; }

 private:
  const rockhopper::common::MetricsSnapshot::Sample* Find(
      const rockhopper::common::MetricsSnapshot& snap, const std::string& name,
      const std::string& labels) const;
  mutable std::string missing_;
  rockhopper::common::MetricsSnapshot before_;
  rockhopper::common::MetricsSnapshot after_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
