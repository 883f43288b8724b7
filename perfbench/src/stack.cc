#include "stack.h"

#include "report.h"

namespace perfbench {

namespace rh = rockhopper;
namespace core = rockhopper::core;
namespace net = rockhopper::net;

core::TuningServiceOptions ServiceOptions(bool transfer) {
  core::TuningServiceOptions options;
  options.transfer.enabled = transfer;
  return options;
}

Stack::Stack(const Population* population, StackOptions options)
    : population_(population), options_(std::move(options)) {}

Stack::~Stack() { (void)Shutdown(); }

rh::Status Stack::Start() {
  const uint64_t t0 = NowNs();
  service_ = std::make_unique<core::TuningService>(
      space_, nullptr, ServiceOptions(options_.transfer), kServiceSeed);
  if (options_.shared_budget_bytes > 0) {
    store_ = std::make_unique<core::ModelStore>(options_.state_dir);
    core::StateTierOptions tier;
    tier.shared_budget_bytes = options_.shared_budget_bytes;
    tier.lazy_recovery = options_.lazy;
    // Room for every delta of a run: a full-image collapse mid-run would
    // rewrite the whole population's checkpoint.
    tier.max_delta_chain = 64;
    const Population* pop = population_;
    tier.plan_resolver = [pop](uint64_t signature) { return pop->Find(signature); };
    // No background sweeper: the workload paces SweepStateTier by work done.
    service_->AttachStateTier(store_.get(), tier);
  }
  if (options_.recover) {
    core::TuningService::RecoveryOptions recovery;
    recovery.lazy = options_.lazy;
    const uint64_t r0 = NowNs();
    auto report = service_->RecoverFromCheckpoint(
        options_.journal_path, options_.lazy ? std::vector<rh::sparksim::QueryPlan>{}
                                             : population_->plans,
        recovery);
    recovery_s_ = static_cast<double>(NowNs() - r0) / 1e9;
    if (!report.ok()) return report.status();
    recovery_ = *report;
  }
  auto journal = core::ObservationJournal::Open(options_.journal_path);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  ROCKHOPPER_RETURN_IF_ERROR(journal_.StartGroupCommit({}));
  service_->AttachJournal(&journal_);

  for (const rh::sparksim::QueryPlan& plan : population_->plans) {
    registry_.Register(&plan);
  }
  net::ServerCoreOptions core_options;
  core_options.tiering_budget_bytes = options_.shared_budget_bytes;
  core_ = std::make_unique<net::ServerCore>(service_.get(), &registry_,
                                            core_options);
  net::ServerOptions server_options;
  server_options.io_threads = 2;  // the server's half of a 4-CPU host
  server_ = std::make_unique<net::Server>(core_.get(), server_options);
  ROCKHOPPER_RETURN_IF_ERROR(server_->Start());
  setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  return rh::Status::OK();
}

void Stack::StopServer() {
  if (server_ != nullptr) server_->Stop();
}

rh::Status Stack::Shutdown() {
  if (shut_down_ || service_ == nullptr) return rh::Status::OK();
  shut_down_ = true;
  StopServer();
  return service_->Shutdown();
}

const rh::common::MetricsSnapshot::Sample* RegistryDelta::Find(
    const rh::common::MetricsSnapshot& snap, const std::string& name,
    const std::string& labels) const {
  const auto* sample = snap.Find(name, labels);
  if (sample == nullptr && &snap == &after_) {
    missing_ += name + "{" + labels + "} ";
  }
  return sample;
}

double RegistryDelta::Count(const std::string& name,
                            const std::string& labels) const {
  const auto* a = Find(before_, name, labels);
  const auto* b = Find(after_, name, labels);
  if (b == nullptr) return 0.0;
  return b->value - (a != nullptr ? a->value : 0.0);
}

double RegistryDelta::HistCount(const std::string& name,
                                const std::string& labels) const {
  const auto* a = Find(before_, name, labels);
  const auto* b = Find(after_, name, labels);
  if (b == nullptr) return 0.0;
  return static_cast<double>(b->count - (a != nullptr ? a->count : 0));
}

double RegistryDelta::HistSum(const std::string& name,
                              const std::string& labels) const {
  const auto* a = Find(before_, name, labels);
  const auto* b = Find(after_, name, labels);
  if (b == nullptr) return 0.0;
  return b->sum - (a != nullptr ? a->sum : 0.0);
}

double RegistryDelta::HistMean(const std::string& name,
                               const std::string& labels) const {
  const double n = HistCount(name, labels);
  return n > 0 ? HistSum(name, labels) / n : 0.0;
}

double RegistryDelta::Gauge(const std::string& name,
                            const std::string& labels) const {
  const auto* b = Find(after_, name, labels);
  return b != nullptr ? b->value : 0.0;
}

}  // namespace perfbench
