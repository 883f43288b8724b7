#include "core/flighting.h"
#include "sparksim/workloads.h"
#include "tools/cli/cli.h"

namespace rockhopper::cli {

using core::FlightingConfig;

const char kStateTierFlags[] =
    "--memory-budget=BYTES --state-dir=DIR --state-budget-fraction=F "
    "--obs-window=N --idle-ttl=N --sweep-interval-ms=N --compress=true|false";

std::vector<sparksim::QueryPlan> SuitePlans(const std::string& suite) {
  const bool tpch = suite == "tpch";
  const int count =
      tpch ? sparksim::kNumTpchQueries : sparksim::kNumTpcdsQueries;
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= count; ++q) {
    plans.push_back(core::FlightingPipeline::PlanFor(
        tpch ? FlightingConfig::Suite::kTpch : FlightingConfig::Suite::kTpcds,
        q));
  }
  return plans;
}

const sparksim::QueryPlan* ServiceStack::Plan(uint64_t signature) const {
  auto it = plan_index.find(signature);
  return it == plan_index.end() ? nullptr : it->second;
}

Result<std::unique_ptr<ServiceStack>> BuildServiceStack(
    const Flags& flags, const char* default_suite, uint64_t seed,
    const std::string& journal, const core::TuningServiceOptions& service) {
  auto stack = std::make_unique<ServiceStack>();
  stack->plans = SuitePlans(flags.Text("suite", default_suite));
  for (const sparksim::QueryPlan& plan : stack->plans) {
    stack->plan_index[plan.Signature()] = &plan;
  }
  stack->service = std::make_unique<core::TuningService>(
      stack->space, nullptr, service, seed);

  // The budget is split between resident query state and observation
  // history; evicted states spill to --state-dir and fault back in through
  // the suite plans.
  const uint64_t memory_budget =
      static_cast<uint64_t>(flags.Int("memory-budget", 0));
  if (memory_budget > 0 || flags.Int("idle-ttl", 0) > 0 ||
      flags.Bool("lazy-recovery")) {
    core::StateTierOptions tier;
    tier.shared_budget_bytes = memory_budget;
    tier.state_budget_fraction =
        flags.Num("state-budget-fraction", tier.state_budget_fraction);
    tier.observation_window =
        static_cast<size_t>(flags.Int("obs-window", 0));
    tier.idle_ttl_ticks = static_cast<uint64_t>(flags.Int("idle-ttl", 0));
    tier.sweep_interval_ms =
        static_cast<uint64_t>(flags.Int("sweep-interval-ms", 1000));
    tier.compress_artifacts = flags.Bool("compress", true);
    tier.compress_checkpoints = tier.compress_artifacts;
    tier.lazy_recovery = flags.Bool("lazy-recovery");
    const ServiceStack* plans = stack.get();
    tier.plan_resolver = [plans](uint64_t signature) {
      return plans->Plan(signature);
    };
    stack->state_store.emplace(flags.Text("state-dir", "rockhopper-state"));
    stack->service->AttachStateTier(&*stack->state_store, std::move(tier));
  }

  if (!journal.empty()) {
    auto opened = core::ObservationJournal::Open(journal);
    if (!opened.ok()) return opened.status();
    stack->journal = std::move(*opened);
    stack->service->AttachJournal(&stack->journal);
  }
  return stack;
}

}  // namespace rockhopper::cli
