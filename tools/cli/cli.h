#ifndef ROCKHOPPER_TOOLS_CLI_CLI_H_
#define ROCKHOPPER_TOOLS_CLI_CLI_H_

// Shared pieces of the `rockhopper` command-line tool: the checked flag
// table every verb parses through, and the one builder that stands up a
// tuning service with its plans, state tier and journal.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "sparksim/config_space.h"
#include "sparksim/plan.h"

namespace rockhopper::cli {

/// The flags of one verb, already checked against the verb's flag list:
/// every name is known and every value has the declared shape. Getters
/// return `fallback` for a flag the command line did not give.
class Flags {
 public:
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  std::string Text(const std::string& name, const std::string& fallback) const;
  int64_t Int(const std::string& name, int64_t fallback) const;
  double Num(const std::string& name, double fallback) const;
  /// The [lo, hi] of an `=A..B` flag (a single N means [N, N]).
  std::optional<std::pair<uint64_t, uint64_t>> Range(
      const std::string& name) const;
  bool Bool(const std::string& name, bool fallback = false) const;
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  friend struct Verb;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// One entry of the verb table. `flags` is both the usage line and the
/// parser's spec: `--name=N` takes an integer, `--name=BYTES` a
/// non-negative integer, `--name=F` a number, `--name=a|b` one of the
/// listed words, `--name=A..B` an inclusive range of non-negative
/// integers, `--name=WORD` any other text, and a bare `--name` (or
/// `--name=true|false`) a boolean. A `<word>` token admits positional
/// arguments.
struct Verb {
  const char* name;
  int (*run)(const Flags&);
  const char* summary;
  std::string flags;

  /// Parses argv[2..] against `flags`. Names the offending argument and
  /// returns nullopt on an unknown flag or a malformed value.
  std::optional<Flags> Parse(int argc, char** argv) const;
};

/// Flags every verb with a state tier accepts (see BuildServiceStack).
extern const char kStateTierFlags[];

/// The plans of the named suite ("tpch" or "tpcds"), in query order.
std::vector<sparksim::QueryPlan> SuitePlans(const std::string& suite);

/// One tuning service and what hangs off it, in dependency order (the
/// service is destroyed first): the suite's plans from --suite, the state
/// tier and its cold-artifact store, and the journal.
struct ServiceStack {
  sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::vector<sparksim::QueryPlan> plans;
  std::map<uint64_t, const sparksim::QueryPlan*> plan_index;
  /// Set when the state tier is armed.
  std::optional<core::ModelStore> state_store;
  /// Open when the builder was given a journal path.
  core::ObservationJournal journal;
  std::unique_ptr<core::TuningService> service;

  /// The suite plan with this signature, or nullptr (the tier's resolver).
  const sparksim::QueryPlan* Plan(uint64_t signature) const;
};

/// Builds the stack over the --suite plans (`default_suite` when absent).
/// The state tier is armed when any of --memory-budget, --idle-ttl or
/// --lazy-recovery asks for it; the remaining kStateTierFlags configure it.
/// A non-empty `journal` is opened in append mode and attached; the build
/// fails with its status when it cannot be opened, and only then.
Result<std::unique_ptr<ServiceStack>> BuildServiceStack(
    const Flags& flags, const char* default_suite, uint64_t seed,
    const std::string& journal = "",
    const core::TuningServiceOptions& service = {});

/// Verb handlers, grouped by family: offline_verbs.cc (flight, tune,
/// report), state_verbs.cc (recover, checkpoint, neighbors), fault_verbs.cc
/// (chaos, simulate, replay, metrics), net_verbs.cc (serve, admin, loadgen).
int RunFlight(const Flags& flags);
int RunTune(const Flags& flags);
int RunReport(const Flags& flags);
int RunRecover(const Flags& flags);
int RunCheckpoint(const Flags& flags);
int RunNeighbors(const Flags& flags);
int RunChaos(const Flags& flags);
int RunSimulate(const Flags& flags);
int RunReplay(const Flags& flags);
int RunMetrics(const Flags& flags);
int RunServe(const Flags& flags);
int RunAdmin(const Flags& flags);
int RunLoadgen(const Flags& flags);

}  // namespace rockhopper::cli

#endif  // ROCKHOPPER_TOOLS_CLI_CLI_H_
