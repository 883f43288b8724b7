// rockhopper — command-line driver for the library, the shape of the
// paper's operational tooling: offline flighting and online tuning (§4.2,
// §5), posterior analysis (§6.3), crash recovery and journal compaction,
// fault injection and deterministic simulation, and the multi-tenant wire
// server with its load generator. `rockhopper` without a verb lists them.
// Every run is deterministic given --seed (serve: per-signature streams
// are seed-deterministic; thread interleaving varies).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "tools/cli/cli.h"

namespace rockhopper::cli {
namespace {

template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// "A..B" (inclusive, A <= B) or a single "N".
std::optional<std::pair<uint64_t, uint64_t>> ParseRange(
    const std::string& text) {
  const size_t dots = text.find("..");
  const std::optional<uint64_t> lo =
      ParseNumber<uint64_t>(text.substr(0, dots));
  const std::optional<uint64_t> hi =
      dots == std::string::npos ? lo
                                : ParseNumber<uint64_t>(text.substr(dots + 2));
  if (!lo || !hi || *lo > *hi) return std::nullopt;
  return std::pair(*lo, *hi);
}

// Whether `value` fits the placeholder of `--name=PLACEHOLDER` (see Verb).
bool Fits(const std::string& placeholder, const std::string& value) {
  if (placeholder.empty() || placeholder == "true|false") {
    return value == "true" || value == "false";
  }
  if (placeholder == "N" || placeholder == "BYTES") {
    const std::optional<int64_t> number = ParseNumber<int64_t>(value);
    return number && (placeholder == "N" || *number >= 0);
  }
  if (placeholder == "A..B") return ParseRange(value).has_value();
  if (placeholder == "F") {
    const std::optional<double> number = ParseNumber<double>(value);
    return number && std::isfinite(*number);
  }
  if (placeholder.find('|') != std::string::npos) {
    return ("|" + placeholder + "|").find("|" + value + "|") !=
           std::string::npos;
  }
  return true;
}

}  // namespace

std::string Flags::Text(const std::string& name,
                        const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::Int(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : *ParseNumber<int64_t>(it->second);
}

double Flags::Num(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : *ParseNumber<double>(it->second);
}

std::optional<std::pair<uint64_t, uint64_t>> Flags::Range(
    const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::nullopt : ParseRange(it->second);
}

bool Flags::Bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second == "true";
}

std::optional<Flags> Verb::Parse(int argc, char** argv) const {
  std::map<std::string, std::string> placeholders;
  bool takes_positional = false;
  std::istringstream tokens(flags);
  for (std::string token; tokens >> token;) {
    if (token.rfind("--", 0) != 0) {
      takes_positional = true;
      continue;
    }
    const size_t eq = token.find('=');
    placeholders[token.substr(2, eq == std::string::npos ? eq : eq - 2)] =
        eq == std::string::npos ? "" : token.substr(eq + 1);
  }

  Flags parsed;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!takes_positional) {
        std::fprintf(stderr, "rockhopper %s: unexpected argument '%s'\n",
                     name, arg.c_str());
        return std::nullopt;
      }
      parsed.positional_.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string flag =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    auto spec = placeholders.find(flag);
    if (spec == placeholders.end()) {
      std::fprintf(stderr, "rockhopper %s: unknown flag --%s\n", name,
                   flag.c_str());
      return std::nullopt;
    }
    const bool boolean = spec->second.empty() || spec->second == "true|false";
    if (eq == std::string::npos && !boolean) {
      std::fprintf(stderr, "rockhopper %s: --%s needs a value (--%s=%s)\n",
                   name, flag.c_str(), flag.c_str(), spec->second.c_str());
      return std::nullopt;
    }
    const std::string value =
        eq == std::string::npos ? "true" : arg.substr(eq + 1);
    if (!Fits(spec->second, value)) {
      std::fprintf(stderr, "rockhopper %s: malformed --%s=%s (want %s)\n",
                   name, flag.c_str(), value.c_str(),
                   boolean ? "true|false" : spec->second.c_str());
      return std::nullopt;
    }
    parsed.values_[flag] = value;
  }
  return parsed;
}

}  // namespace rockhopper::cli

namespace {

using rockhopper::cli::Verb;
using rockhopper::cli::kStateTierFlags;
namespace cli = rockhopper::cli;

const Verb kVerbs[] = {
    {"flight", cli::RunFlight,
     "run offline flighting, train + store the baseline model",
     "--suite=tpch|tpcds --configs=N --runs=N --generation=Random|LHS "
     "--max-samples=N --out=DIR --seed=N"},
    {"tune", cli::RunTune, "tune a suite online with the stored baseline",
     "--suite=tpch|tpcds --iters=N --model-dir=DIR --fl=F --sl=F "
     "--events=FILE --seed=N"},
    {"report", cli::RunReport,
     "print per-signature monitoring dashboards from an event log",
     "--events=FILE"},
    {"chaos", cli::RunChaos,
     "tune under injected production faults; --seeds sweeps a range and "
     "exits non-zero with the first violating seed",
     "--suite=tpch|tpcds --iters=N --fl=F --sl=F --journal=FILE --seed=N "
     "--seeds=A..B"},
    {"simulate", cli::RunSimulate,
     "run the deterministic whole-service simulation harness",
     "--seed=N --seeds=A..B --tenants=N --events=N --crash-frac=F "
     "--no-buggify --no-chaos --scratch=DIR --trace=FILE"},
    {"replay", cli::RunReplay,
     "replay a recorded simulation trace twice, verify identical state",
     "--trace=FILE --suite=tpch|tpcds --seed=N"},
    {"recover", cli::RunRecover,
     "restore tuning state from the journal chain (checkpoint + deltas + "
     "sealed segments + live tail); --lazy-recovery faults states in on "
     "first touch",
     std::string("--journal=FILE --suite=tpch|tpcds --seed=N "
                 "--lazy-recovery ") +
         kStateTierFlags},
    {"neighbors", cli::RunNeighbors,
     "print a signature's k nearest registered signatures in the transfer "
     "tier's embedding space (debugging bad warm starts)",
     "<signature> --signature=SIG --journal=FILE --suite=tpch|tpcds --k=N "
     "--seed=N"},
    {"checkpoint", cli::RunCheckpoint,
     "compact a journal offline: absorb sealed segments into the "
     "checkpoint, truncate the absorbed prefix",
     "--journal=FILE"},
    {"serve", cli::RunServe,
     "serve the wire protocol over TCP (epoll event loop, per-tenant token "
     "buckets, global admission); SIGINT/SIGTERM or --duration-s drains "
     "and prints the exit report; --checkpoint-interval compacts the "
     "journal every N accepted observations while serving",
     std::string("--listen=HOST:PORT --duration-s=F --drain-ms=N "
                 "--io-threads=N --suite=tpch|tpcds --seed=N --journal=FILE "
                 "--checkpoint-interval=N --tenant-rate=F --tenant-burst-s=F "
                 "--flush-p99-target=F --queue-target=F --net-batch=N "
                 "--admin-token=SECRET --metrics-format=prom|json|off ") +
         kStateTierFlags},
    {"admin", cli::RunAdmin,
     "send one authenticated runtime-control frame to a server: "
     "--set-tenant-rate (with --tenant; 0 = unlimited) or --set-budget "
     "(0 = off)",
     "--connect=HOST:PORT --token=SECRET --set-tenant-rate=F --tenant=N "
     "--set-budget=BYTES --timeout-ms=N"},
    {"loadgen", cli::RunLoadgen,
     "drive the wire protocol against a serve process (--rate is "
     "per-tenant open-loop Poisson q/s, 0 = closed loop; --noisy-rate adds "
     "an aggressor tenant)",
     "--host=HOST --port=N --duration-s=F --tenants=N --rate=F "
     "--concurrency=N --noisy-rate=F --propose-fraction=F --plans=N "
     "--suite=tpch|tpcds --seed=N --json"},
    {"metrics", cli::RunMetrics,
     "exercise the instrumented pipeline, print one registry scrape",
     "--suite=tpch|tpcds --iters=N --threads=N --chaos=true|false "
     "--journal=FILE --seed=N --format=prom|json"},
};

// Prints `text` as words wrapped at 78 columns behind `indent`.
void PrintWrapped(const std::string& text, const char* indent) {
  std::istringstream words(text);
  size_t column = 0;
  for (std::string word; words >> word;) {
    if (column > 0 && column + 1 + word.size() > 78) {
      std::fprintf(stderr, "\n");
      column = 0;
    }
    column += column == 0 ? std::fprintf(stderr, "%s%s", indent, word.c_str())
                          : std::fprintf(stderr, " %s", word.c_str());
  }
  std::fprintf(stderr, "\n");
}

void PrintUsage(const Verb& verb) {
  std::fprintf(stderr, "  %s\n", verb.name);
  PrintWrapped(verb.summary, "      ");
  PrintWrapped(verb.flags, "        ");
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = argc >= 2 ? argv[1] : "";
  for (const Verb& verb : kVerbs) {
    if (std::strcmp(verb.name, name) != 0) continue;
    const std::optional<cli::Flags> flags = verb.Parse(argc, argv);
    if (!flags) {
      std::fprintf(stderr, "usage: rockhopper <verb> [--flag=value ...]\n");
      PrintUsage(verb);
      return 2;
    }
    return verb.run(*flags);
  }
  std::fprintf(stderr, "usage: rockhopper <verb> [--flag=value ...]\n\n");
  for (const Verb& verb : kVerbs) PrintUsage(verb);
  return name[0] == '\0' ? 1 : 2;
}
