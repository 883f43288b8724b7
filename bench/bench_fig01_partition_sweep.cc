// Figure 1: query execution time versus spark.sql.shuffle.partitions.
// The paper's motivating observation: runtimes are convex in the partition
// count and each query peaks at a different setting. This harness sweeps
// the parameter for four TPC-H-like queries on the noise-free cost model.

#include <vector>

#include "bench/bench_util.h"
#include "sparksim/cost_model.h"
#include "sparksim/workloads.h"

using namespace rockhopper;           // NOLINT(build/namespaces)
using namespace rockhopper::sparksim; // NOLINT(build/namespaces)

int main() {
  bench::Banner("Figure 1: runtime vs shuffle.partitions",
                "Expected shape: convex response per query; optima differ "
                "across queries.");
  const std::vector<int> queries = {3, 5, 9, 18};
  const std::vector<double> partitions = {8,   16,  32,  64,   128,
                                          200, 320, 640, 1200, 2000};
  CostModel model;
  common::TextTable table;
  std::vector<std::string> header = {"partitions"};
  // Built by append: GCC 12 -O3 raises a false -Wrestrict on "q" + string.
  for (int q : queries) {
    header.push_back(std::string("q").append(std::to_string(q)).append("_sec"));
  }
  table.SetHeader(header);

  std::vector<double> best(queries.size(), 1e300);
  std::vector<double> best_p(queries.size(), 0.0);
  for (double p : partitions) {
    std::vector<std::string> row = {common::TextTable::FormatDouble(p, 0)};
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryPlan plan = TpchPlan(queries[i]);
      EffectiveConfig config;
      config.shuffle_partitions = p;
      config.executor_memory_gb = 10.0;  // modest pool: spills visible
      const double sec = model.ExecutionSeconds(plan, config, 2.0);
      row.push_back(common::TextTable::FormatDouble(sec, 2));
      if (sec < best[i]) {
        best[i] = sec;
        best_p[i] = p;
      }
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\nPer-query optimum:\n");
  for (size_t i = 0; i < queries.size(); ++i) {
    std::printf("  q%-3d best at partitions=%-5.0f (%.2f s)\n", queries[i],
                best_p[i], best[i]);
  }
  return 0;
}
