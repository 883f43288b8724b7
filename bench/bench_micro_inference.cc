// Micro-benchmarks for the paper's "reducing inference latency" design goal
// (§3.1): candidate generation, surrogate prediction, acquisition scoring,
// embedding computation, cost-model evaluation, and the full Centroid
// Learning propose step — the work on a query's critical submission path —
// and the transfer tier's HNSW flush + search pattern on a cold arrival.

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/matrix.h"
#include "core/centroid_learning.h"
#include "core/embedding.h"
#include "core/window_model.h"
#include "ml/gaussian_process.h"
#include "ml/hnsw_index.h"
#include "ml/kernel.h"
#include "ml/scaler.h"
#include "sparksim/cost_model.h"
#include "sparksim/simulator.h"
#include "sparksim/synthetic.h"
#include "sparksim/workloads.h"

using namespace rockhopper;           // NOLINT(build/namespaces)
using namespace rockhopper::core;     // NOLINT(build/namespaces)
using namespace rockhopper::sparksim; // NOLINT(build/namespaces)

namespace {

void BM_CandidateGeneration(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  const ConfigVector center = space.Defaults();
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.SampleNeighbor(center, 0.25, &rng));
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_EmbeddingCompute(benchmark::State& state) {
  const QueryPlan plan = TpcdsPlan(42);
  const EmbeddingOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeEmbedding(plan, options));
  }
}
BENCHMARK(BM_EmbeddingCompute);

void BM_CostModelExecution(benchmark::State& state) {
  const QueryPlan plan = TpcdsPlan(42);
  const CostModel model;
  const EffectiveConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ExecutionSeconds(plan, config, 1.0));
  }
}
BENCHMARK(BM_CostModelExecution);

// The pre-PR per-call recursion over PlanNode objects — the reference path
// the plan-cached fast path above is measured against (bit-identical
// results, see CostModelCacheTest).
void BM_CostModelExecutionUncached(benchmark::State& state) {
  const QueryPlan plan = TpcdsPlan(42);
  const CostModel model;
  const EffectiveConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ExecutionSecondsUncached(plan, config, 1.0));
  }
}
BENCHMARK(BM_CostModelExecutionUncached);

// Full simulator hot path as tuners drive it: ExecuteQuery per proposal
// (memoized EffectiveConfig conversion + execution memo) vs the batched
// entry point over the same proposals.
void BM_SimulatorExecutePerCall(benchmark::State& state) {
  SparkSimulator::Options options;
  options.noise = NoiseParams::Low();
  options.seed = 17;
  SparkSimulator sim(options);
  const QueryPlan plan = TpcdsPlan(42);
  const ConfigSpace space = QueryLevelSpace();
  common::Rng rng(13);
  std::vector<ConfigVector> proposals;
  for (int i = 0; i < 16; ++i) proposals.push_back(space.Sample(&rng));
  for (auto _ : state) {
    for (const ConfigVector& c : proposals) {
      benchmark::DoNotOptimize(sim.ExecuteQuery(plan, c, 1.0));
    }
  }
}
BENCHMARK(BM_SimulatorExecutePerCall);

void BM_SimulatorExecuteBatch(benchmark::State& state) {
  SparkSimulator::Options options;
  options.noise = NoiseParams::Low();
  options.seed = 17;
  SparkSimulator sim(options);
  const QueryPlan plan = TpcdsPlan(42);
  const ConfigSpace space = QueryLevelSpace();
  common::Rng rng(13);
  std::vector<ConfigVector> proposals;
  for (int i = 0; i < 16; ++i) proposals.push_back(space.Sample(&rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.ExecuteBatch(plan, proposals, 1.0));
  }
}
BENCHMARK(BM_SimulatorExecuteBatch);

void BM_GpPredict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(2);
  ml::Dataset data;
  for (int i = 0; i < n; ++i) {
    data.Add({rng.Uniform(), rng.Uniform(), rng.Uniform()}, rng.Uniform());
  }
  ml::GaussianProcessRegressor gp;
  if (!gp.Fit(data).ok()) state.SkipWithError("fit failed");
  const std::vector<double> query = {0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.PredictWithUncertainty(query));
  }
}
BENCHMARK(BM_GpPredict)->Arg(20)->Arg(60);

void BM_GpFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(3);
  ml::Dataset data;
  for (int i = 0; i < n; ++i) {
    data.Add({rng.Uniform(), rng.Uniform(), rng.Uniform()}, rng.Uniform());
  }
  for (auto _ : state) {
    ml::GaussianProcessRegressor gp;
    benchmark::DoNotOptimize(gp.Fit(data).ok());
  }
}
BENCHMARK(BM_GpFit)->Arg(20)->Arg(60)->Arg(80);

ml::Dataset RandomGpData(int n, uint64_t seed, int dims = 3) {
  common::Rng rng(seed);
  ml::Dataset data;
  std::vector<double> row(static_cast<size_t>(dims));
  for (int i = 0; i < n; ++i) {
    for (double& v : row) v = rng.Uniform();
    data.Add(row, rng.Uniform());
  }
  return data;
}

// The pre-PR per-observation refit, reconstructed from public primitives:
// every lengthscale in the grid recomputes the full Gram matrix pair by
// pair (no distance cache), refactorizes, and the winning lengthscale is
// then fit once more from scratch. This is the baseline the incremental
// update is measured against.
void BM_GpLegacyPerObservationRefit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ml::Dataset data = RandomGpData(n, 9);
  ml::StandardScaler scaler;
  if (!scaler.Fit(data.x).ok()) state.SkipWithError("scaler failed");
  const common::Matrix xs = scaler.TransformBatch(data.x);
  std::vector<double> y_std(data.y);
  const std::vector<double> grid = {0.25, 0.5, 1.0, 2.0, 4.0};
  const double noise = 0.1;
  const auto fit_one = [&](double ls) {
    common::Matrix k = GramMatrix(ml::RbfKernel{ls, 1.0}, xs);
    k.AddDiagonal(noise);
    auto l = common::CholeskyFactor(k, 1e-8);
    if (!l.ok()) return -std::numeric_limits<double>::infinity();
    const std::vector<double> z = common::ForwardSubstitute(*l, y_std);
    const std::vector<double> alpha = common::BackSubstituteTranspose(*l, z);
    double log_det = 0.0;
    for (size_t i = 0; i < l->rows(); ++i) log_det += std::log((*l)(i, i));
    return -0.5 * common::Dot(y_std, alpha) - log_det -
           0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  };
  for (auto _ : state) {
    double best_lml = -std::numeric_limits<double>::infinity();
    double best_ls = 1.0;
    for (double ls : grid) {
      const double lml = fit_one(ls);
      if (lml > best_lml) {
        best_lml = lml;
        best_ls = ls;
      }
    }
    benchmark::DoNotOptimize(fit_one(best_ls));  // the duplicate winner fit
  }
}
BENCHMARK(BM_GpLegacyPerObservationRefit)->Arg(20)->Arg(80);

// The surrogate's steady state in Centroid Learning: a full window of n rows
// of d = 4 features (3 knobs + log data size) that slides by one row per
// observation. BM_GpWindowRefit refits that window over the lengthscale
// grid, the cost of a slide without the incremental path;
// BM_GpSlidingUpdate is the rank-1 update + row-append, with the default
// policy's periodic refits (every 8th update) and drift refits amortized in.
void BM_GpWindowRefit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ml::Dataset data = RandomGpData(n, 14, /*dims=*/4);
  ml::GaussianProcessRegressor gp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Fit(data).ok());
  }
}
BENCHMARK(BM_GpWindowRefit)->Arg(15);

void BM_GpSlidingUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ml::Dataset stream = RandomGpData(1024, 15, /*dims=*/4);
  ml::GaussianProcessOptions options;
  options.max_rows = static_cast<size_t>(n);
  ml::GaussianProcessRegressor gp(options);
  size_t next = 0;
  const auto absorb = [&] {
    const size_t i = next++ % stream.size();
    return gp.Update(stream.x[i], stream.y[i]).ok();
  };
  for (int i = 0; i < 2 * n; ++i) (void)absorb();  // fill, then slide
  for (auto _ : state) {
    benchmark::DoNotOptimize(absorb());
  }
}
BENCHMARK(BM_GpSlidingUpdate)->Arg(15);

// One incremental observation absorb at window size n: the O(n^2) Cholesky
// row-append path that replaces the legacy refit above on the hot path.
void BM_GpIncrementalUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ml::Dataset data = RandomGpData(n, 10);
  ml::GaussianProcessOptions options;
  options.refit_interval = 0;
  options.min_incremental_rows = 0;
  options.scaler_drift_zscore = 0.0;
  ml::GaussianProcessRegressor base(options);
  if (!base.Fit(data).ok()) state.SkipWithError("fit failed");
  const std::vector<double> features = {0.4, 0.5, 0.6};
  for (auto _ : state) {
    state.PauseTiming();
    ml::GaussianProcessRegressor gp = base;  // reset to the n-row window
    state.ResumeTiming();
    benchmark::DoNotOptimize(gp.Update(features, 0.5).ok());
  }
}
BENCHMARK(BM_GpIncrementalUpdate)->Arg(20)->Arg(80);

std::vector<std::vector<double>> RandomPool(int m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> pool(m);
  for (auto& q : pool) q = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
  return pool;
}

// Candidate-pool scoring, one PredictWithUncertainty call per candidate
// (the pre-PR Propose/SelectBest inner loop).
void BM_GpPredictPoolPerCandidate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ml::GaussianProcessRegressor gp;
  if (!gp.Fit(RandomGpData(n, 11)).ok()) state.SkipWithError("fit failed");
  const std::vector<std::vector<double>> pool = RandomPool(64, 12);
  for (auto _ : state) {
    for (const auto& q : pool) {
      benchmark::DoNotOptimize(gp.PredictWithUncertainty(q));
    }
  }
}
BENCHMARK(BM_GpPredictPoolPerCandidate)->Arg(20)->Arg(80);

// The same pool through one batched pass: one cross-kernel block plus a
// multi-right-hand-side triangular solve.
void BM_GpPredictBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ml::GaussianProcessRegressor gp;
  if (!gp.Fit(RandomGpData(n, 11)).ok()) state.SkipWithError("fit failed");
  common::Matrix pool;
  for (const auto& q : RandomPool(64, 12)) pool.AppendRow(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.PredictBatch(pool));
  }
}
BENCHMARK(BM_GpPredictBatch)->Arg(20)->Arg(80);

void BM_WindowModelFit(benchmark::State& state) {
  const ConfigSpace space = QueryLevelSpace();
  common::Rng rng(4);
  ObservationWindow window;
  for (int i = 0; i < 20; ++i) {
    Observation obs;
    obs.config = space.Sample(&rng);
    obs.data_size = rng.Uniform(0.5, 2.0);
    obs.runtime = rng.Uniform(10.0, 100.0);
    window.push_back(obs);
  }
  for (auto _ : state) {
    WindowModel model(&space);
    benchmark::DoNotOptimize(model.Fit(window).ok());
  }
}
BENCHMARK(BM_WindowModelFit);

void BM_CentroidLearnerPropose(benchmark::State& state) {
  const SyntheticFunction f = SyntheticFunction::Default();
  const ConfigSpace& space = f.space();
  CentroidLearningOptions options;
  CentroidLearner learner(space, space.Defaults(),
                          std::make_unique<PseudoSurrogateScorer>(&f, 3),
                          options, 5);
  common::Rng rng(6);
  for (int t = 0; t < 25; ++t) {
    const ConfigVector c = learner.Propose(1.0);
    learner.Observe(c, 1.0, f.Observe(c, 1.0, NoiseParams::Low(), &rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner.Propose(1.0));
  }
}
BENCHMARK(BM_CentroidLearnerPropose);

void BM_CentroidLearnerObserve(benchmark::State& state) {
  const SyntheticFunction f = SyntheticFunction::Default();
  const ConfigSpace& space = f.space();
  CentroidLearningOptions options;
  CentroidLearner learner(space, space.Defaults(),
                          std::make_unique<PseudoSurrogateScorer>(&f, 3),
                          options, 7);
  common::Rng rng(8);
  for (int t = 0; t < 25; ++t) {
    const ConfigVector c = learner.Propose(1.0);
    learner.Observe(c, 1.0, f.Observe(c, 1.0, NoiseParams::Low(), &rng));
  }
  for (auto _ : state) {
    const ConfigVector c = learner.Propose(1.0);
    learner.Observe(c, 1.0, f.Observe(c, 1.0, NoiseParams::Low(), &rng));
  }
}
BENCHMARK(BM_CentroidLearnerObserve);

// The production tuner's observe loop: the GP surrogate, past the 15-row
// window, so every observation slides the window (GP update, one shared
// window-model fit for FIND_BEST and FIND_GRADIENT). Like the benchmark
// above, each iteration is one Propose plus one Observe.
void BM_CentroidLearnerObserveSurrogate(benchmark::State& state) {
  const SyntheticFunction f = SyntheticFunction::Default();
  const ConfigSpace& space = f.space();
  CentroidLearningOptions options;
  CentroidLearner learner(
      space, space.Defaults(),
      std::make_unique<SurrogateScorer>(space, nullptr, std::vector<double>{}),
      options, 9);
  common::Rng rng(10);
  for (int t = 0; t < 40; ++t) {
    const ConfigVector c = learner.Propose(1.0);
    learner.Observe(c, 1.0, f.Observe(c, 1.0, NoiseParams::Low(), &rng));
  }
  for (auto _ : state) {
    const ConfigVector c = learner.Propose(1.0);
    learner.Observe(c, 1.0, f.Observe(c, 1.0, NoiseParams::Low(), &rng));
  }
}
BENCHMARK(BM_CentroidLearnerObserveSurrogate);

// The transfer tier's production pattern: fault-ins stage about 13
// registrations between cold-arrival consults, and each consult flushes them
// into the graph and then searches (TransferIndex::Neighbors asks for k + 1
// = 9). Reports the flush cost per inserted vector and the search cost.
void RunHnswFlushPattern(benchmark::State& state,
                         const std::vector<std::vector<double>>& data) {
  constexpr size_t kBatch = 13;
  ml::HnswOptions options;
  options.dim = data.front().size();
  double flush_s = 0.0;
  double search_s = 0.0;
  size_t searches = 0;
  for (auto _ : state) {
    ml::HnswIndex index(options);
    for (size_t begin = 0; begin + kBatch < data.size(); begin += kBatch) {
      for (size_t i = begin; i < begin + kBatch; ++i) {
        (void)index.Insert(i + 1, data[i]);
      }
      const auto t0 = std::chrono::steady_clock::now();
      index.Flush();
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(index.Search(data[begin + kBatch], 9));
      const auto t2 = std::chrono::steady_clock::now();
      flush_s += std::chrono::duration<double>(t1 - t0).count();
      search_s += std::chrono::duration<double>(t2 - t1).count();
      ++searches;
    }
  }
  state.counters["flush_us_per_insert"] =
      1e6 * flush_s / static_cast<double>(searches * kBatch);
  state.counters["search_us"] = 1e6 * search_s / static_cast<double>(searches);
}

// 6400 plan embeddings: each plan fills about a dozen of the 252 columns.
void BM_HnswFlushPlanEmbeddings(benchmark::State& state) {
  static const std::vector<std::vector<double>> data = [] {
    common::Rng rng(6400);
    const EmbeddingOptions options;
    std::vector<std::vector<double>> out;
    for (int i = 0; i < 6400; ++i) {
      out.push_back(
          ComputeEmbedding(GeneratePlan(PlanProfile{}, &rng), options));
    }
    return out;
  }();
  RunHnswFlushPattern(state, data);
}
BENCHMARK(BM_HnswFlushPlanEmbeddings)->Unit(benchmark::kMillisecond);

// 6400 vectors of the same shape whose operator counts are scattered over
// every column (bench_transfer_ann's sampler): the layout cannot drop any.
void BM_HnswFlushUniform(benchmark::State& state) {
  static const std::vector<std::vector<double>> data = [] {
    const size_t dim = EmbeddingLength(EmbeddingOptions{});
    common::Rng rng(6401);
    std::vector<std::vector<double>> templates(64);
    for (std::vector<double>& t : templates) {
      t.assign(dim, 0.0);
      t[0] = rng.Uniform() * 35.0;
      t[1] = t[0] + rng.Uniform() * 6.0;
      const size_t operators = 3 + rng.Index(10);
      for (size_t i = 0; i < operators; ++i) {
        t[2 + rng.Index(dim - 2)] += 1.0 + static_cast<double>(rng.Index(5));
      }
    }
    std::vector<std::vector<double>> out;
    for (int i = 0; i < 6400; ++i) {
      std::vector<double> v = templates[rng.Index(templates.size())];
      v[0] += rng.Normal() * 0.4;
      v[1] += rng.Normal() * 0.4;
      if (rng.Index(4) == 0) v[2 + rng.Index(dim - 2)] += 1.0;
      out.push_back(std::move(v));
    }
    return out;
  }();
  RunHnswFlushPattern(state, data);
}
BENCHMARK(BM_HnswFlushUniform)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
