// Copyright 2026 The dpcube Authors.
//
// Experiment F6 (paper Figure 6): end-to-end running time of each method
// (F, C, Q, I) per workload on the NLTCS-like data, including strategy
// construction — which is the point of the figure: the clustering search
// behind C dominates everything else by two to three orders of magnitude,
// while F/Q/I stay near-instant (full size on a 4-vCPU VM: C takes 0.10 s
// on Q2, 0.83 s on Q2a and 7.2 s on Q2*, F/Q/I 0.7-3.4 ms on the same
// workloads). Uses google-benchmark with one iteration per measurement
// (the cluster search is deterministic and expensive).
//
// The BM_*ThreadScaling families at the bottom measure the same pipeline
// under the shared ThreadPool at 1/2/4/8 threads on the largest cuboid
// workload and report "speedup_vs_1t" (per-iteration time at 1 thread
// divided by the current per-iteration time) plus the per-phase seconds
// from engine::PhaseTimings, so a regression in parallel scaling is
// attributable to a phase. BM_ClusterConstructionThreadScaling isolates
// strategy *construction* — the clustering search that dominates the
// figure — and reports its own construction-phase speedup_vs_1t. Run on
// a machine with >= 8 cores to see the full fan-out; the parallel
// determinism suite guarantees the released values are bit-identical at
// every point of the sweep.
//
// Set DPCUBE_BENCH_SMALL=1 to shrink every dataset/domain to a pinned
// small configuration: that is what the CI bench-regression job runs
// (with --benchmark_out) and what bench/baseline/BENCH_baseline.json was
// generated from, so local full-size numbers and the CI trend line don't
// get mixed up.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "strategy/cluster_strategy.h"
#include "transform/walsh_hadamard.h"

namespace {

using namespace dpcube;

// Pinned small configuration for CI (see header comment).
bool SmallMode() {
  static const bool small = [] {
    const char* env = std::getenv("DPCUBE_BENCH_SMALL");
    return env != nullptr && env[0] != '\0' && std::string(env) != "0";
  }();
  return small;
}

const char* const kWorkloads[] = {"Q1", "Q1a", "Q1*", "Q2", "Q2a", "Q2*"};

const data::SparseCounts& NltcsCounts() {
  static const data::SparseCounts* counts = [] {
    Rng rng(44);
    const data::Dataset ds =
        data::MakeNltcsLike(SmallMode() ? 4'000 : 21'576, &rng);
    return new data::SparseCounts(data::SparseCounts::FromDataset(ds));
  }();
  return *counts;
}

marginal::Workload WorkloadFor(int index) {
  Rng rng(0);
  data::Schema schema = data::NltcsSchema();
  auto workload = marginal::WorkloadByName(schema, kWorkloads[index]);
  return workload.value();
}

template <typename StrategyT>
void RunEndToEnd(benchmark::State& state) {
  const marginal::Workload workload = WorkloadFor(state.range(0));
  const data::SparseCounts& counts = NltcsCounts();
  Rng rng(17);
  engine::ReleaseOptions options;
  options.params.epsilon = 0.5;
  options.budget_mode = engine::BudgetMode::kOptimal;
  for (auto _ : state) {
    // End to end: strategy construction + budgets + measure + recover.
    StrategyT strat(workload);
    auto outcome = engine::ReleaseWorkload(strat, counts, options, &rng);
    if (!outcome.ok()) state.SkipWithError("release failed");
    benchmark::DoNotOptimize(outcome);
  }
  state.SetLabel(kWorkloads[state.range(0)]);
}

void BM_Fourier(benchmark::State& state) {
  RunEndToEnd<strategy::FourierStrategy>(state);
}
void BM_Cluster(benchmark::State& state) {
  RunEndToEnd<strategy::ClusterStrategy>(state);
}
void BM_Query(benchmark::State& state) {
  RunEndToEnd<strategy::QueryStrategy>(state);
}
void BM_Identity(benchmark::State& state) {
  RunEndToEnd<strategy::IdentityStrategy>(state);
}

// Per-iteration 1-thread baselines, recorded when the Arg(1) member of a
// family runs (registration order puts it first) and used by the wider
// members to report their speedup.
std::map<std::string, double>& BaselineSeconds() {
  static std::map<std::string, double> baselines;
  return baselines;
}

void ReportScaling(benchmark::State& state, const std::string& family,
                   double total_seconds) {
  const double per_iter =
      total_seconds / static_cast<double>(state.iterations());
  if (state.range(0) == 1) BaselineSeconds()[family] = per_iter;
  const auto base = BaselineSeconds().find(family);
  if (base != BaselineSeconds().end() && per_iter > 0.0) {
    state.counters["speedup_vs_1t"] = base->second / per_iter;
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}

// Largest cuboid workload the NLTCS benches use: all marginals of up to
// three attributes (697 cuboids; ~50k occupied cells at 200k rows), heavy
// enough that the measurement fan-out dominates the budget solve.
const data::SparseCounts& BigNltcsCounts() {
  static const data::SparseCounts* counts = [] {
    Rng rng(45);
    const data::Dataset ds =
        data::MakeNltcsLike(SmallMode() ? 30'000 : 200'000, &rng);
    return new data::SparseCounts(data::SparseCounts::FromDataset(ds));
  }();
  return *counts;
}

// End-to-end private release (budgets + parallel per-cuboid measurement +
// recovery) at state.range(0) threads.
void BM_ReleaseThreadScaling(benchmark::State& state) {
  ThreadPool::ResetSharedPoolForTests(static_cast<int>(state.range(0)));
  static const strategy::FourierStrategy* strat = [] {
    return new strategy::FourierStrategy(
        marginal::WorkloadQk(data::NltcsSchema(), 3));
  }();
  const data::SparseCounts& counts = BigNltcsCounts();
  engine::ReleaseOptions options;
  options.params.epsilon = 0.5;
  options.budget_mode = engine::BudgetMode::kOptimal;
  Rng rng(17);
  double pipeline = 0.0, measure = 0.0, budget = 0.0;
  for (auto _ : state) {
    auto outcome = engine::ReleaseWorkload(*strat, counts, options, &rng);
    if (!outcome.ok()) {
      state.SkipWithError("release failed");
      break;
    }
    benchmark::DoNotOptimize(outcome);
    pipeline += outcome.value().timings.total_seconds;
    measure += outcome.value().timings.measure_seconds;
    budget += outcome.value().timings.budget_seconds;
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["measure_s"] = measure / iters;
  state.counters["budget_s"] = budget / iters;
  ReportScaling(state, "release", pipeline);
  state.SetLabel("Q3 (largest cuboid fan-out)");
}

// Strategy construction in isolation: the clustering search behind C is
// the phase Figure 6 is really about. It scores merges incrementally and
// runs sequentially, so speedup_vs_1t stays near 1; construction_s is
// the per-iteration wall time of the ClusterStrategy constructor alone.
void BM_ClusterConstructionThreadScaling(benchmark::State& state) {
  ThreadPool::ResetSharedPoolForTests(static_cast<int>(state.range(0)));
  static const marginal::Workload* workload = [] {
    if (SmallMode()) {
      // First 10 NLTCS attributes: the search keeps the same shape with
      // ~1/6 the pair-evaluation cost, small enough for the CI gate.
      std::vector<data::Attribute> attrs;
      for (std::size_t i = 0; i < 10; ++i) {
        attrs.push_back(data::NltcsSchema().attribute(i));
      }
      return new marginal::Workload(
          marginal::WorkloadQk(data::Schema(std::move(attrs)), 2));
    }
    return new marginal::Workload(
        marginal::WorkloadQk(data::NltcsSchema(), 2));
  }();
  double construction = 0.0;
  for (auto _ : state) {
    strategy::ClusterStrategy strat(*workload);
    benchmark::DoNotOptimize(strat.materialized().data());
    construction += strat.construction_seconds();
  }
  state.counters["construction_s"] =
      construction / static_cast<double>(state.iterations());
  ReportScaling(state, "construction_C", construction);
  state.SetLabel(SmallMode() ? "Q2 (10 attrs, clustering search)"
                             : "Q2 (clustering search)");
}

// Full-domain 2^22 Walsh–Hadamard butterflies (the transform kernel under
// consistency recovery and witness materialisation).
void BM_WalshHadamardThreadScaling(benchmark::State& state) {
  ThreadPool::ResetSharedPoolForTests(static_cast<int>(state.range(0)));
  std::vector<double> x(std::size_t{1} << (SmallMode() ? 18 : 22));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i % 97);
  }
  double total = 0.0;
  for (auto _ : state) {
    total += bench::TimeSeconds([&] { transform::WalshHadamard(&x); });
    benchmark::DoNotOptimize(x.data());
  }
  ReportScaling(state, "wht", total);
}

}  // namespace

BENCHMARK(BM_Fourier)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cluster)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Query)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Identity)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

// Thread-scaling sweeps (registered last so the figure's single-thread
// numbers above are unaffected by pool resizing).
// MinTime (not a single iteration) because the 1/2-thread points are
// gated by the CI bench-regression job: one-shot ms-scale wall times on
// shared runners are too noisy to hold a 25% tolerance.
BENCHMARK(BM_ClusterConstructionThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5);
BENCHMARK(BM_ReleaseThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5);
BENCHMARK(BM_WalshHadamardThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5);

BENCHMARK_MAIN();
