// Microbenchmarks (google-benchmark): the §IV-B3 linear-time claim of
// RD-GBG (runtime vs N), GBABS end-to-end throughput, the classic
// purity-GBG baseline, neighbor search, and classifier training costs.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/gbabs.h"
#include "core/rd_gbg.h"
#include "data/synthetic.h"
#include "index/brute_force.h"
#include "index/dynamic_kd_tree.h"
#include "ml/decision_tree.h"
#include "ml/lgbm.h"
#include "ml/xgb.h"
#include "sampling/purity_gbg.h"

namespace gbx {
namespace {

Dataset BenchBlobs(int n, int classes = 3, int features = 8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = features;
  // Keep the point density constant as n grows so scaling benchmarks
  // measure algorithmic complexity, not a geometry that gets denser (and
  // therefore harder) with n.
  cfg.center_spread = 5.0 * std::sqrt(n / 1000.0);
  cfg.cluster_std = 0.8;
  Pcg32 rng(1234);
  return MakeGaussianBlobs(cfg, &rng);
}

void BM_RdGbg(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  RdGbgConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRdGbg(ds, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RdGbg)->RangeMultiplier(2)->Range(1000, 16000)->Complexity();

void BM_Gbabs(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  GbabsConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunGbabs(ds, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gbabs)->RangeMultiplier(2)->Range(1000, 16000)->Complexity();

void BM_PurityGbg(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  PurityGbgConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneratePurityGbg(ds, cfg));
  }
}
BENCHMARK(BM_PurityGbg)->RangeMultiplier(2)->Range(1000, 8000);

void BM_KdTreeBuild(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DynamicKdTree tree(&ds.x());
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_KdTreeBuild)->Range(1000, 16000);

void BM_KdTreeKnnQuery(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  DynamicKdTree tree(&ds.x());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.KNearest(ds.row(i), 5));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_KdTreeKnnQuery)->Range(1000, 16000);

void BM_BruteForceKnnQuery(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  BruteForceIndex index(&ds.x());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.KNearest(ds.row(i), 5));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_BruteForceKnnQuery)->Range(1000, 16000);

void BM_DecisionTreeFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DecisionTreeClassifier dt;
    Pcg32 rng(7);
    dt.Fit(ds, &rng);
    benchmark::DoNotOptimize(dt.node_count());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Range(1000, 8000);

void BM_XgBoostFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)), 2);
  XgBoostConfig cfg;
  cfg.num_rounds = 10;
  for (auto _ : state) {
    XgBoostClassifier xgb(cfg);
    Pcg32 rng(8);
    xgb.Fit(ds, &rng);
    benchmark::DoNotOptimize(xgb.Predict(ds.row(0)));
  }
}
BENCHMARK(BM_XgBoostFit)->Range(1000, 4000);

void BM_LightGbmFit(benchmark::State& state) {
  const Dataset ds = BenchBlobs(static_cast<int>(state.range(0)), 2);
  LightGbmConfig cfg;
  cfg.num_rounds = 10;
  for (auto _ : state) {
    LightGbmClassifier lgbm(cfg);
    Pcg32 rng(9);
    lgbm.Fit(ds, &rng);
    benchmark::DoNotOptimize(lgbm.Predict(ds.row(0)));
  }
}
BENCHMARK(BM_LightGbmFit)->Range(1000, 4000);

}  // namespace
}  // namespace gbx
