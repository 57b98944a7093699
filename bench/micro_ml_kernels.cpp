// google-benchmark micro-benchmarks for the hot kernels behind Fig. 20:
// tree-ensemble training/inference (exact vs histogram split paths),
// feature binning, metric computation, preprocessing throughput, and the
// CNN_LSTM forward pass. `cmake --build build --target bench_perf` runs the
// suite and records BENCH_ml_kernels.json (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/preprocess.hpp"
#include "data/binned_matrix.hpp"
#include "ml/factory.hpp"
#include "ml/flat_forest.hpp"
#include "ml/metrics.hpp"
#include "ml/simd.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace mfpa;

std::pair<data::Matrix, std::vector<int>> blob_data(std::size_t n,
                                                    std::size_t d) {
  Rng rng(1);
  data::Matrix X(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 4 == 0 ? 1 : 0;
    y[i] = label;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.normal(label * 2.0, 1.0);
    }
  }
  return {std::move(X), std::move(y)};
}

// range(0) = rows, range(1) = split_method (0 exact, 1 hist).
void BM_RandomForestFit(benchmark::State& state) {
  const auto [X, y] = blob_data(static_cast<std::size_t>(state.range(0)), 45);
  const double method = static_cast<double>(state.range(1));
  for (auto _ : state) {
    auto rf = ml::make_classifier(
        "RF", {{"n_trees", 30}, {"seed", 1}, {"split_method", method}});
    rf->fit(X, y);
    benchmark::DoNotOptimize(rf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RandomForestFit)
    ->ArgNames({"n", "hist"})
    ->ArgsProduct({{1000, 4000}, {0, 1}});

void BM_RandomForestPredict(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  const double threads = static_cast<double>(state.range(0));
  auto rf = ml::make_classifier(
      "RF", {{"n_trees", 60}, {"seed", 1}, {"threads", threads}});
  rf->fit(X, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf->predict_proba(X));
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_RandomForestPredict)->ArgName("threads")->Arg(1)->Arg(0);

// range(0) = rows, range(1) = split_method (0 exact, 1 hist).
void BM_GbdtFit(benchmark::State& state) {
  const auto [X, y] = blob_data(static_cast<std::size_t>(state.range(0)), 45);
  const double method = static_cast<double>(state.range(1));
  for (auto _ : state) {
    auto gbdt = ml::make_classifier(
        "GBDT", {{"n_rounds", 40}, {"seed", 1}, {"split_method", method}});
    gbdt->fit(X, y);
    benchmark::DoNotOptimize(gbdt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbdtFit)
    ->ArgNames({"n", "hist"})
    ->ArgsProduct({{2000, 4000}, {0, 1}});

void BM_GbdtPredict(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  const double threads = static_cast<double>(state.range(0));
  auto gbdt = ml::make_classifier(
      "GBDT", {{"n_rounds", 80}, {"seed", 1}, {"threads", threads}});
  gbdt->fit(X, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt->predict_proba(X));
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_GbdtPredict)->ArgName("threads")->Arg(1)->Arg(0);

// Compiled (flat-forest) vs node-pointer ensemble scoring, single thread.
// range(0) = flat (0 pointer path, 1 compiled); 100-tree paper-scale RF.
// The perf-regression gate tracks both: the pair documents the compiled
// path's speedup and bench_compare.py fails CI when either regresses.
void BM_FlatForestPredictRF(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  auto rf = ml::make_classifier(
      "RF", {{"n_trees", 100}, {"seed", 1}, {"threads", 1}});
  rf->fit(X, y);
  if (state.range(0) != 0) {
    dynamic_cast<ml::CompiledInference&>(*rf).compile();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf->predict_proba(X));
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_FlatForestPredictRF)->ArgName("flat")->Arg(0)->Arg(1);

// Same A/B for the boosted ensemble (100 rounds, depth-5 trees).
void BM_FlatForestPredictGbdt(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  auto gbdt = ml::make_classifier(
      "GBDT", {{"n_rounds", 100}, {"seed", 1}, {"threads", 1}});
  gbdt->fit(X, y);
  if (state.range(0) != 0) {
    dynamic_cast<ml::CompiledInference&>(*gbdt).compile();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt->predict_proba(X));
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_FlatForestPredictGbdt)->ArgName("flat")->Arg(0)->Arg(1);

// Kernel-tier A/B on the compiled path: range(0) = SimdLevel forced via the
// process-wide override (0 scalar, 2 avx2/auto). The scalar leg pins the
// portable kernel, the vector leg runs whatever the CPU dispatches; the
// perf gate's scalar-vs-vector ratio documents the SIMD speedup (results
// are bit-identical across legs — see tests/ml/test_simd_parity.cpp).
void BM_FlatForestPredictSimdRF(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  auto rf = ml::make_classifier(
      "RF", {{"n_trees", 100}, {"seed", 1}, {"threads", 1}});
  rf->fit(X, y);
  dynamic_cast<ml::CompiledInference&>(*rf).compile();
  ml::set_simd_override(state.range(0) == 0
                            ? std::optional<ml::SimdLevel>(ml::SimdLevel::kScalar)
                            : std::nullopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf->predict_proba(X));
  }
  ml::set_simd_override(std::nullopt);
  state.SetItemsProcessed(state.iterations() * 4000);
  state.SetLabel(std::string(ml::to_string(
      state.range(0) == 0 ? ml::SimdLevel::kScalar
                          : ml::detected_simd_level())));
}
BENCHMARK(BM_FlatForestPredictSimdRF)->ArgName("simd")->Arg(0)->Arg(2);

void BM_FlatForestPredictSimdGbdt(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  auto gbdt = ml::make_classifier(
      "GBDT", {{"n_rounds", 100}, {"seed", 1}, {"threads", 1}});
  gbdt->fit(X, y);
  dynamic_cast<ml::CompiledInference&>(*gbdt).compile();
  ml::set_simd_override(state.range(0) == 0
                            ? std::optional<ml::SimdLevel>(ml::SimdLevel::kScalar)
                            : std::nullopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt->predict_proba(X));
  }
  ml::set_simd_override(std::nullopt);
  state.SetItemsProcessed(state.iterations() * 4000);
  state.SetLabel(std::string(ml::to_string(
      state.range(0) == 0 ? ml::SimdLevel::kScalar
                          : ml::detected_simd_level())));
}
BENCHMARK(BM_FlatForestPredictSimdGbdt)->ArgName("simd")->Arg(0)->Arg(2);

// One-off cost of flattening a 100-tree forest (paid once per model
// activation in the serving tier; see docs/PERFORMANCE.md amortization).
void BM_FlatForestCompile(benchmark::State& state) {
  const auto [X, y] = blob_data(4000, 45);
  auto rf = ml::make_classifier(
      "RF", {{"n_trees", 100}, {"seed", 1}, {"threads", 1}});
  rf->fit(X, y);
  auto& compilable = dynamic_cast<ml::CompiledInference&>(*rf);
  for (auto _ : state) {
    compilable.compile();
    benchmark::DoNotOptimize(compilable.flat());
  }
}
BENCHMARK(BM_FlatForestCompile);

void BM_BinnedMatrixBuild(benchmark::State& state) {
  const auto [X, y] = blob_data(static_cast<std::size_t>(state.range(0)), 45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::BinnedMatrix(X));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 45);
}
BENCHMARK(BM_BinnedMatrixBuild)->ArgName("n")->Arg(4000)->Arg(16000);

void BM_CnnLstmForward(benchmark::State& state) {
  const auto [X, y] = blob_data(512, 45 * 5);
  auto net = ml::make_classifier(
      "CNN_LSTM",
      {{"timesteps", 5}, {"epochs", 1}, {"channels", 16}, {"hidden", 24}});
  net->fit(X, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->predict_proba(X));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_CnnLstmForward);

void BM_AucComputation(benchmark::State& state) {
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<int> y(n);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.25) ? 1 : 0;
    scores[i] = rng.uniform() + y[i] * 0.3;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::auc(y, scores));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AucComputation)->Arg(10000)->Arg(100000);

void BM_PreprocessTelemetry(benchmark::State& state) {
  sim::FleetSimulator fleet(sim::tiny_scenario(1));
  const auto telemetry = fleet.generate_telemetry();
  std::size_t records = 0;
  for (const auto& t : telemetry) records += t.records.size();
  const core::Preprocessor pre;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.process(telemetry));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
}
BENCHMARK(BM_PreprocessTelemetry);

void BM_TelemetryGeneration(benchmark::State& state) {
  for (auto _ : state) {
    sim::FleetSimulator fleet(sim::tiny_scenario(1));
    benchmark::DoNotOptimize(fleet.generate_telemetry());
  }
}
BENCHMARK(BM_TelemetryGeneration);

}  // namespace

BENCHMARK_MAIN();
