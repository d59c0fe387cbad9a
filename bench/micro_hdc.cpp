// Micro-benchmarks (google-benchmark) of the HDC primitive operations that
// dominate the software stack: random generation, binding, permutation,
// bundling, encoding and similarity search. Useful for spotting regressions
// in the kernels the Table 1 harness spends its time in.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"
#include "hdc/kernels.h"
#include "model/binary_model.h"
#include "model/hdc_classifier.h"

namespace {

using namespace generic;

void BM_RandomHv(benchmark::State& state) {
  Rng rng(1);
  const auto dims = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(hdc::BinaryHV::random(dims, rng));
}
BENCHMARK(BM_RandomHv)->Arg(1024)->Arg(4096);

void BM_XorBind(benchmark::State& state) {
  Rng rng(2);
  const auto dims = static_cast<std::size_t>(state.range(0));
  auto a = hdc::BinaryHV::random(dims, rng);
  const auto b = hdc::BinaryHV::random(dims, rng);
  for (auto _ : state) {
    a ^= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_XorBind)->Arg(4096);

void BM_Rotate(benchmark::State& state) {
  Rng rng(3);
  const auto a = hdc::BinaryHV::random(4096, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.rotated(7));
}
BENCHMARK(BM_Rotate);

void BM_Accumulate(benchmark::State& state) {
  Rng rng(4);
  const auto dims = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::BinaryHV::random(dims, rng);
  hdc::IntHV acc(dims, 0);
  for (auto _ : state) {
    a.accumulate_into(acc);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_Accumulate)->Arg(1024)->Arg(4096);

void BM_IntDot(benchmark::State& state) {
  Rng rng(5);
  const auto dims = static_cast<std::size_t>(state.range(0));
  hdc::IntHV a(dims), b(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    a[i] = static_cast<std::int32_t>(rng.range(-100, 100));
    b[i] = static_cast<std::int32_t>(rng.range(-30000, 30000));
  }
  const std::int32_t* q = a.data();
  const std::int32_t* row = b.data();
  const hdc::kernels::DimRun all{0, dims};
  std::int64_t out = 0;
  for (auto _ : state) {
    hdc::kernels::active().dot_tile(&q, 1, {&row, 1}, &all, 1, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_IntDot)->Arg(4096);

void BM_EncodeGeneric(benchmark::State& state) {
  enc::EncoderConfig cfg;
  cfg.dims = static_cast<std::size_t>(state.range(0));
  enc::GenericEncoder encoder(cfg);
  Rng rng(6);
  std::vector<float> sample(128);
  for (auto& v : sample) v = static_cast<float>(rng.uniform());
  const std::vector<std::vector<float>> fit{{0.0f, 1.0f}};
  encoder.fit(fit);
  for (auto _ : state) benchmark::DoNotOptimize(encoder.encode(sample));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_EncodeGeneric)->Arg(1024)->Arg(4096);

void BM_ClassifierPredict(benchmark::State& state) {
  const std::size_t dims = 4096, classes = 16;
  Rng rng(7);
  std::vector<hdc::IntHV> train;
  std::vector<int> labels;
  for (std::size_t c = 0; c < classes; ++c)
    for (int i = 0; i < 4; ++i) {
      train.push_back(hdc::BinaryHV::random(dims, rng).to_int());
      labels.push_back(static_cast<int>(c));
    }
  model::HdcClassifier clf(dims, classes);
  clf.train_init(train, labels);
  const auto q = hdc::BinaryHV::random(dims, rng).to_int();
  for (auto _ : state) benchmark::DoNotOptimize(clf.predict(q));
}
BENCHMARK(BM_ClassifierPredict);

void BM_BinaryModelPredict(benchmark::State& state) {
  // 1-bit packed fast path vs BM_ClassifierPredict's int32 path.
  const std::size_t dims = 4096, classes = 16;
  Rng rng(8);
  std::vector<hdc::IntHV> train;
  std::vector<int> labels;
  for (std::size_t c = 0; c < classes; ++c)
    for (int i = 0; i < 4; ++i) {
      train.push_back(hdc::BinaryHV::random(dims, rng).to_int());
      labels.push_back(static_cast<int>(c));
    }
  model::HdcClassifier clf(dims, classes);
  clf.train_init(train, labels);
  const model::BinaryModel fast(clf);
  const auto q = hdc::BinaryHV::random(dims, rng);
  for (auto _ : state) benchmark::DoNotOptimize(fast.predict_packed(q));
}
BENCHMARK(BM_BinaryModelPredict);

}  // namespace

BENCHMARK_MAIN();
