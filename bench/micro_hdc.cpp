// Micro-benchmarks (google-benchmark) of the HDC primitive operations that
// dominate the software stack: random generation, binding, permutation,
// bundling, encoding and similarity search. Useful for spotting regressions
// in the kernels the Table 1 harness spends its time in, plus the
// checkpoint path's CRC and blob round trips.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/rng.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"
#include "hdc/kernels.h"
#include "lifecycle/checkpoint_store.h"
#include "model/binary_model.h"
#include "model/hdc_classifier.h"
#include "model/model_io.h"

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
  const void* q = a.data();
  const std::int32_t* row = b.data();
  const hdc::kernels::DimRun all{0, dims};
  std::int64_t out = 0;
  for (auto _ : state) {
    hdc::kernels::active().dot_tile({&q}, 1, {&row, 1}, &all, 1, &out);
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
  clf.train_batch(train, labels, global_pool());
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
  clf.train_batch(train, labels, global_pool());
  const model::BinaryModel fast(clf);
  const auto q = hdc::BinaryHV::random(dims, rng);
  for (auto _ : state) benchmark::DoNotOptimize(fast.predict_packed(q));
}
BENCHMARK(BM_BinaryModelPredict);

/// 10 classes x 4096 dims of seeded values: the learn_rounds checkpoint.
model::HdcClassifier checkpoint_sized_model() {
  const std::size_t dims = 4096, classes = 10;
  Rng rng(9);
  model::HdcClassifier clf(dims, classes);
  for (std::size_t c = 0; c < classes; ++c) {
    hdc::IntHV row(dims);
    for (auto& v : row) v = static_cast<std::int32_t>(rng.range(-2000, 2000));
    clf.set_class_vector(c, std::move(row));
  }
  clf.recompute_norms();
  return clf;
}

void BM_Crc32(benchmark::State& state) {
  // 163916 bytes is one GCKP file at 10 x 4096.
  Rng rng(10);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state)
    benchmark::DoNotOptimize(model::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(163916);

void BM_ClassifierBlobRoundTrip(benchmark::State& state) {
  const auto clf = checkpoint_sized_model();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        model::deserialize_classifier(model::serialize_classifier(clf)));
}
BENCHMARK(BM_ClassifierBlobRoundTrip);

void BM_CheckpointSaveLoad(benchmark::State& state) {
  const auto clf = checkpoint_sized_model();
  const auto dir = std::filesystem::temp_directory_path() / "micro_hdc_ckpt";
  std::filesystem::remove_all(dir);
  lifecycle::CheckpointStore store(dir.string(), 1);
  std::uint64_t version = 0;
  for (auto _ : state) {
    ++version;
    store.save(clf, version, version);
    benchmark::DoNotOptimize(store.load_latest());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointSaveLoad)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
