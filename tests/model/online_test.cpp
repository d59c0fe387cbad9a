// Online (single-sample) adaptation tests — the continuous-learning mode
// of an always-on edge node, and its ASIC-side accounting.
#include <gtest/gtest.h>

#include "arch/generic_asic.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

namespace generic::model {
namespace {

TEST(OnlineUpdate, CorrectPredictionLeavesModelUntouched) {
  HdcClassifier clf(256, 2, 128);
  hdc::IntHV a(256, 0), b(256, 0);
  a[0] = 10;
  b[1] = 10;
  const std::vector<hdc::IntHV> enc{a, b};
  const std::vector<int> labels{0, 1};
  clf.train_batch(enc, labels, global_pool());
  const auto before = clf.class_vector(0);
  EXPECT_FALSE(clf.online_update(a, 0));
  EXPECT_EQ(clf.class_vector(0), before);
}

TEST(OnlineUpdate, MispredictionMovesBoundary) {
  HdcClassifier clf(256, 2, 128);
  hdc::IntHV a(256, 0), b(256, 0);
  a[0] = 10;
  b[1] = 10;
  const std::vector<hdc::IntHV> enc{a, b};
  const std::vector<int> labels{0, 1};
  clf.train_batch(enc, labels, global_pool());
  // Claim `a` belongs to class 1: the model must update both classes and
  // keep its norms exact.
  EXPECT_TRUE(clf.online_update(a, 1));
  EXPECT_EQ(clf.class_vector(1)[0], 10);
  EXPECT_EQ(clf.class_vector(0)[0], 0);
  const auto n0 = clf.chunk_norm(0, 0);
  clf.recompute_norms();
  EXPECT_EQ(clf.chunk_norm(0, 0), n0);
}

TEST(OnlineUpdate, LabelValidation) {
  HdcClassifier clf(256, 2, 128);
  hdc::IntHV q(256, 0);
  EXPECT_THROW(clf.online_update(q, -1), std::invalid_argument);
  EXPECT_THROW(clf.online_update(q, 2), std::invalid_argument);
}

TEST(OnlineUpdate, StreamAdaptationRecoversFromDrift) {
  // Train on half the classes' data only, then stream the rest online:
  // accuracy on a held-out slice must improve.
  const auto ds = data::make_benchmark("EMG");
  enc::EncoderConfig cfg;
  cfg.dims = 2048;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);

  const std::size_t half = train.size() / 2;
  HdcClassifier clf(2048, ds.num_classes);
  clf.train_batch(std::span(train.data(), half),
                 std::span(ds.train_y.data(), half), global_pool());
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
      hits += clf.predict(test[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(test.size());
  };
  const double before = acc();
  for (std::size_t i = half; i < train.size(); ++i)
    clf.online_update(train[i], ds.train_y[i]);
  EXPECT_GE(acc(), before);
}


TEST(OnlineUpdateAdaptive, ConvergesAtLeastAsWellAsUnitUpdates) {
  // Same drift scenario as StreamAdaptationRecoversFromDrift, comparing
  // the similarity-weighted extension against unit updates.
  const auto ds = data::make_benchmark("EMG");
  enc::EncoderConfig cfg;
  cfg.dims = 2048;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  const std::size_t half = train.size() / 2;

  auto run = [&](bool adaptive) {
    HdcClassifier clf(2048, ds.num_classes);
    clf.train_batch(std::span(train.data(), half),
                   std::span(ds.train_y.data(), half), global_pool());
    for (std::size_t i = half; i < train.size(); ++i) {
      if (adaptive)
        clf.online_update_adaptive(train[i], ds.train_y[i]);
      else
        clf.online_update(train[i], ds.train_y[i]);
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
      hits += clf.predict(test[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(test.size());
  };
  EXPECT_GE(run(true), run(false) - 0.03);
}

TEST(OnlineUpdateAdaptive, NoChangeOnCorrectPrediction) {
  HdcClassifier clf(256, 2, 128);
  hdc::IntHV a(256, 0), b(256, 0);
  a[0] = 10;
  b[1] = 10;
  const std::vector<hdc::IntHV> enc{a, b};
  const std::vector<int> labels{0, 1};
  clf.train_batch(enc, labels, global_pool());
  const auto before = clf.class_vector(0);
  EXPECT_FALSE(clf.online_update_adaptive(a, 0));
  EXPECT_EQ(clf.class_vector(0), before);
  EXPECT_THROW(clf.online_update_adaptive(a, 7), std::invalid_argument);
}

TEST(OnlineUpdateAdaptive, UpdateMagnitudeBoundedByEncoding) {
  // Weights live in [0,2] into the right class and [0,1] out of the wrong
  // one; no element may move by more than 2x the encoding value.
  HdcClassifier clf(256, 2, 128);
  hdc::IntHV a(256, 0), b(256, 0);
  for (std::size_t i = 0; i < 256; ++i) {
    a[i] = (i % 2) ? 4 : -4;
    b[i] = (i % 2) ? -4 : 4;
  }
  const std::vector<hdc::IntHV> enc{a, b};
  const std::vector<int> labels{0, 1};
  clf.train_batch(enc, labels, global_pool());
  const auto before0 = clf.class_vector(0);
  EXPECT_TRUE(clf.online_update_adaptive(b, 0));  // force a misprediction
  for (std::size_t j = 0; j < 256; ++j) {
    const auto delta = std::abs(clf.class_vector(0)[j] - before0[j]);
    EXPECT_LE(delta, 2 * std::abs(b[j]) + 1) << j;
  }
}

TEST(AsicOnlineUpdate, CountsInferencePlusUpdateCycles) {
  const auto ds = data::make_benchmark("PAGE");
  arch::AppSpec spec;
  spec.dims = 1024;
  spec.features = ds.num_features();
  spec.classes = ds.num_classes;
  arch::GenericAsic asic(spec);
  asic.train(ds.train_x, ds.train_y, 3);
  asic.reset_counts();

  arch::CycleModel cm;
  const auto infer_cost = cm.infer_input(spec).cycles;
  const auto update_cost = cm.retrain_update(spec).cycles;

  // Feed samples with a deliberately wrong label until one update fires.
  std::uint64_t expected = 0;
  bool updated = false;
  for (std::size_t i = 0; i < ds.test_x.size() && !updated; ++i) {
    const int pred = asic.online_update(
        ds.test_x[i], (ds.test_y[i] + 1) % static_cast<int>(ds.num_classes));
    expected += infer_cost;
    if (pred != (ds.test_y[i] + 1) % static_cast<int>(ds.num_classes)) {
      expected += update_cost;
      updated = true;
    }
  }
  EXPECT_TRUE(updated);
  EXPECT_EQ(asic.counts().cycles, expected);
}

TEST(AsicOnlineUpdate, ValidatesLabel) {
  const auto ds = data::make_benchmark("PAGE");
  arch::AppSpec spec;
  spec.dims = 1024;
  spec.features = ds.num_features();
  spec.classes = ds.num_classes;
  arch::GenericAsic asic(spec);
  asic.train(ds.train_x, ds.train_y, 2);
  EXPECT_THROW(asic.online_update(ds.test_x[0], 99), std::invalid_argument);
}

TEST(CycleModelBurst, FirstLoadOnlyExposedOnce) {
  arch::AppSpec spec;
  spec.dims = 2048;
  spec.features = 100;
  spec.classes = 4;
  arch::CycleModel cm;
  const auto one = cm.infer_input(spec);
  const auto burst = cm.infer_burst(spec, 50);
  EXPECT_EQ(burst.cycles, one.cycles * 50 + spec.features);
  EXPECT_EQ(burst.mac_ops, one.mac_ops * 50);
  EXPECT_EQ(cm.infer_burst(spec, 0).cycles, 0u);
  // Throughput benefit: per-input burst latency < isolated load+process.
  const double per_input_burst =
      static_cast<double>(burst.cycles) / 50.0;
  EXPECT_LT(per_input_burst,
            static_cast<double>(one.cycles + spec.features));
}

}  // namespace
}  // namespace generic::model
