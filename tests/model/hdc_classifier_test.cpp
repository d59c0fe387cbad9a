#include "model/hdc_classifier.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "resilience/fault_model.h"

namespace generic::model {
namespace {

/// Synthetic encodings: per-class random prototypes + noise, mimicking what
/// an encoder emits for a well-separated dataset.
struct Synth {
  std::vector<hdc::IntHV> train, test;
  std::vector<int> train_y, test_y;
};

Synth make_synth(std::size_t dims, std::size_t classes, std::size_t per_class,
                 double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<hdc::BinaryHV> protos;
  for (std::size_t c = 0; c < classes; ++c)
    protos.push_back(hdc::BinaryHV::random(dims, rng));
  Synth s;
  auto sample = [&](std::size_t c) {
    hdc::BinaryHV hv = protos[c];
    for (std::size_t i = 0; i < dims; ++i)
      if (rng.bernoulli(noise)) hv.flip(i);
    return hv.to_int();
  };
  for (std::size_t c = 0; c < classes; ++c)
    for (std::size_t i = 0; i < per_class; ++i) {
      s.train.push_back(sample(c));
      s.train_y.push_back(static_cast<int>(c));
      if (i % 3 == 0) {
        s.test.push_back(sample(c));
        s.test_y.push_back(static_cast<int>(c));
      }
    }
  return s;
}

TEST(HdcClassifier, ConstructorValidation) {
  EXPECT_THROW(HdcClassifier(0, 2), std::invalid_argument);
  EXPECT_THROW(HdcClassifier(256, 0), std::invalid_argument);
  EXPECT_THROW(HdcClassifier(200, 2, 128), std::invalid_argument);  // not multiple
  HdcClassifier ok(512, 4, 128);
  EXPECT_EQ(ok.num_chunks(), 4u);
}

TEST(HdcClassifier, OneShotTrainingSeparatesCleanPrototypes) {
  const auto s = make_synth(1024, 4, 20, 0.1, 5);
  HdcClassifier clf(1024, 4);
  clf.train_batch(s.train, s.train_y, global_pool());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < s.test.size(); ++i)
    hits += clf.predict(s.test[i]) == s.test_y[i];
  EXPECT_EQ(hits, s.test.size());
}

TEST(HdcClassifier, RetrainingReducesTrainErrors) {
  const auto s = make_synth(1024, 6, 30, 0.35, 7);
  HdcClassifier clf(1024, 6);
  clf.train_batch(s.train, s.train_y, global_pool());
  ThreadPool& pool = global_pool();
  const std::size_t e1 = clf.retrain_epoch_parallel(s.train, s.train_y, pool);
  std::size_t last = e1;
  for (int i = 0; i < 10; ++i)
    last = clf.retrain_epoch_parallel(s.train, s.train_y, pool);
  EXPECT_LE(last, e1);
}

TEST(HdcClassifier, FitStopsEarlyWhenConverged) {
  const auto s = make_synth(1024, 3, 10, 0.05, 9);
  HdcClassifier clf(1024, 3);
  clf.fit_parallel(s.train, s.train_y, 50, global_pool());
  // Converged model: one more epoch makes zero updates.
  EXPECT_EQ(clf.retrain_epoch_parallel(s.train, s.train_y, global_pool()), 0u);
}

TEST(HdcClassifier, TrainInitMatchesManualBundling) {
  const auto s = make_synth(256, 2, 5, 0.2, 11);
  HdcClassifier clf(256, 2, 64);
  clf.train_batch(s.train, s.train_y, global_pool());
  hdc::IntHV manual(256, 0);
  for (std::size_t i = 0; i < s.train.size(); ++i)
    if (s.train_y[i] == 0) hdc::add_into(manual, s.train[i]);
  EXPECT_EQ(clf.class_vector(0), manual);
}

TEST(HdcClassifier, ChunkNormsSumToFullNorm) {
  const auto s = make_synth(512, 3, 8, 0.3, 13);
  HdcClassifier clf(512, 3, 128);
  clf.train_batch(s.train, s.train_y, global_pool());
  for (std::size_t c = 0; c < 3; ++c) {
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < clf.num_chunks(); ++k)
      sum += clf.chunk_norm(c, k);
    EXPECT_EQ(sum, hdc::norm2(clf.class_vector(c)));
  }
}

TEST(HdcClassifier, ChunkNormsStayExactAfterRetraining) {
  // The incremental norm maintenance in retraining must agree with a
  // full recomputation.
  const auto s = make_synth(512, 4, 25, 0.4, 15);
  HdcClassifier clf(512, 4, 128);
  clf.train_batch(s.train, s.train_y, global_pool());
  clf.retrain_epoch_parallel(s.train, s.train_y, global_pool());
  std::vector<std::vector<std::int64_t>> saved;
  for (std::size_t c = 0; c < 4; ++c) {
    saved.emplace_back();
    for (std::size_t k = 0; k < clf.num_chunks(); ++k)
      saved.back().push_back(clf.chunk_norm(c, k));
  }
  clf.recompute_norms();
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t k = 0; k < clf.num_chunks(); ++k)
      EXPECT_EQ(clf.chunk_norm(c, k), saved[c][k]) << c << "," << k;
}

TEST(HdcClassifier, ReducedDimsUpdatedBeatsConstant) {
  // Figure 5's claim: with few dimensions, Updated sub-norms dominate the
  // stale Constant norm. Build a model where class norms are *unbalanced*
  // across classes so the stale norm misleads.
  const auto ds = data::make_benchmark("ISOLET");
  enc::EncoderConfig cfg;
  cfg.dims = 2048;
  auto encoder = enc::make_encoder(enc::EncoderKind::kGeneric, cfg);
  encoder->fit(ds.train_x);
  const auto train = encoder->encode_batch(ds.train_x);
  const auto test = encoder->encode_batch(ds.test_x);
  HdcClassifier clf(2048, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 10, global_pool());
  auto acc = [&](std::size_t dims_used, NormMode mode) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
      hits += clf.scan(test[i], clf.prefix_mask(dims_used), mode).cls ==
              ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(test.size());
  };
  const double updated = acc(512, NormMode::kUpdated);
  const double constant = acc(512, NormMode::kConstant);
  EXPECT_GE(updated + 1e-9, constant);
  // Full dims: both modes identical by construction.
  EXPECT_DOUBLE_EQ(acc(2048, NormMode::kUpdated),
                   acc(2048, NormMode::kConstant));
}

TEST(HdcClassifier, ScoreValidation) {
  HdcClassifier clf(256, 2, 64);
  hdc::IntHV q(256, 0);
  EXPECT_THROW(clf.prefix_mask(100), std::invalid_argument);
  EXPECT_THROW(clf.prefix_mask(0), std::invalid_argument);
  EXPECT_THROW(clf.prefix_mask(320), std::invalid_argument);
  EXPECT_THROW(clf.prefix_mask(128, {true, true}), std::invalid_argument);
  hdc::IntHV bad(128, 0);
  EXPECT_THROW(clf.scan(bad, clf.prefix_mask(128)), std::invalid_argument);
  EXPECT_THROW(clf.predict(bad), std::invalid_argument);
  EXPECT_THROW(clf.scan(q, {true, true}), std::invalid_argument);
  EXPECT_THROW(clf.scan(q, {false, false, false, false}),
               std::invalid_argument);
  // The batch checks the same mask and every query before scoring any.
  const hdc::IntHV* rows[] = {&q, &bad};
  EXPECT_THROW(clf.scan_batch(rows, clf.prefix_mask(256), NormMode::kUpdated,
                              global_pool()),
               std::invalid_argument);
  EXPECT_THROW(clf.scan_batch({rows, 1}, {true, true}, NormMode::kUpdated,
                              global_pool()),
               std::invalid_argument);
}

// A label outside [0, num_classes) must be rejected before any class
// vector or sub-norm is written: a half-applied update would leave the
// norm2 memory disagreeing with the class vectors, which BlockGuard reads
// as corruption.
TEST(HdcClassifier, BadLabelLeavesClassMemoryUntouched) {
  const auto s = make_synth(512, 3, 10, 0.45, 23);
  HdcClassifier trained(512, 3);
  trained.train_batch(s.train, s.train_y, global_pool());
  ThreadPool pool(2);
  for (const int bad : {3, -1}) {
    // Every earlier sample is valid, so a late check would already have
    // bundled or updated before reaching the bad one.
    std::vector<int> labels = s.train_y;
    labels.back() = bad;
    using Step = std::function<void(HdcClassifier&)>;
    const std::pair<const char*, Step> steps[] = {
        {"train_batch",
         [&](HdcClassifier& m) { m.train_batch(s.train, labels, pool); }},
        {"retrain_epoch_parallel",
         [&](HdcClassifier& m) {
           m.retrain_epoch_parallel(s.train, labels, pool);
         }},
    };
    for (const auto& [name, step] : steps) {
      HdcClassifier m = trained;
      EXPECT_THROW(step(m), std::invalid_argument) << name << " label=" << bad;
      for (std::size_t c = 0; c < m.num_classes(); ++c) {
        EXPECT_EQ(m.class_vector(c), trained.class_vector(c))
            << name << " label=" << bad << " class=" << c;
        for (std::size_t k = 0; k < m.num_chunks(); ++k)
          EXPECT_EQ(m.chunk_norm(c, k), trained.chunk_norm(c, k))
              << name << " label=" << bad << " class=" << c;
      }
    }
  }
}

class QuantizeTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeTest, ValuesFitBitWidthAndAccuracySurvives) {
  const int bw = GetParam();
  const auto s = make_synth(1024, 4, 30, 0.25, 17);
  HdcClassifier clf(1024, 4);
  clf.fit_parallel(s.train, s.train_y, 5, global_pool());
  clf.quantize(bw);
  EXPECT_EQ(clf.bit_width(), bw);
  const std::int32_t lim = bw == 1 ? 1 : (1 << (bw - 1)) - 1;
  for (std::size_t c = 0; c < 4; ++c)
    for (auto v : clf.class_vector(c)) {
      EXPECT_LE(v, lim);
      EXPECT_GE(v, bw == 1 ? -1 : -lim - 1);
    }
  // HDC models tolerate aggressive quantization (paper §4.3.4).
  std::size_t hits = 0;
  for (std::size_t i = 0; i < s.test.size(); ++i)
    hits += clf.predict(s.test[i]) == s.test_y[i];
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(s.test.size()),
            0.9)
      << "bw=" << bw;
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizeTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(HdcClassifier, QuantizeRejectsBadWidth) {
  HdcClassifier clf(256, 2, 64);
  EXPECT_THROW(clf.quantize(0), std::invalid_argument);
  EXPECT_THROW(clf.quantize(17), std::invalid_argument);
}

TEST(HdcClassifier, BitFlipsDegradeGracefully) {
  const auto s = make_synth(2048, 4, 30, 0.2, 19);
  HdcClassifier clf(2048, 4);
  clf.fit_parallel(s.train, s.train_y, 5, global_pool());
  clf.quantize(8);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < s.test.size(); ++i)
      hits += clf.predict(s.test[i]) == s.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(s.test.size());
  };
  const double clean = acc();
  Rng rng(33);
  // 0.5% flips: HDC shrugs this off
  resilience::inject(clf, {resilience::FaultKind::kTransient, 0.005}, rng);
  EXPECT_GT(acc(), clean - 0.15);
  HdcClassifier wrecked(2048, 4);
  wrecked.train_batch(s.train, s.train_y, global_pool());
  wrecked.quantize(8);
  Rng rng2(35);
  resilience::inject(wrecked, {resilience::FaultKind::kTransient, 0.5},
                     rng2);  // memory is now noise
  EXPECT_LT(acc(), 1.01);               // sanity; wrecked model is separate
}

TEST(HdcClassifier, ZeroRateInjectionIsIdentity) {
  const auto s = make_synth(512, 2, 10, 0.2, 21);
  HdcClassifier clf(512, 2, 128);
  clf.fit_parallel(s.train, s.train_y, 3, global_pool());
  const auto before = clf.class_vector(0);
  Rng rng(1);
  resilience::inject(clf, {resilience::FaultKind::kTransient, 0.0}, rng);
  EXPECT_EQ(clf.class_vector(0), before);
}

TEST(HdcClassifier, OneBitModelStaysBipolarUnderFlips) {
  const auto s = make_synth(512, 2, 10, 0.2, 23);
  HdcClassifier clf(512, 2, 128);
  clf.fit_parallel(s.train, s.train_y, 3, global_pool());
  clf.quantize(1);
  Rng rng(3);
  resilience::inject(clf, {resilience::FaultKind::kTransient, 0.3}, rng);
  for (std::size_t c = 0; c < 2; ++c)
    for (auto v : clf.class_vector(c)) EXPECT_TRUE(v == 1 || v == -1);
}

}  // namespace
}  // namespace generic::model
