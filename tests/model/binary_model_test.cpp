#include "model/binary_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

namespace generic::model {
namespace {

TEST(BinaryModel, BinarizeSignConvention) {
  const hdc::IntHV v{5, -3, 0, -1, 7};
  const auto b = BinaryModel::binarize(v);
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));  // zero maps to +1
  EXPECT_FALSE(b.bit(3));
  EXPECT_TRUE(b.bit(4));
}

TEST(BinaryModel, MatchesOneBitQuantizedClassifier) {
  // A BinaryModel must agree exactly with the int-domain classifier after
  // quantize(1) when the query is also binarized: identical sign algebra,
  // identical norms (all D), so identical argmax modulo ties.
  Rng rng(3);
  HdcClassifier clf(1024, 4);
  std::vector<hdc::IntHV> enc;
  std::vector<int> labels;
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 10; ++i) {
      enc.push_back(hdc::BinaryHV::random(1024, rng).to_int());
      labels.push_back(c);
    }
  clf.train_batch(enc, labels, global_pool());
  BinaryModel fast(clf);
  clf.quantize(1);
  for (int i = 0; i < 40; ++i) {
    const auto q = hdc::BinaryHV::random(1024, rng);
    const auto qi = q.to_int();
    EXPECT_EQ(fast.predict_packed(q), clf.predict(qi)) << i;
  }
}

TEST(BinaryModel, QueryDimensionValidated) {
  HdcClassifier clf(256, 2, 128);
  BinaryModel fast(clf);
  hdc::BinaryHV wrong(128);
  EXPECT_THROW(fast.predict_packed(wrong), std::invalid_argument);
}

TEST(BinaryModel, AccuracyAtBothOperatingPoints) {
  // Figure 6's premise: sign *models* barely lose accuracy. Binarizing the
  // query too (the fully-binary XOR+popcount point) costs several more
  // points — the known trade of fully binary HDC inference.
  const auto ds = data::make_benchmark("UCIHAR");
  enc::EncoderConfig cfg;
  cfg.dims = 2048;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  HdcClassifier clf(2048, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());
  BinaryModel fast(clf);
  // The sign model with full-precision queries is the quantize(1) route.
  HdcClassifier sign = clf;
  sign.quantize(1);
  std::size_t full_hits = 0, sign_hits = 0, binary_hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    full_hits += clf.predict(test[i]) == ds.test_y[i];
    sign_hits += sign.predict(test[i]) == ds.test_y[i];
    binary_hits += fast.predict(test[i]) == ds.test_y[i];
  }
  const auto n = static_cast<double>(test.size());
  const double full = static_cast<double>(full_hits) / n;
  EXPECT_GT(static_cast<double>(sign_hits) / n, full - 0.08);
  EXPECT_GT(static_cast<double>(binary_hits) / n, full - 0.20);
  EXPECT_GT(static_cast<double>(binary_hits) / n,
            2.0 / static_cast<double>(ds.num_classes));
}

TEST(BinaryModel, GeometryPreserved) {
  HdcClassifier clf(512, 3, 128);
  BinaryModel fast(clf);
  EXPECT_EQ(fast.dims(), 512u);
  EXPECT_EQ(fast.num_classes(), 3u);
  EXPECT_EQ(fast.class_vector(0).dims(), 512u);
}

}  // namespace
}  // namespace generic::model
