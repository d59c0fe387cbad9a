// DriftStream: the determinism contract (sample(i, regime) is a pure
// function of (spec, i, regime), labels independent of regime) and the
// semantic contract (a model frozen on the pre-shift regime measurably
// degrades post-shift — the degradation src/lifecycle exists to repair).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/drift.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

namespace generic::data {
namespace {

DriftStreamSpec tiny_spec() {
  DriftStreamSpec spec;
  spec.classes = 4;
  spec.features = 32;
  spec.seed = 0xD21F7;
  return spec;
}

TEST(DriftStreamTest, LabelsAreDeterministicAndRegimeIndependent) {
  const DriftStreamSpec spec = tiny_spec();
  const DriftStream a(spec);
  const DriftStream b(spec);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const int label = a.label_at(i);
    EXPECT_EQ(b.label_at(i), label) << i;
    EXPECT_EQ(a.sample(i, false).label, label) << i;
    EXPECT_EQ(a.sample(i, true).label, label) << i;
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(spec.classes));
  }
}

TEST(DriftStreamTest, SamplesArePureFunctionsOfIndexAndRegime) {
  const DriftStream stream(tiny_spec());
  for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{17},
                          std::uint64_t{4096}, std::uint64_t{1} << 40}) {
    for (const bool regime : {false, true}) {
      const auto s1 = stream.sample(i, regime);
      const auto s2 = stream.sample(i, regime);
      EXPECT_EQ(s1.label, s2.label);
      ASSERT_EQ(s1.x.size(), tiny_spec().features);
      EXPECT_EQ(s1.x, s2.x) << "index " << i << " regime " << regime;
    }
    // The shift moves features, not labels: same index, different regime,
    // different x (severity 0.75 moves every class template).
    EXPECT_NE(stream.sample(i, false).x, stream.sample(i, true).x);
  }
}

TEST(DriftStreamTest, FillMatchesSample) {
  const DriftStream stream(tiny_spec());
  std::vector<std::vector<float>> xs;
  std::vector<int> ys;
  stream.fill(100, 32, true, xs, ys);
  ASSERT_EQ(xs.size(), 32u);
  ASSERT_EQ(ys.size(), 32u);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto s = stream.sample(100 + i, true);
    EXPECT_EQ(xs[i], s.x) << i;
    EXPECT_EQ(ys[i], s.label) << i;
  }
}

TEST(DriftStreamTest, SeverityZeroMeansNoShift) {
  DriftStreamSpec spec = tiny_spec();
  spec.severity = 0.0;
  const DriftStream stream(spec);
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(stream.sample(i, false).x, stream.sample(i, true).x) << i;
}

TEST(DriftStreamTest, ShiftDegradesAFrozenModel) {
  DriftStreamSpec spec;  // default 6 classes / 64 features / severity 0.75
  const DriftStream stream(spec);
  // Same split sizes → the two test sets share indices (same labels, same
  // noise draws); only the regime templates differ between them.
  const auto pre = stream.make_dataset(400, 160, false);
  const auto post = stream.make_dataset(400, 160, true);

  ThreadPool pool(2);
  enc::EncoderConfig ecfg;
  ecfg.dims = 1024;
  enc::GenericEncoder encoder(ecfg);
  encoder.fit(pre.train_x);
  const auto train = encoder.encode_batch(pre.train_x, pool);
  model::HdcClassifier clf(ecfg.dims, spec.classes);
  clf.fit_parallel(train, pre.train_y, 5, pool);

  auto accuracy = [&](const Dataset& ds) {
    const auto qs = encoder.encode_batch(ds.test_x, pool);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < qs.size(); ++i)
      hits += clf.predict(qs[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(qs.size());
  };

  const double pre_acc = accuracy(pre);
  const double post_acc = accuracy(post);
  EXPECT_GT(pre_acc, 0.85) << "frozen model should master its own regime";
  EXPECT_GT(pre_acc - post_acc, 0.15)
      << "pre " << pre_acc << " post " << post_acc
      << ": shift should strand the frozen model";
}

}  // namespace
}  // namespace generic::data
