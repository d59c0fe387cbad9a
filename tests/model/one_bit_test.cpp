// The fully binary operating point (Figure 6 at 1 bit): sign class memory
// from HdcClassifier::quantize(1), scored through the one dot tile against
// the sign of each query, as generic_infer --binary runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "kernel_backends.h"
#include "model/hdc_classifier.h"

namespace generic::model {
namespace {

/// Sign bits of `v`: bit i set when v[i] >= 0, so 0 counts as +1.
hdc::BinaryHV sign_bits(const hdc::IntHV& v) {
  hdc::BinaryHV out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.set(i, v[i] >= 0);
  return out;
}

/// `v` with every value replaced by its sign, 0 by +1.
hdc::IntHV signed_query(hdc::IntHV v) {
  for (auto& x : v) x = x >= 0 ? 1 : -1;
  return v;
}

/// Packed XOR+popcount search: the class nearest to `q` in Hamming
/// distance, ties to the lowest index. `ties` counts queries whose nearest
/// distance more than one class shares.
int packed_nearest(const hdc::BinaryHV& q,
                   const std::vector<hdc::BinaryHV>& classes,
                   std::size_t& ties) {
  std::vector<std::size_t> d;
  for (const auto& c : classes) d.push_back(q.hamming(c));
  const auto best = std::min_element(d.begin(), d.end());
  ties += std::count(d.begin(), d.end(), *best) > 1;
  return static_cast<int>(best - d.begin());
}

TEST(OneBitModel, SignQueryMatchesNearestHammingOnEveryBackend) {
  // Every sign row has Updated norm D, so a class's score rises strictly
  // with its dot D - 2 * hamming, and the first-max argmax breaks ties
  // toward the lowest class, as the reference does. Rows and queries carry
  // zeros, which both sides send to +1. Class 4 copies class 1, so every
  // query near either ties; queries halfway between two classes tie
  // whenever the classes differ in an even number of dims.
  test::BackendGuard guard;
  constexpr std::size_t kClasses = 6;
  const std::pair<std::size_t, std::size_t> halfway[] = {
      {0, 2}, {2, 3}, {1, 5}, {3, 5}, {0, 5}};
  for (std::size_t dims : {std::size_t{1024}, std::size_t{1152}}) {
    Rng rng(dims);
    HdcClassifier clf(dims, kClasses);
    std::vector<hdc::BinaryHV> bits;
    for (std::size_t c = 0; c < kClasses; ++c) {
      hdc::IntHV row(dims);
      if (c == 4) {
        row = clf.class_vector(1);
      } else {
        for (auto& v : row) v = static_cast<std::int32_t>(rng.range(-3, 3));
      }
      bits.push_back(sign_bits(row));
      clf.set_class_vector(c, std::move(row));
    }
    clf.quantize(1);

    std::vector<hdc::IntHV> queries;
    for (std::size_t c = 0; c < kClasses; ++c)
      for (int rep = 0; rep < 3; ++rep) {
        hdc::IntHV q(dims);
        for (std::size_t j = 0; j < dims; ++j)
          q[j] = static_cast<std::int32_t>(2 * bits[c].bipolar(j) +
                                           rng.range(-3, 3));
        queries.push_back(std::move(q));
      }
    for (const auto& [a, b] : halfway)
      for (int rep = 0; rep < 3; ++rep) {
        // Where a and b differ, take a's sign at every other such dim and
        // b's at the rest; a -1 keeps a magnitude of at least 1.
        hdc::IntHV q(dims);
        bool from_a = rep % 2 == 0;
        for (std::size_t j = 0; j < dims; ++j) {
          int sign = bits[a].bipolar(j);
          if (bits[a].bit(j) != bits[b].bit(j)) {
            sign = from_a ? bits[a].bipolar(j) : bits[b].bipolar(j);
            from_a = !from_a;
          }
          q[j] = static_cast<std::int32_t>(sign > 0 ? rng.range(0, 3)
                                                    : -rng.range(1, 3));
        }
        queries.push_back(std::move(q));
      }

    std::size_t ties = 0;
    std::vector<int> want;
    for (const auto& q : queries)
      want.push_back(packed_nearest(sign_bits(q), bits, ties));
    // Six queries near classes 1 and 4, and most of the halfway ones.
    EXPECT_GE(ties, 10u) << "dims=" << dims;

    for (hdc::kernels::Backend backend : test::available_backends()) {
      hdc::kernels::set_backend(backend);
      for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(clf.predict(signed_query(queries[i])), want[i])
            << "dims=" << dims << " backend="
            << hdc::kernels::to_string(backend) << " query=" << i;
    }
  }
}

TEST(OneBitModel, AccuracyAtBothOperatingPoints) {
  // Figure 6's premise: sign *models* barely lose accuracy. Taking the
  // sign of the query too (the fully binary point) costs several more
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
  HdcClassifier sign = clf;
  sign.quantize(1);
  std::size_t full_hits = 0, sign_hits = 0, binary_hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    full_hits += clf.predict(test[i]) == ds.test_y[i];
    sign_hits += sign.predict(test[i]) == ds.test_y[i];
    binary_hits += sign.predict(signed_query(test[i])) == ds.test_y[i];
  }
  const auto n = static_cast<double>(test.size());
  const double full = static_cast<double>(full_hits) / n;
  EXPECT_GT(static_cast<double>(sign_hits) / n, full - 0.08);
  EXPECT_GT(static_cast<double>(binary_hits) / n, full - 0.20);
  EXPECT_GT(static_cast<double>(binary_hits) / n,
            2.0 / static_cast<double>(ds.num_classes));
}

}  // namespace
}  // namespace generic::model
