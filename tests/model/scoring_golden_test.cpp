// Byte pin of the similarity search (§4.2.2, §4.3.3): the predicted class
// and the normalized margin of every query, rendered with %.17g, for every
// way a caller can score — each ladder rung with Updated and Constant
// norms, a prefix mask, a mask with holes, a single-chunk mask — over a
// seeded model quantized to 16, 8, 2 and 1 bits (one class left all-zero)
// plus a single-class model, and the exact-divider GenericAsic at two
// active dimension counts, under every available kernel backend. Any
// change to the scan's integer sums, its norm source or its tie-breaking
// shows up here as a byte diff.
// tests/golden.h says how to regenerate the fixture.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "arch/generic_asic.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden.h"
#include "hdc/hypervector.h"
#include "hdc/kernels.h"
#include "hdc/query_batch.h"
#include "kernel_backends.h"
#include "model/hdc_classifier.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::model {
namespace {

constexpr std::size_t kDims = 1024;  // 8 chunks of 128
constexpr std::size_t kChunk = 128;
constexpr std::size_t kClasses = 5;  // class 4 is never trained: all-zero

hdc::IntHV noisy(const hdc::IntHV& base, double flip, Rng& rng) {
  hdc::IntHV h = base;
  for (auto& v : h)
    if (rng.bernoulli(flip)) v = -v;
  return h;
}

struct Fixture {
  HdcClassifier clf{kDims, kClasses, kChunk};
  std::vector<hdc::IntHV> queries;
};

/// Seeded bipolar prototypes, a noisy training set over classes 0..3 with
/// two retraining epochs, and queries: noisy prototypes, one uniformly
/// random vector and the all-zero vector (every dot is 0).
Fixture make_fixture() {
  Fixture f;
  Rng rng(0x5C0E1ull);
  std::vector<hdc::IntHV> base(kClasses - 1, hdc::IntHV(kDims));
  for (auto& b : base)
    for (auto& v : b) v = rng.bernoulli(0.5) ? 1 : -1;
  std::vector<hdc::IntHV> train;
  std::vector<int> train_y;
  for (std::size_t c = 0; c < base.size(); ++c)
    for (int i = 0; i < 12; ++i) {
      train.push_back(noisy(base[c], 0.3, rng));
      train_y.push_back(static_cast<int>(c));
    }
  f.clf.train_batch(train, train_y, global_pool());
  for (int e = 0; e < 2; ++e)
    f.clf.retrain_epoch_parallel(train, train_y, global_pool());
  for (int i = 0; i < 10; ++i)
    f.queries.push_back(noisy(base[static_cast<std::size_t>(i) % base.size()],
                              0.4, rng));
  hdc::IntHV random(kDims);
  for (auto& v : random) v = static_cast<std::int32_t>(rng.range(-3, 3));
  f.queries.push_back(random);
  f.queries.push_back(hdc::IntHV(kDims, 0));
  return f;
}

/// Predictions with margins of one ladder rung, one query at a time.
std::vector<Prediction> rung_scan(const HdcClassifier& clf,
                                  const std::vector<hdc::IntHV>& queries,
                                  std::size_t dims, NormMode mode) {
  const std::vector<bool> mask = clf.prefix_mask(dims);
  std::vector<Prediction> out;
  for (const auto& q : queries) out.push_back(clf.scan(q, mask, mode));
  return out;
}

void render(std::string& out, const char* tag,
            const std::vector<Prediction>& preds) {
  char buf[160];
  for (std::size_t i = 0; i < preds.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s q=%zu cls=%d margin=%.17g\n", tag, i,
                  preds[i].cls, preds[i].margin);
    out += buf;
  }
}

/// Every scoring view of one model, in a fixed order.
std::string render_model(const HdcClassifier& clf,
                         const std::vector<hdc::IntHV>& queries,
                         ThreadPool& pool) {
  std::string out;
  char tag[64];
  // The serving ladder: halve from full dims down to one chunk.
  for (std::size_t dims = clf.dims(); dims >= kChunk; dims /= 2) {
    for (const NormMode mode : {NormMode::kUpdated, NormMode::kConstant}) {
      std::snprintf(tag, sizeof tag, "rung=%zu %s", dims,
                    mode == NormMode::kUpdated ? "updated" : "constant");
      render(out, tag, rung_scan(clf, queries, dims, mode));
    }
  }
  const std::size_t n = clf.num_chunks();
  std::vector<bool> holes(n, true);
  for (std::size_t k = 1; k < n; k += 3) holes[k] = false;
  std::vector<bool> single(n, false);
  single[n - 1] = true;
  const std::pair<const char*, std::vector<bool>> masks[] = {
      {"mask=prefix", clf.prefix_mask((n + 1) / 2 * kChunk)},
      {"mask=holes", holes},
      {"mask=single", single},
  };
  const hdc::QueryBatch table(queries, clf.dims());
  std::vector<std::size_t> rows(table.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  for (const auto& [name, mask] : masks)
    render(out, name,
           clf.scan_batch(table, rows, mask, NormMode::kUpdated, pool));
  return out;
}

/// Exact-divider ASIC trained on seeded float clusters, inferring at two
/// active dimension counts (and Constant norms at the smaller one).
std::string render_asic() {
  arch::AppSpec spec;
  spec.dims = kDims;
  spec.features = 16;
  spec.classes = 4;
  Rng rng(0xA51C5C0ull);
  std::vector<std::vector<float>> centers(spec.classes,
                                          std::vector<float>(spec.features));
  for (auto& c : centers)
    for (auto& v : c) v = static_cast<float>(rng.uniform(0.0, 10.0));
  auto sample = [&](std::size_t c) {
    std::vector<float> x = centers[c];
    for (auto& v : x) v += static_cast<float>(rng.normal(0.0, 2.0));
    return x;
  };
  std::vector<std::vector<float>> train_x, test_x;
  std::vector<int> train_y;
  for (std::size_t c = 0; c < spec.classes; ++c)
    for (int i = 0; i < 15; ++i) {
      train_x.push_back(sample(c));
      train_y.push_back(static_cast<int>(c));
    }
  for (int i = 0; i < 12; ++i)
    test_x.push_back(sample(static_cast<std::size_t>(i) % spec.classes));

  arch::GenericAsic asic(spec, /*seed=*/11);
  asic.set_exact_divider(true);
  asic.train(train_x, train_y, 3);
  std::string out;
  char buf[96];
  const std::pair<std::size_t, bool> points[] = {
      {kDims, false}, {384, false}, {384, true}};
  for (const auto& [dims, constant] : points) {
    asic.set_active_dims(dims, constant);
    for (std::size_t i = 0; i < test_x.size(); ++i) {
      std::snprintf(buf, sizeof buf, "asic dims=%zu %s q=%zu cls=%d\n", dims,
                    constant ? "constant" : "updated", i,
                    asic.infer(test_x[i]));
      out += buf;
    }
  }
  return out;
}

/// The pinned document: every scoring view of the fixture at each bit
/// width, of a single-class model, and of the exact-divider ASIC.
std::string scoring_document() {
  const Fixture f = make_fixture();
  ThreadPool pool(3);
  std::string doc;
  for (const int bw : {16, 8, 2, 1}) {
    HdcClassifier clf = f.clf;
    if (bw != 16) clf.quantize(bw);
    doc += "# bw=" + std::to_string(bw) + "\n";
    doc += render_model(clf, f.queries, pool);
  }
  // A single class wins every query with margin 0.
  HdcClassifier one(256, 1, kChunk);
  std::vector<hdc::IntHV> one_train;
  std::vector<hdc::IntHV> one_queries;
  for (std::size_t i = 0; i < 3; ++i) {
    hdc::IntHV h(256);
    for (std::size_t j = 0; j < h.size(); ++j)
      h[j] = static_cast<std::int32_t>((i + j) % 5) - 2;
    one_queries.push_back(h);
    one_train.push_back(std::move(h));
  }
  one.train_batch(one_train, std::vector<int>(one_train.size(), 0),
                  global_pool());
  doc += "# single-class\n";
  doc += render_model(one, one_queries, pool);
  doc += "# asic exact divider\n";
  doc += render_asic();
  return doc;
}

// Trained and scored under every available kernel backend: whichever dot
// tile runs, every byte must match the one fixture.
TEST(ScoringGolden, EveryScoringViewMatchesFixture) {
  test::BackendGuard guard;
  for (const hdc::kernels::Backend b : test::available_backends()) {
    SCOPED_TRACE(std::string(hdc::kernels::to_string(b)));
    hdc::kernels::set_backend(b);
    golden::expect_golden(scoring_document(), std::string(GENERIC_GOLDEN_DIR) +
                                                  "/scoring_views.txt");
  }
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

// A reduced rung is the mask of its chunk prefix, less any dead chunks:
// prefix_mask() must build exactly that, written out here chunk by chunk,
// for every chunk-multiple rung of a healthy and of a degraded model.
TEST(ScoringGolden, ReducedEqualsMaskedOnPrefix) {
  const HdcClassifier clf(kDims, kClasses, kChunk);
  const std::size_t n = clf.num_chunks();
  std::vector<bool> holes(n, true);
  holes[0] = holes[3] = holes[6] = false;
  for (const std::vector<bool>& ok : {std::vector<bool>{}, holes}) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<bool> want(n, false);
      for (std::size_t j = 0; j < k; ++j) want[j] = ok.empty() || ok[j];
      EXPECT_EQ(clf.prefix_mask(k * kChunk, ok), want)
          << "chunks=" << k << " holes=" << !ok.empty();
    }
  }
}

TEST(ScoringGolden, MarginBatchesMatchSerial) {
  const Fixture f = make_fixture();
  HdcClassifier clf = f.clf;
  clf.quantize(8);
  ThreadPool serial_pool(1);
  ThreadPool wide(7);
  for (std::size_t k = 1; k <= clf.num_chunks(); ++k) {
    const std::size_t dims = k * kChunk;
    const auto one = rung_scan(clf, f.queries, dims, NormMode::kUpdated);
    const auto many = clf.predict_masked_margin_batch(
        f.queries, clf.prefix_mask(dims), wide);
    ASSERT_EQ(many.size(), f.queries.size());
    for (std::size_t i = 0; i < f.queries.size(); ++i) {
      EXPECT_EQ(many[i].cls, one[i].cls);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(many[i].margin),
                std::bit_cast<std::uint64_t>(one[i].margin))
          << "dims=" << dims << " q=" << i;
    }
  }
  std::vector<bool> holes(clf.num_chunks(), true);
  holes[2] = holes[5] = false;
  const auto one = clf.predict_masked_margin_batch(f.queries, holes,
                                                   serial_pool);
  const auto many = clf.predict_masked_margin_batch(f.queries, holes, wide);
  for (std::size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_EQ(many[i].cls, clf.scan(f.queries[i], holes).cls);
    EXPECT_EQ(many[i].cls, one[i].cls);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(many[i].margin),
              std::bit_cast<std::uint64_t>(one[i].margin))
        << "q=" << i;
  }
}

}  // namespace
}  // namespace generic::model
