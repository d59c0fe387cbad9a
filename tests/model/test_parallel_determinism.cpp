// Lane-invariance suite for the learning and inference engine: every
// pooled entry point — encode_batch, train_batch, retrain_epoch_parallel,
// fit_parallel, predict_batch, the masked margin batch, HdcCluster::fit
// and labels, and run_hdc_classification — must produce BYTE-IDENTICAL
// models and predictions for every pool width, including pools far wider
// than the machine (threads ∈ {1, 2, 7, 16} on a possibly single-core
// host), and must equal a small test-local reference written from the
// paper's description rather than from the engine's code: per-sample
// encode(), one-shot training as a plain per-class hdc::add_into sum, a
// retraining epoch as a predict + move_sample loop in sample order,
// per-query predict(), and clustering epochs as per-point predict() plus
// the copy update. Parallelism is an execution detail, never an observable one
// (docs/parallelism.md).
//
// Two synthetic datasets with different structure exercise different
// encoder paths: a template dataset (positional structure, ids bound) and
// a markov symbol dataset (windowed n-gram structure).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "model/hdc_classifier.h"
#include "model/hdc_cluster.h"
#include "model/pipeline.h"

namespace generic::model {
namespace {

const std::size_t kLaneCounts[] = {1, 2, 7, 16};

/// Template dataset: 4 classes with positional means (§3.2 "templates").
data::Dataset make_template_dataset() {
  data::TemplateSpec spec;
  spec.classes = 4;
  spec.features = 32;
  spec.noise = 0.35;
  Rng rng(0x7E5701ul);
  const auto templates = data::make_templates(spec, rng);
  data::Dataset ds;
  ds.name = "tmpl";
  ds.num_classes = spec.classes;
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (int i = 0; i < 30; ++i) {
      ds.train_x.push_back(data::sample_template(templates[c], spec.noise, rng));
      ds.train_y.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 12; ++i) {
      ds.test_x.push_back(data::sample_template(templates[c], spec.noise, rng));
      ds.test_y.push_back(static_cast<int>(c));
    }
  }
  return ds;
}

/// Markov symbol dataset: class-specific transition statistics (§3.2
/// "markov symbols") — the windowed/n-gram encoder path.
data::Dataset make_markov_dataset() {
  data::MarkovSpec spec;
  spec.classes = 3;
  spec.features = 48;
  spec.alphabet = 8;
  Rng rng(0x7E5702ul);
  const auto bank = data::make_markov_bank(spec, rng);
  data::Dataset ds;
  ds.name = "markov";
  ds.num_classes = spec.classes;
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (int i = 0; i < 30; ++i) {
      ds.train_x.push_back(data::sample_markov(spec, bank, c, rng));
      ds.train_y.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 12; ++i) {
      ds.test_x.push_back(data::sample_markov(spec, bank, c, rng));
      ds.test_y.push_back(static_cast<int>(c));
    }
  }
  return ds;
}

enc::EncoderConfig small_config(bool use_ids) {
  enc::EncoderConfig cfg;
  cfg.dims = 512;  // 4 chunks of 128 — small but multi-chunk
  cfg.use_ids = use_ids;
  return cfg;
}

/// Every class accumulator and every stored chunk norm must match exactly
/// — integer equality, no tolerance.
void expect_models_identical(const HdcClassifier& a, const HdcClassifier& b,
                             const char* what, std::size_t lanes) {
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    EXPECT_EQ(a.class_vector(c), b.class_vector(c))
        << what << ": class " << c << " diverged at lanes=" << lanes;
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    for (std::size_t k = 0; k < a.num_chunks(); ++k)
      EXPECT_EQ(a.chunk_norm(c, k), b.chunk_norm(c, k))
          << what << ": norm (" << c << "," << k << ") at lanes=" << lanes;
}

/// The reference one-shot training: each class is the plain sum of its
/// samples' encodings.
HdcClassifier reference_init(std::span<const hdc::IntHV> encoded,
                             std::span<const int> labels, std::size_t classes) {
  std::vector<hdc::IntHV> sums(classes, hdc::IntHV(512, 0));
  for (std::size_t i = 0; i < encoded.size(); ++i)
    hdc::add_into(sums[static_cast<std::size_t>(labels[i])], encoded[i]);
  HdcClassifier ref(512, classes);
  for (std::size_t c = 0; c < classes; ++c)
    ref.set_class_vector(c, std::move(sums[c]));
  ref.recompute_norms();
  return ref;
}

/// The reference retraining epoch: score each sample in order and, on a
/// miss, move it from the predicted class to its own. Returns the number
/// of updates.
std::size_t reference_epoch(HdcClassifier& ref,
                            std::span<const hdc::IntHV> encoded,
                            std::span<const int> labels) {
  std::size_t updates = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const int pred = ref.predict(encoded[i]);
    if (pred == labels[i]) continue;
    ++updates;
    ref.move_sample(encoded[i], pred, labels[i]);
  }
  return updates;
}

/// Reference epochs until one makes no update, at most `epochs`; returns
/// the number of epochs that made an update.
std::size_t reference_retrain(HdcClassifier& ref,
                              std::span<const hdc::IntHV> encoded,
                              std::span<const int> labels,
                              std::size_t epochs) {
  std::size_t e = 0;
  for (; e < epochs; ++e)
    if (reference_epoch(ref, encoded, labels) == 0) break;
  return e;
}

/// The training labels with every fifth one moved to the next class, so
/// retraining has mispredictions to correct on both datasets (one-shot
/// training alone already separates the clean template set).
std::vector<int> noisy_labels(const data::Dataset& ds) {
  std::vector<int> labels = ds.train_y;
  for (std::size_t i = 0; i < labels.size(); i += 5)
    labels[i] = (labels[i] + 1) % static_cast<int>(ds.num_classes);
  return labels;
}

/// The reference clustering (§4.2.3): seed the centroids with the first k
/// points; each epoch assigns every point by predict() against the fixed
/// centroids while summing a copy model, stops when no assignment changed,
/// and otherwise replaces every centroid that drew a point with its copy.
struct ReferenceClusters {
  std::size_t epochs = 0;
  std::vector<int> labels;
  std::vector<hdc::IntHV> centroids;
};

ReferenceClusters reference_cluster(std::span<const hdc::IntHV> points,
                                    std::size_t k, std::size_t max_epochs) {
  const std::size_t dims = points[0].size();
  ReferenceClusters r;
  r.centroids.assign(points.begin(),
                     points.begin() + static_cast<std::ptrdiff_t>(k));
  auto model_of = [&] {
    HdcClassifier m(dims, k, dims);
    for (std::size_t c = 0; c < k; ++c) m.set_class_vector(c, r.centroids[c]);
    m.recompute_norms();
    return m;
  };
  std::vector<int> prev(points.size(), -1);
  for (; r.epochs < max_epochs; ++r.epochs) {
    const HdcClassifier fixed = model_of();
    std::vector<hdc::IntHV> copy(k, hdc::IntHV(dims, 0));
    std::vector<std::size_t> members(k, 0);
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const int c = fixed.predict(points[i]);
      changed |= c != prev[i];
      prev[i] = c;
      hdc::add_into(copy[static_cast<std::size_t>(c)], points[i]);
      ++members[static_cast<std::size_t>(c)];
    }
    if (!changed) break;
    for (std::size_t c = 0; c < k; ++c)
      if (members[c] != 0) r.centroids[c] = std::move(copy[c]);
  }
  const HdcClassifier final_model = model_of();
  for (const auto& p : points) r.labels.push_back(final_model.predict(p));
  return r;
}

std::vector<hdc::IntHV> reference_encode(
    const enc::Encoder& encoder, const std::vector<std::vector<float>>& xs) {
  std::vector<hdc::IntHV> out;
  for (const auto& x : xs) out.push_back(encoder.encode(x));
  return out;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<bool> {
 protected:
  // Param selects the dataset / encoder flavour.
  data::Dataset dataset() const {
    return GetParam() ? make_template_dataset() : make_markov_dataset();
  }
};

TEST_P(ParallelDeterminismTest, EncodeBatchMatchesSerialEncode) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  // Per-sample scalar encoding is the reference for every lane count
  // under every kernel backend.
  test::BackendGuard guard;
  hdc::kernels::set_backend(hdc::kernels::Backend::kScalar);
  const auto serial = reference_encode(encoder, ds.train_x);
  for (hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    for (std::size_t lanes : kLaneCounts) {
      ThreadPool pool(lanes);
      const auto batched = encoder.encode_batch(ds.train_x, pool);
      ASSERT_EQ(batched.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(batched[i], serial[i])
            << "sample " << i << " lanes=" << lanes << " "
            << hdc::kernels::to_string(b);
    }
  }
}

TEST_P(ParallelDeterminismTest, TrainBatchMatchesTrainInit) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = reference_encode(encoder, ds.train_x);
  const HdcClassifier ref =
      reference_init(encoded, ds.train_y, ds.num_classes);

  ThreadPool one(1);
  HdcClassifier single(512, ds.num_classes);
  single.train_batch(encoded, ds.train_y, one);
  expect_models_identical(ref, single, "train_batch vs reference", 1);
  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.train_batch(encoded, ds.train_y, pool);
    expect_models_identical(single, parallel, "train_batch", lanes);
  }
}

TEST_P(ParallelDeterminismTest, RetrainEpochParallelMatchesSerial) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = reference_encode(encoder, ds.train_x);
  const auto labels = noisy_labels(ds);

  HdcClassifier ref = reference_init(encoded, labels, ds.num_classes);
  std::vector<std::size_t> ref_updates;
  for (int e = 0; e < 3; ++e)
    ref_updates.push_back(reference_epoch(ref, encoded, labels));
  ASSERT_GT(ref_updates[0], 0u) << "no update to compare";

  ThreadPool one(1);
  HdcClassifier single(512, ds.num_classes);
  single.train_batch(encoded, labels, one);
  for (int e = 0; e < 3; ++e)
    EXPECT_EQ(single.retrain_epoch_parallel(encoded, labels, one),
              ref_updates[static_cast<std::size_t>(e)])
        << "epoch " << e << " update count diverged from the reference";
  expect_models_identical(ref, single, "retrain vs reference", 1);
  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.train_batch(encoded, labels, pool);
    for (int e = 0; e < 3; ++e)
      EXPECT_EQ(parallel.retrain_epoch_parallel(encoded, labels, pool),
                ref_updates[static_cast<std::size_t>(e)])
          << "epoch " << e << " update count diverged at lanes=" << lanes;
    expect_models_identical(single, parallel, "retrain", lanes);
  }
}

TEST_P(ParallelDeterminismTest, FitParallelMatchesFit) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = reference_encode(encoder, ds.train_x);
  const auto labels = noisy_labels(ds);

  HdcClassifier ref = reference_init(encoded, labels, ds.num_classes);
  reference_retrain(ref, encoded, labels, 5);

  ThreadPool one(1);
  HdcClassifier single(512, ds.num_classes);
  single.fit_parallel(encoded, labels, 5, one);
  expect_models_identical(ref, single, "fit_parallel vs reference", 1);
  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.fit_parallel(encoded, labels, 5, pool);
    expect_models_identical(single, parallel, "fit_parallel", lanes);
  }
}

TEST_P(ParallelDeterminismTest, PredictBatchMatchesSerialPredict) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());

  std::vector<int> serial;
  for (const auto& q : test) serial.push_back(clf.predict(q));

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    EXPECT_EQ(clf.predict_batch(test, pool), serial) << "lanes=" << lanes;
  }
}

TEST_P(ParallelDeterminismTest, PredictReducedBatchMatchesSerial) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());

  // A ladder rung is the mask of its chunk prefix; the serving engine
  // flushes every rung through the masked margin batch.
  for (const std::size_t dims_used : {512ul, 256ul, 128ul}) {
    const std::vector<bool> prefix = clf.prefix_mask(dims_used);
    std::vector<Prediction> serial;
    for (const auto& q : test) serial.push_back(clf.scan(q, prefix));
    for (std::size_t lanes : kLaneCounts) {
      ThreadPool pool(lanes);
      const auto batch = clf.predict_masked_margin_batch(test, prefix, pool);
      ASSERT_EQ(batch.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batch[i].cls, serial[i].cls)
            << "dims=" << dims_used << " lanes=" << lanes << " i=" << i;
        EXPECT_EQ(batch[i].margin, serial[i].margin)
            << "dims=" << dims_used << " lanes=" << lanes << " i=" << i;
      }
    }
  }
}

TEST_P(ParallelDeterminismTest, PredictMaskedBatchMatchesSerial) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());

  const std::vector<bool> chunk_ok = {true, false, true, false};
  std::vector<int> serial;
  for (const auto& q : test) serial.push_back(clf.scan(q, chunk_ok).cls);
  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    const auto batch = clf.predict_masked_margin_batch(test, chunk_ok, pool);
    std::vector<int> cls;
    for (const Prediction& p : batch) cls.push_back(p.cls);
    EXPECT_EQ(cls, serial) << "lanes=" << lanes;
  }
}

TEST_P(ParallelDeterminismTest, ClusteringMatchesReferenceAtEveryLaneCount) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = reference_encode(encoder, ds.train_x);
  // The samples are grouped by class, so the first-k seeds all come from
  // class 0 and the centroids must move over several epochs.
  const std::size_t k = ds.num_classes;
  const ReferenceClusters ref = reference_cluster(encoded, k, 10);
  ASSERT_GT(ref.epochs, 1u) << "no centroid update to compare";

  ThreadPool one(1);
  HdcCluster single(512, k);
  const std::size_t single_epochs = single.fit(encoded, 10, one);
  const std::vector<int> single_labels = single.labels(encoded, one);
  EXPECT_EQ(single_epochs, ref.epochs);
  EXPECT_EQ(single_labels, ref.labels);
  for (std::size_t c = 0; c < k; ++c)
    EXPECT_EQ(single.centroid(c), ref.centroids[c]) << "centroid " << c;
  for (std::size_t lanes : {1ul, 2ul, 7ul}) {
    ThreadPool pool(lanes);
    HdcCluster parallel(512, k);
    EXPECT_EQ(parallel.fit(encoded, 10, pool), single_epochs)
        << "lanes=" << lanes;
    EXPECT_EQ(parallel.labels(encoded, pool), single_labels)
        << "lanes=" << lanes;
    for (std::size_t c = 0; c < k; ++c)
      EXPECT_EQ(parallel.centroid(c), single.centroid(c))
          << "centroid " << c << " lanes=" << lanes;
  }
}

TEST_P(ParallelDeterminismTest, PooledPipelineMatchesSerialPipeline) {
  // The reference pipeline: fit the encoder, encode sample by sample,
  // train with the reference learner, predict query by query.
  const auto ds = dataset();
  enc::GenericEncoder ref_enc(small_config(GetParam()));
  ref_enc.fit(ds.train_x);
  const auto train = reference_encode(ref_enc, ds.train_x);
  const auto test = reference_encode(ref_enc, ds.test_x);
  HdcClassifier ref = reference_init(train, ds.train_y, ds.num_classes);
  const std::size_t ref_epochs = reference_retrain(ref, train, ds.train_y, 5);
  std::vector<int> ref_predictions;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    ref_predictions.push_back(ref.predict(test[i]));
    hits += ref_predictions.back() == ds.test_y[i];
  }
  const double ref_accuracy =
      static_cast<double>(hits) / static_cast<double>(test.size());

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    enc::GenericEncoder pooled_enc(small_config(GetParam()));
    const auto pooled = run_hdc_classification(pooled_enc, ds, 5, pool);
    EXPECT_EQ(pooled.test_accuracy, ref_accuracy) << "lanes=" << lanes;
    EXPECT_EQ(pooled.epochs_run, ref_epochs) << "lanes=" << lanes;
    EXPECT_EQ(pooled.predictions, ref_predictions) << "lanes=" << lanes;
  }
}

TEST_P(ParallelDeterminismTest, RepeatedParallelRunsAreIdentical) {
  // Same pool, same inputs, back-to-back: no hidden state may leak from
  // one batched run into the next.
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  ThreadPool pool(7);
  const auto first = encoder.encode_batch(ds.test_x, pool);
  const auto second = encoder.encode_batch(ds.test_x, pool);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "sample " << i;
}

// ---- Retraining block edges ----
//
// retrain_epoch_parallel scores 32 samples per dot tile and, after an
// update, re-scores the two changed rows for the rest of the block. These
// cases force updates exactly where that bookkeeping can go wrong: the
// first and last sample of a block, two consecutive samples (inside a
// block and across a block edge), the epoch's very last sample, and an
// update that pushes a row past the int16 copy's range mid-block.

const std::size_t kEdgeLanes[] = {1, 2, 7};
constexpr std::size_t kEdgeDims = 512;
constexpr std::size_t kEdgeClasses = 4;

/// Samples scattered around one random prototype per class, and a model
/// whose rows are the prototypes: rows small enough that one update moves
/// the predictions of the samples after it. Dimension 0 of every row is
/// `row0` and of every sample is `sample0`.
struct EdgeCase {
  HdcClassifier init{kEdgeDims, kEdgeClasses};
  std::vector<hdc::IntHV> samples;
};

EdgeCase make_edge_case(std::size_t n, std::int32_t row0, std::int32_t sample0,
                        std::uint64_t seed) {
  Rng rng(seed);
  auto noise = [&] { return static_cast<std::int32_t>(rng.below(17)) - 8; };
  EdgeCase e;
  std::vector<hdc::IntHV> protos(kEdgeClasses, hdc::IntHV(kEdgeDims, 0));
  for (auto& p : protos)
    for (auto& v : p) v = noise();
  for (std::size_t i = 0; i < n; ++i) {
    hdc::IntHV x = protos[rng.below(kEdgeClasses)];
    for (auto& v : x) v += noise();
    x[0] = sample0;
    e.samples.push_back(std::move(x));
  }
  for (std::size_t c = 0; c < kEdgeClasses; ++c) {
    protos[c][0] = row0;
    e.init.set_class_vector(c, protos[c]);
  }
  e.init.recompute_norms();
  return e;
}

/// Labels under which the reference epoch updates at exactly the samples
/// in `forced` (label = the class after its prediction) and nowhere else
/// (label = its prediction). Runs that epoch on `ref`.
std::vector<int> forced_labels(HdcClassifier& ref,
                               std::span<const hdc::IntHV> samples,
                               const std::vector<std::size_t>& forced) {
  std::vector<int> labels;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const int pred = ref.predict(samples[i]);
    const bool force =
        std::find(forced.begin(), forced.end(), i) != forced.end();
    labels.push_back(force ? (pred + 1) % static_cast<int>(kEdgeClasses)
                           : pred);
    if (force) ref.move_sample(samples[i], pred, labels.back());
  }
  return labels;
}

/// Two epochs at every lane count under every backend against the scalar
/// reference: the forced epoch, then a free one over the same labels.
void expect_edges_match(const EdgeCase& e,
                        const std::vector<std::size_t>& forced,
                        const char* what) {
  test::BackendGuard guard;
  hdc::kernels::set_backend(hdc::kernels::Backend::kScalar);
  HdcClassifier ref = e.init;
  const std::vector<int> labels = forced_labels(ref, e.samples, forced);
  const std::size_t second = reference_epoch(ref, e.samples, labels);
  for (hdc::kernels::Backend b : test::available_backends()) {
    hdc::kernels::set_backend(b);
    for (std::size_t lanes : kEdgeLanes) {
      ThreadPool pool(lanes);
      HdcClassifier m = e.init;
      EXPECT_EQ(m.retrain_epoch_parallel(e.samples, labels, pool),
                forced.size())
          << what << " n=" << e.samples.size() << " lanes=" << lanes << " "
          << hdc::kernels::to_string(b);
      EXPECT_EQ(m.retrain_epoch_parallel(e.samples, labels, pool), second)
          << what << " n=" << e.samples.size() << " lanes=" << lanes << " "
          << hdc::kernels::to_string(b);
      expect_models_identical(ref, m, what, lanes);
    }
  }
}

TEST(RetrainBlockEdges, ForcedUpdatesMatchReference) {
  for (const std::size_t n : {1ul, 31ul, 32ul, 33ul, 65ul}) {
    // Block starts and ends, consecutive pairs inside a block (5, 6) and
    // across an edge (31, 32, 33), and the epoch's last sample.
    std::vector<std::size_t> forced;
    for (const std::size_t i : {0ul, 5ul, 6ul, 31ul, 32ul, 33ul, 63ul, 64ul})
      if (i < n - 1) forced.push_back(i);
    forced.push_back(n - 1);
    expect_edges_match(make_edge_case(n, 0, 0, 0xB10C + n), forced,
                       "block edges");
  }
}

TEST(RetrainBlockEdges, RowPastInt16RangeMidBlock) {
  // Every row starts at 32740 in dimension 0 and every sample carries 50
  // there, so the first update (sample 10) takes a row to 32790: from then
  // on the int16 copy is inexact, and the rest of the block and every later
  // block must be scored on the int32 rows.
  const EdgeCase e = make_edge_case(65, 32740, 50, 0x16B17);
  ASSERT_LE(e.init.class_max_abs(), 32767);
  HdcClassifier crossed = e.init;
  const std::vector<std::size_t> forced = {10, 11, 20, 40, 64};
  forced_labels(crossed, e.samples, {forced.front()});
  ASSERT_GT(crossed.class_max_abs(), 32767);
  expect_edges_match(e, forced, "row past int16");
}

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelDeterminismTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Template" : "Markov";
                         });

}  // namespace
}  // namespace generic::model
