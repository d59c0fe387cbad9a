// Seed-equivalence suite for the batched/parallel engine: every parallel
// entry point — encode_batch, train_batch, retrain_epoch_parallel,
// fit_parallel, predict_batch and the pooled run_hdc_classification — must
// produce BYTE-IDENTICAL models and predictions to its serial counterpart
// for every pool width, including pools far wider than the machine
// (threads ∈ {1, 2, 7, 16} on a possibly single-core host). This is the
// acceptance criterion of the parallel engine: parallelism is an execution
// detail, never an observable one (docs/parallelism.md).
//
// Two synthetic datasets with different structure exercise different
// encoder paths: a template dataset (positional structure, ids bound) and
// a markov symbol dataset (windowed n-gram structure).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "encoding/encoders.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "model/hdc_classifier.h"
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
  // The serial scalar encoding is the reference for every lane count
  // under every kernel backend.
  test::BackendGuard guard;
  hdc::kernels::set_backend(hdc::kernels::Backend::kScalar);
  const auto serial = encode_all(encoder, ds.train_x);
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
  const auto encoded = encode_all(encoder, ds.train_x);

  HdcClassifier serial(512, ds.num_classes);
  serial.train_init(encoded, ds.train_y);

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.train_batch(encoded, ds.train_y, pool);
    expect_models_identical(serial, parallel, "train_batch", lanes);
  }
}

TEST_P(ParallelDeterminismTest, RetrainEpochParallelMatchesSerial) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = encode_all(encoder, ds.train_x);

  HdcClassifier serial(512, ds.num_classes);
  serial.train_init(encoded, ds.train_y);
  std::vector<std::size_t> serial_updates;
  for (int e = 0; e < 3; ++e)
    serial_updates.push_back(serial.retrain_epoch(encoded, ds.train_y));

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.train_batch(encoded, ds.train_y, pool);
    for (int e = 0; e < 3; ++e)
      EXPECT_EQ(parallel.retrain_epoch_parallel(encoded, ds.train_y, pool),
                serial_updates[static_cast<std::size_t>(e)])
          << "epoch " << e << " update count diverged at lanes=" << lanes;
    expect_models_identical(serial, parallel, "retrain", lanes);
  }
}

TEST_P(ParallelDeterminismTest, FitParallelMatchesFit) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto encoded = encode_all(encoder, ds.train_x);

  HdcClassifier serial(512, ds.num_classes);
  serial.fit(encoded, ds.train_y, 5);

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    HdcClassifier parallel(512, ds.num_classes);
    parallel.fit_parallel(encoded, ds.train_y, 5, pool);
    expect_models_identical(serial, parallel, "fit_parallel", lanes);
  }
}

TEST_P(ParallelDeterminismTest, PredictBatchMatchesSerialPredict) {
  const auto ds = dataset();
  enc::GenericEncoder encoder(small_config(GetParam()));
  encoder.fit(ds.train_x);
  const auto train = encode_all(encoder, ds.train_x);
  const auto test = encode_all(encoder, ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit(train, ds.train_y, 5);

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
  const auto train = encode_all(encoder, ds.train_x);
  const auto test = encode_all(encoder, ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit(train, ds.train_y, 5);

  // A ladder rung is the mask of its chunk prefix; the serving engine
  // flushes every rung through the masked margin batch.
  for (const std::size_t dims_used : {512ul, 256ul, 128ul}) {
    std::vector<Prediction> serial;
    for (const auto& q : test)
      serial.push_back(
          clf.predict_reduced_margin(q, dims_used, NormMode::kUpdated));
    std::vector<bool> prefix(clf.num_chunks(), false);
    for (std::size_t k = 0; k < dims_used / 128; ++k) prefix[k] = true;
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
  const auto train = encode_all(encoder, ds.train_x);
  const auto test = encode_all(encoder, ds.test_x);
  HdcClassifier clf(512, ds.num_classes);
  clf.fit(train, ds.train_y, 5);

  const std::vector<bool> chunk_ok = {true, false, true, false};
  std::vector<int> serial;
  for (const auto& q : test) serial.push_back(clf.predict_masked(q, chunk_ok));
  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    const auto batch = clf.predict_masked_margin_batch(test, chunk_ok, pool);
    std::vector<int> cls;
    for (const Prediction& p : batch) cls.push_back(p.cls);
    EXPECT_EQ(cls, serial) << "lanes=" << lanes;
  }
}

TEST_P(ParallelDeterminismTest, PooledPipelineMatchesSerialPipeline) {
  const auto ds = dataset();
  enc::GenericEncoder serial_enc(small_config(GetParam()));
  const auto serial = run_hdc_classification(serial_enc, ds, 5);

  for (std::size_t lanes : kLaneCounts) {
    ThreadPool pool(lanes);
    enc::GenericEncoder pooled_enc(small_config(GetParam()));
    const auto pooled = run_hdc_classification(pooled_enc, ds, 5, pool);
    EXPECT_EQ(pooled.test_accuracy, serial.test_accuracy) << "lanes=" << lanes;
    EXPECT_EQ(pooled.epochs_run, serial.epochs_run) << "lanes=" << lanes;
    EXPECT_EQ(pooled.predictions, serial.predictions) << "lanes=" << lanes;
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

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelDeterminismTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Template" : "Markov";
                         });

}  // namespace
}  // namespace generic::model
