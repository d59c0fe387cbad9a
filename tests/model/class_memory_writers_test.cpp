// Every writer of class memory keeps the int16 copy and the AMX operand
// the SIMD dot tiles score exact. The scalar tile reads only the int32 rows, so after each
// writer the predictions and margins of every available backend must equal
// scalar's: a writer that skipped the refresh would leave a stale copy that
// a SIMD backend scores and scalar does not. Each check first asserts that
// the model's bound admits the int16 path, so the copy is what the SIMD
// backends actually read.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/generic_asic.h"
#include "common/rng.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "hdc/query_batch.h"
#include "kernel_backends.h"
#include "model/hdc_classifier.h"
#include "model/model_io.h"
#include "resilience/block_guard.h"
#include "resilience/fault_model.h"

namespace generic::model {
namespace {

namespace k = hdc::kernels;

constexpr std::size_t kDims = 1024;  // eight 128-dim chunks

/// A model trained one-shot on encoded PAGE samples, plus held-out probes.
struct Rig {
  data::Dataset ds = data::make_benchmark("PAGE");
  std::unique_ptr<enc::GenericEncoder> encoder;
  std::vector<hdc::IntHV> train;
  std::vector<hdc::IntHV> probes;
  HdcClassifier clf{kDims, 1};

  Rig() {
    enc::EncoderConfig cfg;
    cfg.dims = kDims;
    encoder = std::make_unique<enc::GenericEncoder>(cfg);
    encoder->fit(ds.train_x);
    train = encoder->encode_batch(ds.train_x);
    probes = encoder->encode_batch(ds.test_x);
    probes.resize(40);
    clf = HdcClassifier(kDims, ds.num_classes);
    clf.train_batch(train, ds.train_y, global_pool());
  }
};

const Rig& rig() {
  static const Rig r;
  return r;
}

/// Every scoring shape a writer's copy feeds: one-query scans (full dims,
/// a Constant-norm rung) and batched scans (full mask, a holed mask).
std::vector<Prediction> observe(const HdcClassifier& clf,
                                const std::vector<hdc::IntHV>& probes) {
  ThreadPool pool(2);
  std::vector<Prediction> out;
  const std::vector<bool> all(clf.num_chunks(), true);
  const std::vector<bool> half = clf.prefix_mask(512);
  for (const auto& q : probes) {
    out.push_back(clf.scan(q, all, NormMode::kUpdated));
    out.push_back(clf.scan(q, half, NormMode::kConstant));
  }
  std::vector<bool> with_holes = all;
  with_holes[1] = with_holes[4] = false;
  const std::vector<bool>& holed = with_holes;
  for (const std::vector<bool>* mask : {&all, &holed})
    for (const Prediction& p :
         clf.predict_masked_margin_batch(probes, *mask, pool))
      out.push_back(p);
  return out;
}

/// Predictions and margins under every available backend equal scalar's.
/// `narrow` asserts the bound admits int16, so SIMD backends read the copy.
void expect_scored_copy_exact(const HdcClassifier& clf,
                              const std::string& writer, bool narrow = true) {
  if (narrow) {
    ASSERT_LE(clf.class_max_abs(), 32767) << writer << ": int16 path not taken";
  }
  test::BackendGuard guard;
  k::set_backend(k::Backend::kScalar);
  const auto want = observe(clf, rig().probes);
  for (k::Backend b : test::available_backends()) {
    k::set_backend(b);
    const auto got = observe(clf, rig().probes);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].cls, want[i].cls)
          << writer << " " << k::to_string(b) << " i=" << i;
      ASSERT_EQ(got[i].margin, want[i].margin)
          << writer << " " << k::to_string(b) << " i=" << i;
    }
  }
}

TEST(ClassMemoryWriters, Training) {
  const Rig& r = rig();
  expect_scored_copy_exact(r.clf, "train_batch, one lane");
  HdcClassifier batched(kDims, r.ds.num_classes);
  ThreadPool pool(3);
  batched.train_batch(r.train, r.ds.train_y, pool);
  expect_scored_copy_exact(batched, "train_batch");
}

TEST(ClassMemoryWriters, RetrainingMovesSamples) {
  const Rig& r = rig();
  HdcClassifier clf = r.clf;
  ASSERT_GT(clf.retrain_epoch_parallel(r.train, r.ds.train_y, global_pool()),
            0u);
  expect_scored_copy_exact(clf, "retrain_epoch_parallel, one lane");
  ThreadPool pool(2);
  HdcClassifier par = r.clf;
  ASSERT_GT(par.retrain_epoch_parallel(r.train, r.ds.train_y, pool), 0u);
  expect_scored_copy_exact(par, "retrain_epoch_parallel");
}

TEST(ClassMemoryWriters, Quantize) {
  for (int bw : {16, 8, 1}) {
    HdcClassifier clf = rig().clf;
    clf.quantize(bw);
    expect_scored_copy_exact(clf, "quantize(" + std::to_string(bw) + ")");
  }
}

TEST(ClassMemoryWriters, FaultInjection) {
  // At 8 bits every corrupted word stays inside int16, so the SIMD tiles
  // score the copy. At 16 bits a flipped sign bit of a zero reads -32768,
  // past the bound: the tiles fall back to the int32 rows, still exact.
  for (int bw : {8, 16}) {
    HdcClassifier base = rig().clf;
    if (bw == 8) base.quantize(8);
    const bool narrow = bw == 8;
    const std::string at = " at " + std::to_string(bw) + " bits";
    {
      HdcClassifier clf = base;
      Rng rng(11);
      resilience::inject(clf, {resilience::FaultKind::kTransient, 0.002}, rng);
      expect_scored_copy_exact(clf, "inject transient, seed 11" + at, narrow);
    }
    for (auto kind : {resilience::FaultKind::kTransient,
                      resilience::FaultKind::kStuckAt0,
                      resilience::FaultKind::kStuckAt1,
                      resilience::FaultKind::kDeadBlock,
                      resilience::FaultKind::kBankCorrelated}) {
      HdcClassifier clf = base;
      Rng rng(12);
      resilience::FaultSpec spec{kind, 0.002, 0.002};
      if (kind == resilience::FaultKind::kDeadBlock) spec.rate = 0.3;
      if (kind == resilience::FaultKind::kBankCorrelated) spec.rate = 1.0;
      resilience::inject(clf, spec, rng);
      expect_scored_copy_exact(
          clf, "inject " + std::string(resilience::fault_kind_name(kind)) + at,
          narrow || kind == resilience::FaultKind::kDeadBlock ||
              kind == resilience::FaultKind::kStuckAt0);
    }
    {
      HdcClassifier clf = base;
      resilience::inject_dead_blocks(clf, {0, 5});
      expect_scored_copy_exact(clf, "inject_dead_blocks" + at);
    }
    {
      HdcClassifier clf = base;
      Rng rng(13);
      resilience::inject_bank_correlated(clf, {0, 2}, 0.01, rng);
      expect_scored_copy_exact(clf, "inject_bank_correlated" + at, narrow);
    }
  }
}

TEST(ClassMemoryWriters, Scrubbing) {
  // The faults go in through resilience::inject, whose row edits put them
  // in the copy, so only the scrub's writes can take them out again. At 8
  // bits the faulty model stays inside the int16 bound.
  const Rig& r = rig();
  HdcClassifier golden = r.clf;
  golden.quantize(8);
  const auto guard = resilience::BlockGuard::commission(golden);
  HdcClassifier clf = golden;
  Rng rng(14);
  resilience::inject(clf, {resilience::FaultKind::kTransient, 0.002}, rng);
  ASSERT_GT(guard.scrub(clf, golden), 0u);
  expect_scored_copy_exact(clf, "scrub");

  HdcClassifier from_blob = golden;
  resilience::inject(from_blob, {resilience::FaultKind::kTransient, 0.002},
                     rng);
  ASSERT_GT(guard.scrub_from_blob(from_blob,
                                  serialize_model(*r.encoder, golden)),
            0u);
  expect_scored_copy_exact(from_blob, "scrub_from_blob");
}

TEST(ClassMemoryWriters, Deserializers) {
  const Rig& r = rig();
  expect_scored_copy_exact(
      deserialize_model(serialize_model(*r.encoder, r.clf)).classifier,
      "deserialize_model");
  expect_scored_copy_exact(deserialize_classifier(serialize_classifier(r.clf)),
                           "deserialize_classifier");
}

TEST(ClassMemoryWriters, GenericAsicRetrainAndOnlineUpdate) {
  const Rig& r = rig();
  arch::AppSpec spec;
  spec.dims = kDims;
  spec.features = r.ds.num_features();
  spec.classes = r.ds.num_classes;
  arch::GenericAsic asic(spec, /*seed=*/7);
  asic.train(r.ds.train_x, r.ds.train_y, 3);
  expect_scored_copy_exact(asic.classifier(), "GenericAsic::train");
  int moved = 0;
  for (std::size_t i = 0; i < r.ds.test_x.size(); ++i)
    moved += asic.online_update(r.ds.test_x[i], r.ds.test_y[i]) !=
             r.ds.test_y[i];
  ASSERT_GT(moved, 0);
  expect_scored_copy_exact(asic.classifier(), "GenericAsic::online_update");
}

TEST(ClassMemoryWriters, SetAndEditClassVector) {
  HdcClassifier clf = rig().clf;
  clf.set_class_vector(0, clf.class_vector(1));
  clf.edit_class_vector(2, [](std::span<std::int32_t> row) {
    for (auto& v : row) v = -v;
  });
  expect_scored_copy_exact(clf, "set/edit_class_vector");
}

TEST(ClassMemoryWriters, BoundShrinksWhenALargeValueIsWrittenBack) {
  HdcClassifier clf = rig().clf;
  const std::int64_t trained = clf.class_max_abs();
  ASSERT_LT(trained, 32767);
  std::int32_t saved = 0;
  // Past int16: the copy truncates this value, so scoring must fall back to
  // the int32 rows.
  clf.edit_class_vector(1, [&](std::span<std::int32_t> row) {
    saved = row[7];
    row[7] = 40000;
  });
  EXPECT_EQ(clf.class_max_abs(), 40000);
  expect_scored_copy_exact(clf, "row past 32767", /*narrow=*/false);
  // Written back below it: the bound is exact again, not the high-water
  // mark, so the int16 path returns.
  clf.edit_class_vector(1, [&](std::span<std::int32_t> row) { row[7] = saved; });
  EXPECT_EQ(clf.class_max_abs(), trained);
  expect_scored_copy_exact(clf, "row written back");
  clf.set_class_vector(1, hdc::IntHV(kDims, -32768));
  EXPECT_EQ(clf.class_max_abs(), 32768);
  expect_scored_copy_exact(clf, "row at -32768", /*narrow=*/false);
}

/// The model's AMX operand equals one built from its int32 rows, row for
/// row, by the one builder the tile's tests use.
void expect_amx_operand_exact(const HdcClassifier& clf,
                              const std::string& writer) {
  k::AmxOperand want(clf.num_classes(), clf.dims());
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    want.set_row(c, clf.class_vector(c));
  EXPECT_TRUE(clf.amx_operand() == want) << writer << ": stale AMX operand";
}

TEST(ClassMemoryWriters, AmxOperandFollowsEveryWriter) {
  if (!k::available(k::Backend::kAmx))
    GTEST_SKIP() << "amx backend unavailable: models keep no AMX operand";
  const Rig& r = rig();
  ASSERT_FALSE(r.clf.amx_operand().empty());
  expect_amx_operand_exact(r.clf, "train_batch");
  {
    HdcClassifier clf = r.clf;
    clf.move_sample(r.train[0], 0, 1);
    expect_amx_operand_exact(clf, "move_sample(IntHV)");
    const hdc::QueryBatch batch(std::span(r.train).first(4), kDims);
    clf.move_sample(batch, 3, 1, 2);
    expect_amx_operand_exact(clf, "move_sample(QueryBatch)");
  }
  {
    HdcClassifier clf = r.clf;
    clf.set_class_vector(0, clf.class_vector(1));
    expect_amx_operand_exact(clf, "set_class_vector");
    clf.edit_class_vector(2, [](std::span<std::int32_t> row) {
      for (auto& v : row) v = -v;
    });
    expect_amx_operand_exact(clf, "edit_class_vector");
  }
  for (int bw : {8, 1}) {
    HdcClassifier clf = r.clf;
    clf.quantize(bw);
    expect_amx_operand_exact(clf, "quantize(" + std::to_string(bw) + ")");
  }
  expect_amx_operand_exact(
      deserialize_classifier(serialize_classifier(r.clf)),
      "deserialize_classifier");
  expect_amx_operand_exact(
      deserialize_model(serialize_model(*r.encoder, r.clf)).classifier,
      "deserialize_model");
}

TEST(ClassMemoryWriters, AmxScoresBatchedScansWithTileMultiplies) {
  // Exactness alone cannot tell the AMX path from its avx512 fallback:
  // both equal scalar. The amx tile's call count can. A model's blocks
  // of int8 queries must reach the tile multiplies.
  if (!k::available(k::Backend::kAmx))
    GTEST_SKIP() << "amx backend unavailable on this host";
  const Rig& r = rig();
  test::BackendGuard guard;
  k::set_backend(k::Backend::kAmx);
  const hdc::QueryBatch table(r.probes, kDims);
  ASSERT_EQ(table.width(), k::QueryWidth::kInt8);
  std::vector<std::size_t> rows(table.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = rows.size() - 1 - i;
  ThreadPool pool(2);
  std::uint64_t before = k::amx_tile_calls();
  r.clf.scan_batch(table, rows, r.clf.prefix_mask(kDims), NormMode::kUpdated,
                   pool);
  EXPECT_GT(k::amx_tile_calls(), before) << "scan_batch took the fallback";
  before = k::amx_tile_calls();
  r.clf.predict_batch(r.probes, pool);
  EXPECT_GT(k::amx_tile_calls(), before) << "predict_batch took the fallback";
}

}  // namespace
}  // namespace generic::model
