// Rematerialization equivalence: ItemStorage::kRematerialized must be a
// pure memory/compute trade — every rematerialized item/level row is
// byte-identical to the stored row for the same (seed, dims, key), encoders
// produce bit-identical encodings in either mode, the end-to-end pipeline
// produces identical accuracy and predictions, and the footprint really
// drops to (near) zero.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "hdc/item_memory.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "model/pipeline.h"
#include "obs/export.h"

namespace generic::hdc {
namespace {

TEST(RematItemMemory, MaterializeMatchesStoredRowsAcrossSeedsAndKeys) {
  for (std::uint64_t seed : {0ull, 0xD5A22ull, 0xDEADBEEFull}) {
    for (std::size_t dims : {std::size_t{64}, std::size_t{127},
                             std::size_t{512}, std::size_t{4096}}) {
      ItemMemory stored(dims, seed);
      ItemMemory remat(dims, seed, ItemStorage::kRematerialized);
      // Touch keys out of order: stored rows must not depend on access
      // order, and remat rows must match them key by key.
      for (std::size_t key : {std::size_t{7}, std::size_t{0}, std::size_t{3},
                              std::size_t{31}}) {
        EXPECT_EQ(remat.materialize(key), stored.get(key))
            << "seed=" << seed << " dims=" << dims << " key=" << key;
        EXPECT_EQ(stored.materialize(key), stored.get(key))
            << "stored-mode materialize diverged at key " << key;
      }
    }
  }
}

TEST(RematItemMemory, GetThrowsInRematerializedMode) {
  ItemMemory remat(256, 7, ItemStorage::kRematerialized);
  EXPECT_THROW(remat.get(0), std::logic_error);
  EXPECT_THROW(remat.mutable_get(0), std::logic_error);
  EXPECT_NO_THROW(remat.materialize(0));
}

TEST(RematItemMemory, FootprintGrowsStoredAndStaysZeroRemat) {
  const std::size_t dims = 4096;
  ItemMemory stored(dims, 9);
  ItemMemory remat(dims, 9, ItemStorage::kRematerialized);
  EXPECT_EQ(stored.footprint_bytes(), 0u) << "no rows touched yet";
  (void)stored.get(9);  // faults in rows 0..9
  EXPECT_EQ(stored.footprint_bytes(), 10 * (dims / 8));
  (void)remat.materialize(9);
  EXPECT_EQ(remat.footprint_bytes(), 0u);
}

TEST(RematLevelMemory, MaterializeMatchesStoredLevelsForAllBins) {
  for (std::uint64_t seed : {0x11EE1ull, 123ull}) {
    for (auto [dims, levels] :
         {std::pair<std::size_t, std::size_t>{256, 64},
          std::pair<std::size_t, std::size_t>{127, 16},
          std::pair<std::size_t, std::size_t>{512, 1},
          std::pair<std::size_t, std::size_t>{4095, 7}}) {
      LevelMemory stored(dims, levels, seed);
      LevelMemory remat(dims, levels, seed, ItemStorage::kRematerialized);
      ASSERT_EQ(remat.num_levels(), levels);
      for (std::size_t bin = 0; bin < levels; ++bin) {
        EXPECT_EQ(remat.materialize(bin), stored.level(bin))
            << "dims=" << dims << " levels=" << levels << " bin=" << bin;
        EXPECT_EQ(stored.materialize(bin), stored.level(bin))
            << "stored-mode materialize diverged at bin " << bin;
      }
    }
  }
}

TEST(RematLevelMemory, ReplayVisitsEveryLevelUpToTheLastInOrder) {
  // The one-pass rebuild the rematerialized encoders use: levels 0..last,
  // ascending, each equal to materialize(bin).
  const LevelMemory remat(4096, 64, 0x11EE1, ItemStorage::kRematerialized);
  for (std::size_t last : {std::size_t{0}, std::size_t{1}, std::size_t{40},
                           std::size_t{63}}) {
    std::size_t next = 0;
    remat.replay(last, [&](std::size_t bin, const BinaryHV& row) {
      ASSERT_EQ(bin, next++);
      EXPECT_EQ(row, remat.materialize(bin)) << "last=" << last;
    });
    EXPECT_EQ(next, last + 1);
  }
  EXPECT_THROW(remat.replay(64, [](std::size_t, const BinaryHV&) {}),
               std::out_of_range);
}

TEST(RematLevelMemory, AccessorsThrowAppropriately) {
  LevelMemory remat(128, 8, 5, ItemStorage::kRematerialized);
  EXPECT_THROW(remat.level(0), std::logic_error);
  EXPECT_THROW(remat.mutable_level(0), std::logic_error);
  EXPECT_THROW(remat.materialize(8), std::out_of_range);
  EXPECT_EQ(remat.footprint_bytes(), 0u);
  LevelMemory stored(128, 8, 5);
  EXPECT_EQ(stored.footprint_bytes(), 8 * (128 / 8));
}

TEST(RematSeededItemMemory, FootprintIsOneSeedRow) {
  SeededItemMemory ids(4096, 3);
  EXPECT_EQ(ids.footprint_bytes(), 4096u / 8);
}

// ---- Encoder-level equivalence --------------------------------------------

std::vector<std::vector<float>> synth_samples(std::size_t n, std::size_t f) {
  Rng rng(0xE2C0DE);
  std::vector<std::vector<float>> xs(n, std::vector<float>(f));
  for (auto& x : xs)
    for (auto& v : x)
      v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
  return xs;
}

TEST(RematEncoder, EveryKindEncodesBitIdenticallyInBothModes) {
  // Under every kernel backend, at a ragged dims (257: the bit-wise
  // rotation and tail paths) and a register-block-aligned one (4096),
  // both modes reproduce the scalar stored encoding.
  test::BackendGuard guard;
  const auto xs = synth_samples(6, 24);
  for (std::size_t dims : {std::size_t{257}, std::size_t{4096}})
    for (enc::EncoderKind kind :
         {enc::EncoderKind::kRp, enc::EncoderKind::kLevelId,
          enc::EncoderKind::kNgram, enc::EncoderKind::kPermutation,
          enc::EncoderKind::kGeneric, enc::EncoderKind::kSymbolNgram}) {
      enc::EncoderConfig cfg;
      cfg.dims = dims;
      cfg.levels = 16;
      auto stored = enc::make_encoder(kind, cfg);
      cfg.remat = true;
      auto remat = enc::make_encoder(kind, cfg);
      stored->fit(xs);
      remat->fit(xs);
      kernels::set_backend(kernels::Backend::kScalar);
      std::vector<IntHV> want;
      for (const auto& x : xs) want.push_back(stored->encode(x));
      for (kernels::Backend b : test::available_backends()) {
        kernels::set_backend(b);
        for (std::size_t i = 0; i < xs.size(); ++i) {
          EXPECT_EQ(stored->encode(xs[i]), want[i])
              << "encoder " << enc::to_string(kind) << " stored "
              << kernels::to_string(b) << " dims=" << dims;
          EXPECT_EQ(remat->encode(xs[i]), want[i])
              << "encoder " << enc::to_string(kind) << " remat "
              << kernels::to_string(b) << " dims=" << dims;
        }
      }
      EXPECT_LT(remat->memory_footprint_bytes(),
                stored->memory_footprint_bytes() + 1)
          << "remat footprint must never exceed stored";
    }
}

TEST(RematEncoder, FootprintDropsToSeedRowsOnly) {
  const auto xs = synth_samples(4, 32);
  enc::EncoderConfig cfg;
  cfg.dims = 1024;
  cfg.levels = 64;
  enc::GenericEncoder stored(cfg);
  cfg.remat = true;
  enc::GenericEncoder remat(cfg);
  stored.fit(xs);
  remat.fit(xs);
  (void)stored.encode(xs[0]);
  (void)remat.encode(xs[0]);
  // Stored: 64 level rows + 1 seed id row. Remat: the seed id row only.
  EXPECT_EQ(stored.memory_footprint_bytes(), (64 + 1) * (1024u / 8));
  EXPECT_EQ(remat.memory_footprint_bytes(), 1024u / 8);
}

// ---- End-to-end pipeline identity -----------------------------------------

TEST(RematPipeline, ClassificationAccuracyAndPredictionsIdentical) {
  const auto ds = data::make_benchmark("PAGE");
  enc::EncoderConfig cfg;
  cfg.dims = 512;
  ThreadPool pool(2);

  enc::GenericEncoder stored(cfg);
  const auto want = model::run_hdc_classification(stored, ds, 3, pool);

  cfg.remat = true;
  enc::GenericEncoder remat(cfg);
  const auto got = model::run_hdc_classification(remat, ds, 3, pool);

  EXPECT_EQ(got.test_accuracy, want.test_accuracy);
  EXPECT_EQ(got.epochs_run, want.epochs_run);
  EXPECT_EQ(got.predictions, want.predictions);

  // Footprint assertion in the report: the same stored-vs-remat numbers the
  // bench records as gauges must appear in a generic.metrics.v1 document.
  obs::Registry& reg = obs::Registry::instance();
  reg.gauge("remat.footprint.stored_payload_bytes")
      .set(stored.memory_footprint_bytes());
  reg.gauge("remat.footprint.remat_payload_bytes")
      .set(remat.memory_footprint_bytes());
  const std::string json = obs::metrics_to_json(obs::collect_metrics());
  EXPECT_NE(json.find("\"schema\": \"generic.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("remat.footprint.stored_payload_bytes"),
            std::string::npos);
  EXPECT_NE(json.find("remat.footprint.remat_payload_bytes"),
            std::string::npos);
  EXPECT_GT(stored.memory_footprint_bytes(),
            8 * remat.memory_footprint_bytes())
      << "remat must shrink the encoder's hypervector payload by >8x here "
         "(64 level rows collapse to recompute)";
}

}  // namespace
}  // namespace generic::hdc
