#include "resilience/fault_model.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace generic::resilience {
namespace {

model::HdcClassifier small_model(std::size_t dims = 256,
                                 std::size_t classes = 3) {
  model::HdcClassifier clf(dims, classes);
  Rng rng(99);
  for (std::size_t c = 0; c < classes; ++c)
    clf.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (auto& x : row) x = static_cast<std::int32_t>(rng.range(-100, 100));
    });
  clf.recompute_norms();
  return clf;
}

TEST(FaultModel, KindNamesRoundTrip) {
  for (FaultKind k : {FaultKind::kTransient, FaultKind::kStuckAt0,
                      FaultKind::kStuckAt1, FaultKind::kDeadBlock})
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(k)), k);
  EXPECT_THROW(fault_kind_from_name("gamma_ray"), std::invalid_argument);
}

TEST(FaultModel, TransientInjectionIsSeedDeterministic) {
  auto a = small_model();
  auto b = small_model();
  Rng ra(42), rb(42);
  inject(a, {FaultKind::kTransient, 0.01}, ra);
  inject(b, {FaultKind::kTransient, 0.01}, rb);
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    EXPECT_EQ(a.class_vector(c), b.class_vector(c));
  // A different seed produces a different pattern.
  auto d = small_model();
  Rng rd(43);
  inject(d, {FaultKind::kTransient, 0.01}, rd);
  bool any_diff = false;
  for (std::size_t c = 0; c < a.num_classes() && !any_diff; ++c)
    any_diff = a.class_vector(c) != d.class_vector(c);
  EXPECT_TRUE(any_diff);
}

TEST(FaultModel, TransientAtRateOneIsAnInvolution) {
  // rate 1.0 flips every bit regardless of the rng draws, so applying the
  // fault twice restores the original word — a structural check that the
  // injector really is a per-bit XOR.
  auto clf = small_model();
  const auto golden = clf;
  Rng r1(1), r2(2);
  inject(clf, {FaultKind::kTransient, 1.0}, r1);
  bool changed = false;
  for (std::size_t c = 0; c < clf.num_classes() && !changed; ++c)
    changed = clf.class_vector(c) != golden.class_vector(c);
  EXPECT_TRUE(changed);
  inject(clf, {FaultKind::kTransient, 1.0}, r2);
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    EXPECT_EQ(clf.class_vector(c), golden.class_vector(c));
}

TEST(FaultModel, StuckAtExtremesForceWords) {
  auto clf = small_model();
  clf.quantize(8);
  Rng r(7);
  inject(clf, {FaultKind::kStuckAt0, 1.0}, r);
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    for (auto v : clf.class_vector(c)) EXPECT_EQ(v, 0);

  auto clf1 = small_model();
  clf1.quantize(8);
  Rng r1(7);
  inject(clf1, {FaultKind::kStuckAt1, 1.0}, r1);
  // All 8 bits set == two's-complement -1.
  for (std::size_t c = 0; c < clf1.num_classes(); ++c)
    for (auto v : clf1.class_vector(c)) EXPECT_EQ(v, -1);
}

TEST(FaultModel, OneBitModelUsesBipolarStorage) {
  auto clf = small_model();
  clf.quantize(1);
  Rng r0(5), r1(5);
  auto zero = clf, one = clf;
  inject(zero, {FaultKind::kStuckAt0, 1.0}, r0);
  inject(one, {FaultKind::kStuckAt1, 1.0}, r1);
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    for (std::size_t j = 0; j < clf.dims(); ++j) {
      EXPECT_EQ(zero.class_vector(c)[j], -1);
      EXPECT_EQ(one.class_vector(c)[j], 1);
    }
}

TEST(FaultModel, DeadBlockKillsWholeChunksAcrossClasses) {
  auto clf = small_model(512, 3);  // 4 chunks of 128
  inject_dead_blocks(clf, {1, 3});
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    for (std::size_t j = 0; j < clf.dims(); ++j) {
      const std::size_t k = j / 128;
      if (k == 1 || k == 3) {
        EXPECT_EQ(clf.class_vector(c)[j], 0) << "class " << c << " dim " << j;
      }
    }
  EXPECT_THROW(inject_dead_blocks(clf, {4}), std::out_of_range);
}

TEST(FaultModel, DeadBlockSamplingMatchesInjection) {
  auto clf = small_model(1024, 2);  // 8 chunks
  Rng sample_rng(21), inject_rng(21);
  const auto dead = sample_dead_chunks(clf.num_chunks(), 0.5, sample_rng);
  inject(clf, {FaultKind::kDeadBlock, 0.5}, inject_rng);
  for (std::size_t k = 0; k < clf.num_chunks(); ++k) {
    const bool expect_dead =
        std::find(dead.begin(), dead.end(), k) != dead.end();
    bool all_zero = true;
    for (std::size_t j = k * 128; j < (k + 1) * 128 && all_zero; ++j)
      all_zero = clf.class_vector(0)[j] == 0;
    if (expect_dead) {
      EXPECT_TRUE(all_zero) << "chunk " << k;
    }
  }
  EXPECT_FALSE(dead.empty());  // 8 chunks at p=0.5: all-alive is a bug smell
}

TEST(FaultModel, InjectionLeavesNormsStale) {
  // The hardware keeps norms in the separate norm2 array; the injector
  // must NOT refresh them — BlockGuard detection depends on it.
  auto clf = small_model();
  const auto norm_before = clf.chunk_norm(0, 0);
  Rng r(3);
  inject(clf, {FaultKind::kTransient, 0.5}, r);
  EXPECT_EQ(clf.chunk_norm(0, 0), norm_before);
}

TEST(FaultModel, BinaryHvInjection) {
  Rng rng(11);
  auto hv = hdc::BinaryHV::random(256, rng);
  auto copy = hv;
  Rng r1(5);
  inject(copy, {FaultKind::kStuckAt1, 1.0}, r1);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_TRUE(copy.bit(i));
  Rng r0(5);
  inject(copy, {FaultKind::kStuckAt0, 1.0}, r0);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_FALSE(copy.bit(i));

  // Dead block zeroes an aligned 128-bit span.
  auto blocky = hv;
  Rng rb(17);
  inject(blocky, {FaultKind::kDeadBlock, 1.0}, rb);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_FALSE(blocky.bit(i));
}

TEST(FaultModel, BankCorrelatedHitsOnlyDrawnBanks) {
  // Unlike kDeadBlock — which kills one chunk across ALL classes — the
  // bank-correlated burst corrupts whole class vectors and leaves every
  // class outside the hit banks untouched.
  auto clf = small_model(512, 6);
  const auto golden = clf;
  Rng r(123);
  inject_bank_correlated(clf, {1, 4}, 0.5, r);
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    const bool hit = (c % kClassMemoryBanks == 1) || (c % kClassMemoryBanks == 4);
    if (hit) {
      EXPECT_NE(clf.class_vector(c), golden.class_vector(c)) << "class " << c;
    } else {
      EXPECT_EQ(clf.class_vector(c), golden.class_vector(c)) << "class " << c;
    }
  }
}

TEST(FaultModel, BankCorrelatedSamplingMatchesInjection) {
  auto a = small_model(256, 6);
  auto b = a;
  Rng sample_rng(77), inject_rng(77);
  const auto banks = sample_faulty_banks(0.3, sample_rng);
  const double burst = 0.4;
  inject_bank_correlated(a, banks, burst, sample_rng);
  inject(b, {FaultKind::kBankCorrelated, 0.3, burst}, inject_rng);
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    EXPECT_EQ(a.class_vector(c), b.class_vector(c)) << "class " << c;
}

TEST(FaultModel, BankCorrelatedIsSeedDeterministic) {
  auto a = small_model(256, 6);
  auto b = small_model(256, 6);
  Rng ra(42), rb(42);
  inject(a, {FaultKind::kBankCorrelated, 0.5, 0.2}, ra);
  inject(b, {FaultKind::kBankCorrelated, 0.5, 0.2}, rb);
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    EXPECT_EQ(a.class_vector(c), b.class_vector(c));
}

TEST(FaultModel, BankCorrelatedDrawsAllSixteenBanks) {
  // The hit pattern belongs to the 16 physical banks, not the model: at
  // rate 1.0 every bank is drawn, and with 6 classes exactly banks 0..5
  // land on storage.
  Rng r(1);
  const auto banks = sample_faulty_banks(1.0, r);
  ASSERT_EQ(banks.size(), kClassMemoryBanks);
  auto clf = small_model(256, 6);
  const auto golden = clf;
  Rng ri(9);
  inject(clf, {FaultKind::kBankCorrelated, 1.0, 1.0}, ri);
  // burst_rate 1.0 flips every bit of every stored word.
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    EXPECT_NE(clf.class_vector(c), golden.class_vector(c));
}

TEST(FaultModel, BankCorrelatedLeavesNormsStale) {
  auto clf = small_model(256, 3);
  const auto norm_before = clf.chunk_norm(1, 0);
  Rng r(3);
  inject(clf, {FaultKind::kBankCorrelated, 1.0, 0.5}, r);
  EXPECT_EQ(clf.chunk_norm(1, 0), norm_before);
}

TEST(FaultModel, BankCorrelatedRejectsEncoderMemories) {
  // The mode is defined over the 16 class-memory banks; item/level rows and
  // accumulators have no bank structure to correlate over.
  Rng rng(2);
  auto hv = hdc::BinaryHV::random(128, rng);
  EXPECT_THROW(
      { Rng r(1); inject(hv, {FaultKind::kBankCorrelated, 0.1}, r); },
      std::invalid_argument);
  hdc::IntHV acc(128, 1);
  EXPECT_THROW(
      { Rng r(1); inject(acc, {FaultKind::kBankCorrelated, 0.1}, r, 8); },
      std::invalid_argument);
}

TEST(FaultModel, BankCorrelatedNameRoundTrips) {
  EXPECT_EQ(fault_kind_name(FaultKind::kBankCorrelated), "bank_correlated");
  EXPECT_EQ(fault_kind_from_name("bank_correlated"),
            FaultKind::kBankCorrelated);
}

TEST(FaultModel, IntHvInjectionRespectsBitWidth) {
  hdc::IntHV acc(256, 3);
  Rng r(9);
  inject(acc, {FaultKind::kStuckAt1, 1.0}, r, 4);
  for (auto v : acc) EXPECT_EQ(v, -1);  // 4-bit all-ones
  EXPECT_THROW(
      { Rng bad(1); inject(acc, {FaultKind::kTransient, 0.1}, bad, 0); },
      std::invalid_argument);
}

}  // namespace
}  // namespace generic::resilience
