#include "hdc/hypervector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "hdc/kernels.h"

namespace generic::hdc {
namespace {

TEST(BinaryHV, ZeroInitialized) {
  BinaryHV hv(130);
  EXPECT_EQ(hv.dims(), 130u);
  EXPECT_EQ(hv.num_words(), 3u);
  EXPECT_EQ(hv.popcount(), 0u);
}

TEST(BinaryHV, SetGetFlip) {
  BinaryHV hv(100);
  hv.set(0, true);
  hv.set(63, true);
  hv.set(64, true);
  hv.set(99, true);
  EXPECT_TRUE(hv.bit(0));
  EXPECT_TRUE(hv.bit(63));
  EXPECT_TRUE(hv.bit(64));
  EXPECT_TRUE(hv.bit(99));
  EXPECT_FALSE(hv.bit(1));
  EXPECT_EQ(hv.popcount(), 4u);
  hv.flip(0);
  EXPECT_FALSE(hv.bit(0));
  EXPECT_EQ(hv.popcount(), 3u);
}

TEST(BinaryHV, RandomIsBalanced) {
  Rng rng(3);
  const BinaryHV hv = BinaryHV::random(4096, rng);
  EXPECT_NEAR(static_cast<double>(hv.popcount()), 2048.0, 200.0);
}

TEST(BinaryHV, RandomTailMasked) {
  Rng rng(3);
  const BinaryHV hv = BinaryHV::random(70, rng);
  // Bits 70..127 must be clear so popcount counts only real dimensions.
  EXPECT_LE(hv.popcount(), 70u);
  for (std::size_t i = 70; i < 128; ++i)
    EXPECT_FALSE((hv.words()[1] >> (i - 64)) & 1ULL);
}

TEST(BinaryHV, XorIsBipolarMultiply) {
  Rng rng(5);
  const BinaryHV a = BinaryHV::random(256, rng);
  const BinaryHV b = BinaryHV::random(256, rng);
  const BinaryHV c = a ^ b;
  for (std::size_t i = 0; i < 256; ++i) {
    // In bipolar terms XOR is multiplication up to a sign convention:
    // bit = a_bit XOR b_bit  <=>  bipolar(c) = -bipolar(a)*bipolar(b).
    EXPECT_EQ(c.bipolar(i), -a.bipolar(i) * b.bipolar(i));
  }
}

TEST(BinaryHV, XorSelfInverse) {
  Rng rng(7);
  const BinaryHV a = BinaryHV::random(512, rng);
  const BinaryHV b = BinaryHV::random(512, rng);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST(BinaryHV, XorDimMismatchThrows) {
  BinaryHV a(64), b(128);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(BinaryHV, HammingAndDot) {
  BinaryHV a(64), b(64);
  a.set(0, true);
  a.set(1, true);
  b.set(1, true);
  b.set(2, true);
  EXPECT_EQ(a.hamming(b), 2u);
  EXPECT_EQ(a.dot(b), 64 - 2 * 2);
  EXPECT_EQ(a.dot(a), 64);
}

TEST(BinaryHV, RotatedPreservesPopcount) {
  Rng rng(11);
  const BinaryHV a = BinaryHV::random(4096, rng);
  for (std::size_t k : {1u, 7u, 64u, 65u, 4095u})
    EXPECT_EQ(a.rotated(k).popcount(), a.popcount()) << "k=" << k;
}

TEST(BinaryHV, RotatedMatchesBitwiseDefinition) {
  Rng rng(13);
  for (std::size_t dims : {64u, 128u, 100u, 4096u}) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    for (std::size_t k : {0u, 1u, 63u, 64u, 65u}) {
      const BinaryHV r = a.rotated(k);
      for (std::size_t i = 0; i < dims; ++i)
        ASSERT_EQ(r.bit((i + k) % dims), a.bit(i))
            << "dims=" << dims << " k=" << k << " i=" << i;
    }
  }
}

TEST(BinaryHV, RotationComposes) {
  Rng rng(17);
  const BinaryHV a = BinaryHV::random(256, rng);
  EXPECT_EQ(a.rotated(5).rotated(9), a.rotated(14));
  EXPECT_EQ(a.rotated(256), a);
}

TEST(BinaryHV, AccumulateMatchesToInt) {
  Rng rng(19);
  const BinaryHV a = BinaryHV::random(192, rng);
  IntHV acc(192, 0);
  a.accumulate_into(acc, +1);
  EXPECT_EQ(acc, a.to_int());
  a.accumulate_into(acc, -1);
  for (auto v : acc) EXPECT_EQ(v, 0);
}

/// a . b through the active kernels' one-query dot tile, the one int dot.
std::int64_t tile_dot(const IntHV& a, const IntHV& b) {
  const std::int32_t* q = a.data();
  const std::int32_t* row = b.data();
  const kernels::DimRun all{0, a.size()};
  std::int64_t out = 0;
  kernels::active().dot_tile(&q, 1, {&row, 1}, &all, 1, &out);
  return out;
}

TEST(IntHV, DotAndNorm) {
  const IntHV a{1, -2, 3};
  const IntHV b{4, 5, -6};
  EXPECT_EQ(tile_dot(a, b), 4 - 10 - 18);
  EXPECT_EQ(norm2(a), 1 + 4 + 9);
}

TEST(IntHV, DotWithBinaryMatchesExpansion) {
  Rng rng(23);
  const BinaryHV b = BinaryHV::random(300, rng);
  IntHV a(300);
  for (auto& v : a) v = static_cast<std::int32_t>(rng.range(-50, 50));
  // sum_i a_i * (2 b_i - 1) = 2 * sum_{i: b_i=1} a_i - sum_i a_i.
  std::int64_t sum_all = 0;
  std::int64_t sum_set = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum_all += a[i];
    if (b.bit(i)) sum_set += a[i];
  }
  EXPECT_EQ(tile_dot(a, b.to_int()), 2 * sum_set - sum_all);
}

TEST(IntHV, CosineBounds) {
  const IntHV a{1, 0, 0};
  const IntHV b{0, 1, 0};
  const IntHV c{2, 0, 0};
  EXPECT_DOUBLE_EQ(cosine(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cosine(a, c), 1.0);
  const IntHV zero{0, 0, 0};
  EXPECT_DOUBLE_EQ(cosine(a, zero), 0.0);
}

TEST(IntHV, AddIntoSigns) {
  IntHV acc{1, 1};
  add_into(acc, IntHV{2, 3}, +1);
  EXPECT_EQ(acc, (IntHV{3, 4}));
  add_into(acc, IntHV{1, 1}, -1);
  EXPECT_EQ(acc, (IntHV{2, 3}));
}

}  // namespace
}  // namespace generic::hdc
