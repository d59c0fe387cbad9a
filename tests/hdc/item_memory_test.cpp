#include "hdc/item_memory.h"

#include <gtest/gtest.h>

namespace generic::hdc {
namespace {

TEST(ItemMemory, DeterministicAcrossInstances) {
  ItemMemory a(256, 42), b(256, 42);
  EXPECT_EQ(a.get(0), b.get(0));
  EXPECT_EQ(a.get(17), b.get(17));
}

TEST(ItemMemory, AccessOrderIndependent) {
  ItemMemory a(256, 42), b(256, 42);
  const BinaryHV a5 = a.get(5);  // forces 0..5 in a
  (void)b.get(100);              // forces 0..100 in b first
  EXPECT_EQ(b.get(5), a5);
}

TEST(ItemMemory, DistinctKeysAreQuasiOrthogonal) {
  ItemMemory im(4096, 7);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = i + 1; j < 8; ++j)
      EXPECT_NEAR(static_cast<double>(im.get(i).hamming(im.get(j))), 2048.0,
                  220.0);
}

TEST(LevelMemory, ExtremesNearOrthogonalNeighborsClose) {
  LevelMemory lm(4096, 64, 9);
  // Adjacent levels differ by ~dims/2/(L-1) = 32.5 bits.
  const auto d01 = lm.level(0).hamming(lm.level(1));
  EXPECT_LE(d01, 40u);
  // Extremes differ by ~dims/2.
  const auto d_ends = lm.level(0).hamming(lm.level(63));
  EXPECT_NEAR(static_cast<double>(d_ends), 2048.0, 10.0);
}

TEST(LevelMemory, DistanceMonotoneInLevelGap) {
  LevelMemory lm(4096, 64, 9);
  std::size_t prev = 0;
  for (std::size_t l = 1; l < 64; ++l) {
    const std::size_t d = lm.level(0).hamming(lm.level(l));
    EXPECT_GE(d, prev) << "level " << l;
    prev = d;
  }
}

TEST(LevelMemory, SingleLevelAllowed) {
  LevelMemory lm(128, 1, 3);
  EXPECT_EQ(lm.num_levels(), 1u);
}

TEST(LevelMemory, ZeroLevelsRejected) {
  EXPECT_THROW(LevelMemory(128, 0, 3), std::invalid_argument);
}

TEST(SeededItemMemory, RotatedIdsStayOrthogonal) {
  // The ASIC's id compression (§4.3.1) relies on rotation preserving
  // orthogonality between window ids.
  SeededItemMemory sm(4096, 123);
  const BinaryHV& id0 = sm.seed_id();
  for (std::size_t k : {1u, 2u, 10u, 100u, 1000u})
    EXPECT_NEAR(static_cast<double>(id0.hamming(id0.rotated(k))), 2048.0,
                220.0)
        << "k=" << k;
}

}  // namespace
}  // namespace generic::hdc
