#include "common/quantizer.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace generic {
namespace {

TEST(Quantizer, ThrowsBeforeFit) {
  Quantizer q(8);
  EXPECT_THROW(q.bin(0.5f), std::logic_error);
}

TEST(Quantizer, RangeEndpointsClamp) {
  Quantizer q(64);
  q.fit_range(0.0f, 1.0f);
  EXPECT_EQ(q.bin(-5.0f), 0u);
  EXPECT_EQ(q.bin(0.0f), 0u);
  EXPECT_EQ(q.bin(1.0f), 63u);
  EXPECT_EQ(q.bin(99.0f), 63u);
}

TEST(Quantizer, FarOutOfRangeValuesClampToEdgeBins) {
  // Values whose scaled offset does not fit an integer still land in the
  // edge bins instead of wrapping to bin 0 through an out-of-range cast.
  Quantizer q(64);
  q.fit_range(0.0f, 1.0f);
  EXPECT_EQ(q.bin(1e17f), 63u);
  EXPECT_EQ(q.bin(1e18f), 63u);
  EXPECT_EQ(q.bin(3e38f), 63u);
  EXPECT_EQ(q.bin(-3e38f), 0u);
}

TEST(Quantizer, NonFiniteRangeRejected) {
  Quantizer q(8);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(q.fit_range(-inf, inf), std::invalid_argument);
  EXPECT_THROW(q.fit_range(0.0f, inf), std::invalid_argument);
  // Finite ends whose width overflows float.
  EXPECT_THROW(q.fit_range(-3e38f, 3e38f), std::invalid_argument);
  EXPECT_THROW(q.fit_range(std::numeric_limits<float>::quiet_NaN(), 1.0f),
               std::invalid_argument);
  EXPECT_FALSE(q.fitted());
}

TEST(Quantizer, BinsAreMonotone) {
  Quantizer q(16);
  q.fit_range(-1.0f, 1.0f);
  std::size_t prev = 0;
  for (float v = -1.0f; v <= 1.0f; v += 0.01f) {
    const std::size_t b = q.bin(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  EXPECT_EQ(prev, 15u);
}

TEST(Quantizer, UniformCoverage) {
  Quantizer q(4);
  q.fit_range(0.0f, 4.0f);
  EXPECT_EQ(q.bin(0.5f), 0u);
  EXPECT_EQ(q.bin(1.5f), 1u);
  EXPECT_EQ(q.bin(2.5f), 2u);
  EXPECT_EQ(q.bin(3.5f), 3u);
}

TEST(Quantizer, FitFromSamples) {
  const std::vector<std::vector<float>> samples{{-2.0f, 0.0f}, {1.0f, 6.0f}};
  Quantizer q(8);
  q.fit(samples);
  EXPECT_FLOAT_EQ(q.lo(), -2.0f);
  EXPECT_FLOAT_EQ(q.hi(), 6.0f);
  EXPECT_EQ(q.bin(-2.0f), 0u);
  EXPECT_EQ(q.bin(6.0f), 7u);
}

TEST(Quantizer, DegenerateRangeMapsToBinZero) {
  Quantizer q(8);
  q.fit_range(3.0f, 3.0f);
  EXPECT_EQ(q.bin(3.0f), 0u);
  EXPECT_EQ(q.bin(2.0f), 0u);
}

TEST(Quantizer, TransformWholeVector) {
  Quantizer q(4);
  q.fit_range(0.0f, 4.0f);
  const std::vector<float> x{0.1f, 1.1f, 2.1f, 3.9f};
  const auto bins = q.transform(x);
  EXPECT_EQ(bins, (std::vector<std::uint16_t>{0, 1, 2, 3}));
}

TEST(Quantizer, ZeroBinsRejected) {
  EXPECT_THROW(Quantizer(0), std::invalid_argument);
}

}  // namespace
}  // namespace generic
