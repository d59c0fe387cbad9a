// Property-based tests of the HDC algebra (paper §2, Eq. 1): randomized
// inputs across many dimensionalities — including non-multiples of 64, so
// the packed tail word is always in play — checked against the algebraic
// identities and against naive bit-by-bit references.
//
//  * bind is self-inverse: (a ^ b) ^ b == a
//  * permute composes:  rho^j(rho^k(a)) == rho^(j+k)(a)
//    and inverts:       rho^(D-k)(rho^k(a)) == a
//    and distributes over bind: rho^k(a ^ b) == rho^k(a) ^ rho^k(b)
//  * Hamming equals a naive per-bit loop
//  * Hamming similarity, 1 - 2 * hamming / D, equals the cosine of the
//    bipolar integer expansions
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "hdc/hypervector.h"

namespace generic::hdc {
namespace {

// Tail-exercising dimensionalities: multiples of 64, off-by-one around
// word boundaries, and small awkward sizes.
const std::size_t kDims[] = {1, 3, 63, 64, 65, 100, 130, 509, 1024, 2050};

TEST(HdcAlgebraProperty, BindIsSelfInverse) {
  Rng rng(0xB1ul);
  for (std::size_t dims : kDims) {
    for (int rep = 0; rep < 8; ++rep) {
      const BinaryHV a = BinaryHV::random(dims, rng);
      const BinaryHV b = BinaryHV::random(dims, rng);
      EXPECT_EQ((a ^ b) ^ b, a) << "dims=" << dims;
      EXPECT_EQ(a ^ a, BinaryHV(dims)) << "dims=" << dims;  // identity is -1...
    }
  }
}

TEST(HdcAlgebraProperty, BindCommutesAndAssociates) {
  Rng rng(0xB2ul);
  for (std::size_t dims : kDims) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    const BinaryHV b = BinaryHV::random(dims, rng);
    const BinaryHV c = BinaryHV::random(dims, rng);
    EXPECT_EQ(a ^ b, b ^ a);
    EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));
  }
}

TEST(HdcAlgebraProperty, PermuteComposes) {
  Rng rng(0xB3ul);
  for (std::size_t dims : kDims) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    for (std::size_t j : {std::size_t{0}, std::size_t{1}, dims / 3, dims - 1}) {
      for (std::size_t k : {std::size_t{1}, dims / 2}) {
        EXPECT_EQ(a.rotated(k).rotated(j), a.rotated((j + k) % dims))
            << "dims=" << dims << " j=" << j << " k=" << k;
      }
    }
  }
}

TEST(HdcAlgebraProperty, PermuteInverts) {
  Rng rng(0xB4ul);
  for (std::size_t dims : kDims) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    for (std::size_t k = 0; k < dims; k += (dims < 16 ? 1 : dims / 7)) {
      EXPECT_EQ(a.rotated(k).rotated(dims - k), a)
          << "dims=" << dims << " k=" << k;
    }
  }
}

TEST(HdcAlgebraProperty, PermuteDistributesOverBind) {
  Rng rng(0xB5ul);
  for (std::size_t dims : kDims) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    const BinaryHV b = BinaryHV::random(dims, rng);
    const std::size_t k = dims / 2 + 1 < dims ? dims / 2 + 1 : 0;
    EXPECT_EQ((a ^ b).rotated(k), a.rotated(k) ^ b.rotated(k))
        << "dims=" << dims;
  }
}

TEST(HdcAlgebraProperty, PermutePreservesPopcount) {
  Rng rng(0xB6ul);
  for (std::size_t dims : kDims) {
    const BinaryHV a = BinaryHV::random(dims, rng);
    EXPECT_EQ(a.rotated(dims / 3 + 1 < dims ? dims / 3 + 1 : 0).popcount(),
              a.popcount())
        << "dims=" << dims;
  }
}

/// Naive O(D) reference: compare bit by bit through the public accessor.
std::size_t naive_hamming(const BinaryHV& a, const BinaryHV& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.dims(); ++i) d += a.bit(i) != b.bit(i);
  return d;
}

TEST(HdcAlgebraProperty, HammingMatchesNaiveReference) {
  Rng rng(0xB7ul);
  for (std::size_t dims : kDims) {
    for (int rep = 0; rep < 4; ++rep) {
      const BinaryHV a = BinaryHV::random(dims, rng);
      const BinaryHV b = BinaryHV::random(dims, rng);
      const std::size_t expect = naive_hamming(a, b);
      EXPECT_EQ(a.hamming(b), expect) << "dims=" << dims;
    }
  }
}

TEST(HdcAlgebraProperty, HammingSimilarityEqualsBipolarCosine) {
  Rng rng(0xBCul);
  for (std::size_t dims : kDims) {
    if (dims < 2) continue;  // cosine of a 1-dim pair is degenerate +-1 too,
                             // but keep the loop on interesting sizes
    const BinaryHV a = BinaryHV::random(dims, rng);
    const BinaryHV b = BinaryHV::random(dims, rng);
    const double sim = 1.0 - 2.0 * static_cast<double>(a.hamming(b)) /
                                 static_cast<double>(dims);
    const double cos = cosine(a.to_int(), b.to_int());
    EXPECT_NEAR(sim, cos, 1e-12) << "dims=" << dims;
    EXPECT_NEAR(sim, static_cast<double>(a.dot(b)) / static_cast<double>(dims),
                1e-12)
        << "dims=" << dims;
  }
}

}  // namespace
}  // namespace generic::hdc
