// Property-based tests of the HDC algebra (paper §2, Eq. 1): randomized
// inputs across many dimensionalities — including non-multiples of 64, so
// the packed tail word is always in play — checked against the algebraic
// identities and against naive bit-by-bit references.
//
//  * bind is self-inverse: (a ^ b) ^ b == a
//  * permute composes:  rho^j(rho^k(a)) == rho^(j+k)(a)
//    and inverts:       rho^(D-k)(rho^k(a)) == a
//    and distributes over bind: rho^k(a ^ b) == rho^k(a) ^ rho^k(b)
//  * Hamming (plain and the tiled hamming_many kernel) equals a naive
//    per-bit loop
//  * hamming_similarity equals cosine of the bipolar integer expansions
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "hdc/ops.h"

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
      EXPECT_EQ(hamming_many(a, std::span(&b, 1))[0], expect)
          << "dims=" << dims;
    }
  }
}

TEST(HdcAlgebraProperty, BlockedKernelCrossesTileBoundary) {
  // More than one 4096-word tile: dims > 64 * kHammingTileWords, with a
  // ragged tail so the masked last word is exercised too.
  const std::size_t dims = 64 * kHammingTileWords + 64 * 17 + 13;
  Rng rng(0xB8ul);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const BinaryHV b = BinaryHV::random(dims, rng);
  EXPECT_EQ(hamming_many(a, std::span(&b, 1))[0], a.hamming(b));
}

TEST(HdcAlgebraProperty, HammingManyMatchesRowWise) {
  Rng rng(0xB9ul);
  for (std::size_t dims : {100ul, 509ul, 1024ul}) {
    const BinaryHV q = BinaryHV::random(dims, rng);
    std::vector<BinaryHV> refs;
    for (int r = 0; r < 9; ++r) refs.push_back(BinaryHV::random(dims, rng));
    const auto got = hamming_many(q, refs);
    ASSERT_EQ(got.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
      EXPECT_EQ(got[i], q.hamming(refs[i])) << "dims=" << dims << " i=" << i;
  }
}

TEST(HdcAlgebraProperty, HammingManyRejectsMixedDims) {
  Rng rng(0xBAul);
  const BinaryHV q = BinaryHV::random(128, rng);
  std::vector<BinaryHV> refs{BinaryHV::random(128, rng),
                             BinaryHV::random(256, rng)};
  EXPECT_THROW(hamming_many(q, refs), std::invalid_argument);
}

TEST(HdcAlgebraProperty, NearestHammingTiesResolveToLowestIndex) {
  Rng rng(0xBBul);
  const BinaryHV q = BinaryHV::random(256, rng);
  // refs[1] and refs[2] are both exact copies of the query: index 1 wins.
  std::vector<BinaryHV> refs{BinaryHV::random(256, rng), q, q};
  EXPECT_EQ(nearest_hamming(q, refs), 1u);
}

TEST(HdcAlgebraProperty, HammingSimilarityEqualsBipolarCosine) {
  Rng rng(0xBCul);
  for (std::size_t dims : kDims) {
    if (dims < 2) continue;  // cosine of a 1-dim pair is degenerate +-1 too,
                             // but keep the loop on interesting sizes
    const BinaryHV a = BinaryHV::random(dims, rng);
    const BinaryHV b = BinaryHV::random(dims, rng);
    const double sim = hamming_similarity(a, b);
    const double cos = cosine(a.to_int(), b.to_int());
    EXPECT_NEAR(sim, cos, 1e-12) << "dims=" << dims;
    EXPECT_NEAR(sim, static_cast<double>(a.dot(b)) / static_cast<double>(dims),
                1e-12)
        << "dims=" << dims;
  }
}

}  // namespace
}  // namespace generic::hdc
