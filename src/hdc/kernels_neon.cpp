// NEON backend (aarch64): vcnt per-byte popcount + widening horizontal add.
//
// NEON is baseline on aarch64, so no runtime CPU check is needed — only the
// compile-time gate. vaddlvq_u8 folds the 16 per-byte counts of each
// 128-bit XOR into one u16 (max 128, no saturation possible), keeping the
// kernel simple and exactly equal to the scalar reference. The many-rows
// kernel shares each query load across two rows. The dot tile and the
// window bundle are the scalar reference's until an aarch64 host can test
// NEON ones.
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_NEON)

#include <arm_neon.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace generic::hdc::kernels::detail {

namespace {

inline std::size_t count128(uint64x2_t a, uint64x2_t b) {
  return vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(veorq_u64(a, b))));
}

std::size_t neon_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) {
  std::size_t s0 = 0, s1 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += count128(vld1q_u64(a + i), vld1q_u64(b + i));
    s1 += count128(vld1q_u64(a + i + 2), vld1q_u64(b + i + 2));
  }
  for (; i + 2 <= n; i += 2)
    s0 += count128(vld1q_u64(a + i), vld1q_u64(b + i));
  for (; i < n; ++i)
    s0 += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return s0 + s1;
}

void neon_xor_popcount_many(const std::uint64_t* q,
                            const std::uint64_t* const* refs, std::size_t rows,
                            std::size_t words, std::size_t* out) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const std::uint64_t* b0 = refs[r];
    const std::uint64_t* b1 = refs[r + 1];
    std::size_t s0 = 0, s1 = 0;
    std::size_t i = 0;
    for (; i + 2 <= words; i += 2) {
      const uint64x2_t vq = vld1q_u64(q + i);
      s0 += count128(vq, vld1q_u64(b0 + i));
      s1 += count128(vq, vld1q_u64(b1 + i));
    }
    for (; i < words; ++i) {
      s0 += static_cast<std::size_t>(std::popcount(q[i] ^ b0[i]));
      s1 += static_cast<std::size_t>(std::popcount(q[i] ^ b1[i]));
    }
    out[r] += s0;
    out[r + 1] += s1;
  }
  for (; r < rows; ++r) out[r] += neon_xor_popcount(q, refs[r], words);
}

}  // namespace

const Kernels& neon_table() {
  static const Kernels k{Backend::kNeon, "neon", &neon_xor_popcount_many,
                         &scalar_dot_tile, &scalar_bundle_windows};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_NEON
