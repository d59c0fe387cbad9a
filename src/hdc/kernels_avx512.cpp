// AVX-512 backend: native vpopcntq over 512-bit lanes, the dot tile of
// hdc/kernels_tile.h on 512-bit lanes, and the bit-sliced window bundle of
// hdc/kernels_bundle.h: vpshldvq funnel shifts, vpternlogq carry-save
// adders, and _mm512_mask_add_epi16 to turn bit-planes into counts.
//
// Requires AVX512F + AVX512BW + AVX512VPOPCNTDQ + AVX512VBMI2 +
// AVX512_VNNI (Ice Lake, Sapphire Rapids, Zen 4 and later; dispatch checks
// all five at runtime; BW is the bundle's 16-bit mask-add, VBMI2 the
// bundle's vpshldvq, VNNI the tile's vpdpwssd). The many-rows kernel
// interleaves two reference
// rows per pass so each 512-bit query load is amortized across two
// XOR+popcount chains — that, not the popcount itself, is where the wins
// over scalar come from at typical 64-word (4096-dim) rows. Exact integer
// sums, so bit-identical to the scalar reference by construction.
//
// This TU is compiled with -mavx512f -mavx512bw -mavx512vpopcntdq
// -mavx512vbmi2 -mavx512vnni (see src/hdc/CMakeLists.txt).
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_AVX512)

#include "hdc/kernels_bundle.h"
#include "hdc/kernels_tile.h"

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace generic::hdc::kernels::detail {

namespace {

std::size_t avx512_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  __m512i t0 = _mm512_setzero_si512();
  __m512i t1 = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i));
    const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    t0 = _mm512_add_epi64(t0, _mm512_popcnt_epi64(x0));
    t1 = _mm512_add_epi64(t1, _mm512_popcnt_epi64(x1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    t0 = _mm512_add_epi64(t0, _mm512_popcnt_epi64(x));
  }
  std::size_t s = static_cast<std::size_t>(_mm512_reduce_add_epi64(t0)) +
                  static_cast<std::size_t>(_mm512_reduce_add_epi64(t1));
  for (; i < n; ++i)
    s += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return s;
}

void avx512_xor_popcount_many(const std::uint64_t* q,
                              const std::uint64_t* const* refs,
                              std::size_t rows, std::size_t words,
                              std::size_t* out) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const std::uint64_t* b0 = refs[r];
    const std::uint64_t* b1 = refs[r + 1];
    __m512i t0 = _mm512_setzero_si512();
    __m512i t1 = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= words; i += 8) {
      const __m512i vq = _mm512_loadu_si512(q + i);
      t0 = _mm512_add_epi64(
          t0, _mm512_popcnt_epi64(
                  _mm512_xor_si512(vq, _mm512_loadu_si512(b0 + i))));
      t1 = _mm512_add_epi64(
          t1, _mm512_popcnt_epi64(
                  _mm512_xor_si512(vq, _mm512_loadu_si512(b1 + i))));
    }
    std::size_t s0 = static_cast<std::size_t>(_mm512_reduce_add_epi64(t0));
    std::size_t s1 = static_cast<std::size_t>(_mm512_reduce_add_epi64(t1));
    for (; i < words; ++i) {
      s0 += static_cast<std::size_t>(std::popcount(q[i] ^ b0[i]));
      s1 += static_cast<std::size_t>(std::popcount(q[i] ^ b1[i]));
    }
    out[r] += s0;
    out[r + 1] += s1;
  }
  for (; r < rows; ++r) out[r] += avx512_xor_popcount(q, refs[r], words);
}

/// The vector ops kernels_tile.h is written over, on 512-bit lanes.
struct Avx512 {
  using V = __m512i;
  static constexpr std::size_t kInt32Lanes = 16;
  static constexpr std::size_t kInt16Lanes = 32;
  static V zero() { return _mm512_setzero_si512(); }
  static V load(const void* p) { return _mm512_loadu_si512(p); }
  /// Sixteen query values as int32 lanes; narrow rows sign-extend
  /// (vpmovsxbd / vpmovsxwd).
  static V load32(const std::int32_t* p) { return load(p); }
  static V load32(const std::int16_t* p) {
    return _mm512_cvtepi16_epi32(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(p)));
  }
  static V load32(const std::int8_t* p) {
    return _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  /// Thirty-two query values as int16 lanes; int8 rows sign-extend
  /// (vpmovsxbw).
  static V load16(const std::int16_t* p) { return load(p); }
  static V load16(const std::int8_t* p) {
    return _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static V add64(V a, V b) { return _mm512_add_epi64(a, b); }
  /// Odd int32 lanes moved into the even slots mul_even reads.
  static V odd(V a) { return _mm512_srli_epi64(a, 32); }
  /// Signed products of the even int32 lanes, as int64 lanes.
  static V mul_even(V a, V b) { return _mm512_mul_epi32(a, b); }
  /// acc + the int16 pairs of a and b multiplied and summed into int32
  /// lanes, one vpdpwssd (it wraps exactly like vpmaddwd + vpaddd).
  static V dot16(V acc, V a, V b) { return _mm512_dpwssd_epi32(acc, a, b); }
  /// Sixteen int32 lanes summed pairwise into eight int64 lanes.
  static V widen(V a) {
    return _mm512_add_epi64(
        _mm512_cvtepi32_epi64(_mm512_castsi512_si256(a)),
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(a, 1)));
  }
  static std::uint64_t hsum64(V a) {
    return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(a));
  }

  static void store(void* p, V a) { _mm512_storeu_si512(p, a); }
  static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }

  /// Window bundle (kernels_bundle.h): 8 words = 512 dims per block, 8
  /// blocks (4096 dims) of a window in registers at once.
  static constexpr std::size_t kWords = 8;
  static constexpr std::size_t kTile = 8;
  static V shift(unsigned bs) { return _mm512_set1_epi64(bs); }
  /// The upper half of lo:prev << bs, one vpshldvq.
  static V funnel(V lo, V prev, V bs) {
    return _mm512_shldv_epi64(lo, prev, bs);
  }
  /// [last[7], lo[0..6]]: one valignq instead of a second split load.
  static V back(const std::uint64_t*, V lo, V last) {
    return _mm512_alignr_epi64(lo, last, 7);
  }
  /// Lanes r..r+7 of the row's last vector followed by its first.
  static V wrap(const std::uint64_t* in, std::size_t nw, std::size_t r) {
    const V idx =
        _mm512_add_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                         _mm512_set1_epi64(static_cast<long long>(r)));
    return _mm512_permutex2var_epi64(load(in + nw - kWords), idx, load(in));
  }
  /// Carry-save adder: h = majority(a, b, c), l = a ^ b ^ c.
  static void csa(V& h, V& l, V a, V b, V c) {
    h = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    l = _mm512_ternarylogic_epi64(a, b, c, 0x96);
  }
  /// Bit-planes to counts, 32 dims at a time: Horner over the planes from
  /// the top, c = 2c + bit, the bit being a 32-bit half-word of the plane
  /// used as the mask of one _mm512_mask_add_epi16.
  static void flush_block(const std::uint64_t* planes, std::size_t stride,
                          std::size_t nplanes, std::int32_t n,
                          std::int32_t* acc) {
    const __m512i one = _mm512_set1_epi16(1);
    const __m512i neg_n = _mm512_set1_epi32(-n);
    auto add = [&](__m256i counts, std::int32_t* a) {
      const __m512i c32 = _mm512_cvtepu16_epi32(counts);
      const __m512i bipolar = _mm512_add_epi32(_mm512_add_epi32(c32, c32),
                                               neg_n);
      _mm512_storeu_si512(a, _mm512_add_epi32(_mm512_loadu_si512(a), bipolar));
    };
    for (std::size_t h = 0; h < 2 * kWords; ++h) {
      __m512i c = _mm512_setzero_si512();
      for (std::size_t k = nplanes; k-- > 0;) {
        // Little-endian: half-word h of the plane is dims 32h..32h+31.
        // Copying it out of memory lets the compiler load it straight into
        // a mask register (kmovd k, m32).
        std::uint32_t mask = 0;
        std::memcpy(&mask,
                    reinterpret_cast<const char*>(planes + k * stride) + 4 * h,
                    4);
        c = _mm512_add_epi16(c, c);
        c = _mm512_mask_add_epi16(c, _cvtu32_mask32(mask), c, one);
      }
      add(_mm512_castsi512_si256(c), acc + 32 * h);
      add(_mm512_extracti64x4_epi64(c, 1), acc + 32 * h + 16);
    }
  }
};

}  // namespace

const Kernels& avx512_table() {
  static const Kernels k{Backend::kAvx512, "avx512",
                         &avx512_xor_popcount_many, &dot_tile<Avx512>,
                         &bundle_windows<Avx512>};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_AVX512
