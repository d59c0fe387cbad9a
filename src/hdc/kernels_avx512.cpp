// AVX-512 backend: the dot tile of hdc/kernels_tile.h on 512-bit lanes,
// and the bit-sliced window bundle of hdc/kernels_bundle.h: vpshldvq
// funnel shifts, vpternlogq carry-save adders, and _mm512_mask_add_epi16
// to turn bit-planes into counts.
//
// Requires AVX512F + AVX512BW + AVX512VBMI2 + AVX512_VNNI (Ice Lake,
// Sapphire Rapids, Zen 4 and later; dispatch checks all four at runtime;
// BW is the bundle's 16-bit mask-add, VBMI2 the bundle's vpshldvq, VNNI
// the tile's vpdpwssd). Exact integer sums, so bit-identical to the scalar
// reference by construction.
//
// This TU is compiled with -mavx512f -mavx512bw -mavx512vbmi2
// -mavx512vnni (see src/hdc/CMakeLists.txt).
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_AVX512)

#include "hdc/kernels_bundle.h"
#include "hdc/kernels_tile.h"

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace generic::hdc::kernels::detail {

namespace {

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
  static const Kernels k{Backend::kAvx512, "avx512", &dot_tile<Avx512>,
                         &bundle_windows<Avx512>};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_AVX512
