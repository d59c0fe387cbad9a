// AVX2 backend: the dot tile of hdc/kernels_tile.h on 256-bit lanes, and
// the bit-sliced window bundle of hdc/kernels_bundle.h: sll/srl/or funnel
// shifts, five-op carry-save adders, and bit-planes expanded into 16-bit
// counts by shuffle/cmpeq. All sums are exact integers, so the result is
// bit-identical to the scalar reference by construction.
//
// This TU is compiled with -mavx2 (see src/hdc/CMakeLists.txt); dispatch
// guarantees it only runs after __builtin_cpu_supports("avx2") passed.
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_AVX2)

#include "hdc/kernels_bundle.h"
#include "hdc/kernels_tile.h"

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace generic::hdc::kernels::detail {

namespace {

/// The vector ops kernels_tile.h is written over, on 256-bit lanes.
struct Avx2 {
  using V = __m256i;
  static constexpr std::size_t kInt32Lanes = 8;
  static constexpr std::size_t kInt16Lanes = 16;
  static V zero() { return _mm256_setzero_si256(); }
  static V load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  /// Eight query values as int32 lanes; narrow rows sign-extend
  /// (vpmovsxbd / vpmovsxwd).
  static V load32(const std::int32_t* p) { return load(p); }
  static V load32(const std::int16_t* p) {
    return _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V load32(const std::int8_t* p) {
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  /// Sixteen query values as int16 lanes; int8 rows sign-extend
  /// (vpmovsxbw).
  static V load16(const std::int16_t* p) { return load(p); }
  static V load16(const std::int8_t* p) {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V add64(V a, V b) { return _mm256_add_epi64(a, b); }
  /// Odd int32 lanes moved into the even slots mul_even reads.
  static V odd(V a) { return _mm256_srli_epi64(a, 32); }
  /// Signed products of the even int32 lanes, as int64 lanes.
  static V mul_even(V a, V b) { return _mm256_mul_epi32(a, b); }
  /// acc + the int16 pairs of a and b multiplied and summed into int32
  /// lanes: vpmaddwd then vpaddd.
  static V dot16(V acc, V a, V b) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
  }
  /// Eight int32 lanes summed pairwise into four int64 lanes.
  static V widen(V a) {
    return _mm256_add_epi64(
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1)));
  }
  static std::uint64_t hsum64(V a) {
    return static_cast<std::uint64_t>(_mm256_extract_epi64(a, 0)) +
           static_cast<std::uint64_t>(_mm256_extract_epi64(a, 1)) +
           static_cast<std::uint64_t>(_mm256_extract_epi64(a, 2)) +
           static_cast<std::uint64_t>(_mm256_extract_epi64(a, 3));
  }

  static void store(void* p, V a) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), a);
  }
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }

  /// Window bundle (kernels_bundle.h): 4 words = 256 dims per block, 8
  /// blocks (2048 dims) of a window in registers at once.
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kTile = 8;
  struct Shift {
    __m128i left, right;
  };
  static Shift shift(unsigned bs) {
    return {_mm_cvtsi32_si128(static_cast<int>(bs)),
            _mm_cvtsi32_si128(static_cast<int>(kWord - bs))};
  }
  /// A shift by 64 yields 0, so bs == 0 needs no case of its own.
  static V funnel(V lo, V prev, Shift s) {
    return _mm256_or_si256(_mm256_sll_epi64(lo, s.left),
                           _mm256_srl_epi64(prev, s.right));
  }
  /// A load: on 256-bit lanes it is cheaper than the two shuffles that
  /// would splice lo and last.
  static V back(const std::uint64_t* p, V, V) { return load(p - 1); }
  /// Lanes r..r+3 of the row's last vector followed by its first, gathered
  /// word by word.
  static V wrap(const std::uint64_t* in, std::size_t nw, std::size_t r) {
    auto word = [&](std::size_t i) {
      return static_cast<long long>(r + i < kWords ? in[nw - kWords + r + i]
                                                   : in[r + i - kWords]);
    };
    return _mm256_setr_epi64x(word(0), word(1), word(2), word(3));
  }
  /// Carry-save adder in five ops: h = majority(a, b, c), l = a ^ b ^ c.
  static void csa(V& h, V& l, V a, V b, V c) {
    const V u = _mm256_xor_si256(a, b);
    h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    l = _mm256_xor_si256(u, c);
  }
  /// Bit-planes to counts, 16 dims at a time: Horner over the planes from
  /// the top, c = 2c + bit. The plane word is broadcast; a byte shuffle
  /// gives lanes 0-7 the low byte of the 16-bit quarter and lanes 8-15 its
  /// high byte, and cmpeq against each lane's bit yields 0xFFFF (-1) where
  /// the bit is set, which subtracting adds as +1.
  static void flush_block(const std::uint64_t* planes, std::size_t stride,
                          std::size_t nplanes, std::int32_t n,
                          std::int32_t* acc) {
    const __m256i lane_bit = _mm256_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128, 1,
                                               2, 4, 8, 16, 32, 64, 128);
    const __m256i neg_n = _mm256_set1_epi32(-n);
    auto add = [&](__m128i counts, std::int32_t* a) {
      const __m256i c32 = _mm256_cvtepu16_epi32(counts);
      const __m256i bipolar = _mm256_add_epi32(_mm256_add_epi32(c32, c32),
                                               neg_n);
      auto* v = reinterpret_cast<__m256i*>(a);
      _mm256_storeu_si256(v, _mm256_add_epi32(_mm256_loadu_si256(v), bipolar));
    };
    for (std::size_t o = 0; o < kWords; ++o)
      for (int q = 0; q < 4; ++q) {
        const __m256i pick =
            _mm256_setr_m128i(_mm_set1_epi8(static_cast<char>(2 * q)),
                              _mm_set1_epi8(static_cast<char>(2 * q + 1)));
        __m256i c = _mm256_setzero_si256();
        for (std::size_t k = nplanes; k-- > 0;) {
          const __m256i word = _mm256_set1_epi64x(
              static_cast<long long>(planes[k * stride + o]));
          const __m256i bits =
              _mm256_and_si256(_mm256_shuffle_epi8(word, pick), lane_bit);
          c = _mm256_sub_epi16(_mm256_add_epi16(c, c),
                               _mm256_cmpeq_epi16(bits, lane_bit));
        }
        std::int32_t* a = acc + kWord * o + 16 * q;
        add(_mm256_castsi256_si128(c), a);
        add(_mm256_extracti128_si256(c, 1), a + 8);
      }
  }
};

}  // namespace

const Kernels& avx2_table() {
  static const Kernels k{Backend::kAvx2, "avx2", &dot_tile<Avx2>,
                         &bundle_windows<Avx2>};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_AVX2
