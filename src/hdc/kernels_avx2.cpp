// AVX2 backend: Muła pshufb nibble-lookup popcount, the dot tile of
// hdc/kernels_tile.h on 256-bit lanes, and the bit-sliced window bundle of
// hdc/kernels_bundle.h: sll/srl/or funnel shifts, five-op carry-save
// adders, and bit-planes expanded into 16-bit counts by shuffle/cmpeq.
//
// Each 256-bit lane of a ^ b is split into nibbles, counted through a
// 16-entry shuffle table, and accumulated in 8-bit lanes. Blocks are capped
// at 28 vectors (28 * 8 = 224 < 255) so the u8 lanes cannot saturate before
// the _mm256_sad_epu8 fold widens them to u64. All sums are exact integers,
// so the result is bit-identical to the scalar reference by construction.
//
// This TU is compiled with -mavx2 (see src/hdc/CMakeLists.txt); dispatch
// guarantees it only runs after __builtin_cpu_supports("avx2") passed.
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_AVX2)

#include "hdc/kernels_bundle.h"
#include "hdc/kernels_tile.h"

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

namespace generic::hdc::kernels::detail {

namespace {

inline __m256i xor256(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t k) {
  return _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k)));
}

/// Per-byte popcount of v via two 4-bit table lookups.
inline __m256i count_bytes(__m256i v, __m256i lut, __m256i low) {
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline __m256i nibble_lut() {
  return _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                          0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
}

inline std::size_t fold_u64(__m256i total) {
  return static_cast<std::uint64_t>(_mm256_extract_epi64(total, 0)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(total, 1)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(total, 2)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(total, 3));
}

/// u8-lane block cap: 28 vectors * max 8 bits/byte = 224 < 255.
constexpr std::size_t kBlockVectors = 28;

std::size_t avx2_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) {
  const __m256i lut = nibble_lut();
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  while (i + 4 <= n) {
    std::size_t block = (n - i) / 4;
    if (block > kBlockVectors) block = kBlockVectors;
    __m256i acc = _mm256_setzero_si256();
    std::size_t j = 0;
    for (; j + 4 <= block; j += 4) {
      const __m256i s01 = _mm256_add_epi8(count_bytes(xor256(a, b, i), lut, low),
                                          count_bytes(xor256(a, b, i + 4), lut, low));
      const __m256i s23 =
          _mm256_add_epi8(count_bytes(xor256(a, b, i + 8), lut, low),
                          count_bytes(xor256(a, b, i + 12), lut, low));
      acc = _mm256_add_epi8(acc, _mm256_add_epi8(s01, s23));
      i += 16;
    }
    for (; j < block; ++j) {
      acc = _mm256_add_epi8(acc, count_bytes(xor256(a, b, i), lut, low));
      i += 4;
    }
    total = _mm256_add_epi64(total,
                             _mm256_sad_epu8(acc, _mm256_setzero_si256()));
  }
  std::size_t s = fold_u64(total);
  for (; i < n; ++i)
    s += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return s;
}

void avx2_xor_popcount_many(const std::uint64_t* q,
                            const std::uint64_t* const* refs, std::size_t rows,
                            std::size_t words, std::size_t* out) {
  const __m256i lut = nibble_lut();
  const __m256i low = _mm256_set1_epi8(0x0f);
  std::size_t r = 0;
  // Two rows share each query load; per-row u8 accumulators obey the same
  // 28-vector block cap as the single-span kernel.
  for (; r + 2 <= rows; r += 2) {
    const std::uint64_t* b0 = refs[r];
    const std::uint64_t* b1 = refs[r + 1];
    __m256i t0 = _mm256_setzero_si256();
    __m256i t1 = _mm256_setzero_si256();
    std::size_t i = 0;
    while (i + 4 <= words) {
      std::size_t block = (words - i) / 4;
      if (block > kBlockVectors) block = kBlockVectors;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      for (std::size_t j = 0; j < block; ++j) {
        const __m256i vq =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
        const __m256i v0 = _mm256_xor_si256(
            vq, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + i)));
        const __m256i v1 = _mm256_xor_si256(
            vq, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + i)));
        acc0 = _mm256_add_epi8(acc0, count_bytes(v0, lut, low));
        acc1 = _mm256_add_epi8(acc1, count_bytes(v1, lut, low));
        i += 4;
      }
      t0 = _mm256_add_epi64(t0,
                            _mm256_sad_epu8(acc0, _mm256_setzero_si256()));
      t1 = _mm256_add_epi64(t1,
                            _mm256_sad_epu8(acc1, _mm256_setzero_si256()));
    }
    std::size_t s0 = fold_u64(t0);
    std::size_t s1 = fold_u64(t1);
    for (; i < words; ++i) {
      s0 += static_cast<std::size_t>(std::popcount(q[i] ^ b0[i]));
      s1 += static_cast<std::size_t>(std::popcount(q[i] ^ b1[i]));
    }
    out[r] += s0;
    out[r + 1] += s1;
  }
  for (; r < rows; ++r) out[r] += avx2_xor_popcount(q, refs[r], words);
}

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
  static std::uint64_t hsum64(V a) { return fold_u64(a); }

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
  static const Kernels k{Backend::kAvx2, "avx2", &avx2_xor_popcount_many,
                         &dot_tile<Avx2>, &bundle_windows<Avx2>};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_AVX2
