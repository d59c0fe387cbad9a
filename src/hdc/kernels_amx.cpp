// AMX backend: avx512's window bundle, and a dot tile that scores blocks
// of int8 query rows with AMX tile multiplies (docs/kernels.md, "The dot
// tile").
//
// The class side is an AmxOperand (hdc/kernels.h): each int16-exact class
// value c split into hi = c >> 8 (int8) and lo = c & 0xFF (uint8), stored
// as B tiles. Per 64-dim step, 16 queries x 16 classes take one tdpbssd
// (signed x signed) into C_hi and one tdpbsud (signed x unsigned) into
// C_lo, and out = 256 * C_hi + C_lo in int64 is the exact dot, since
// 256 * hi + lo == c. The int32 tiles cannot wrap while
// max|q| * 255 * K < 2^31, K the number of dims the runs cover (|hi| <=
// 128 <= 255 bounds C_hi the same way).
//
// Every call that does not meet that bound, or lacks an int8 view, the
// operand or the int16 class bound, goes to avx512's tile, and so does a
// lone query: its tile is bound by streaming the class rows, which AMX
// does not shorten (at 512 dims avx512's is twice as fast), while two
// queries already cost avx512 more than a whole 16-query AMX block.
//
// This TU is compiled with -mamx-tile -mamx-int8 (see
// src/hdc/CMakeLists.txt).
#include "hdc/kernels_detail.h"

#if defined(GENERIC_KERNELS_HAVE_AMX)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace generic::hdc::kernels::detail {

namespace {

/// Rows and dims of one tile multiply: 16 queries x 16 classes x 64 dims.
constexpr std::size_t kRows = 16;
constexpr std::size_t kStep = AmxOperand::kStep;
constexpr std::size_t kGroup = AmxOperand::kGroup;
static_assert(kRows == kGroup, "one C tile is 16 queries x 16 classes");
constexpr std::size_t kTileBytes = AmxOperand::kTileBytes;
static_assert(kTileBytes == kRows * 64, "every tile is 16 rows of 64 bytes");
/// Fewer queries than this take avx512's tile.
constexpr std::size_t kMinQueries = 2;

/// The LDTILECFG operand (palette 1): every tile 16 rows of 64 bytes.
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {64, 64, 64, 64, 64, 64, 64, 64};
  std::uint8_t rows[16] = {16, 16, 16, 16, 16, 16, 16, 16};
};

/// True when the AMX path is exact for this call (see the header).
bool amx_applies(const QueryRows& queries, std::size_t nq,
                 const ClassRows& cls, const DimRun* runs,
                 std::size_t nruns) {
  if (queries.width != QueryWidth::kInt8 || cls.amx == nullptr ||
      cls.max_abs > 32767 || nq < kMinQueries)
    return false;
  std::int64_t k = 0;
  for (std::size_t r = 0; r < nruns; ++r)
    k += static_cast<std::int64_t>(runs[r].end - runs[r].begin);
  // An int8 value is at most 128 in magnitude, whatever the view claims.
  const std::int64_t max_q = std::min<std::int64_t>(queries.max_abs, 128);
  return max_q * 255 * k < (std::int64_t{1} << 31);
}

/// Dims [lo, hi) of query row `q` at their offsets within the 64-byte
/// tile row `dst` that starts at dim `base`; the rest of it zero.
void gather_row(const std::int8_t* q, std::size_t base, std::size_t lo,
                std::size_t hi, std::int8_t* dst) {
  if (lo == base && hi == base + kStep) {
    std::memcpy(dst, q + base, kStep);
    return;
  }
  std::memset(dst, 0, kStep);
  std::memcpy(dst + (lo - base), q + lo, hi - lo);
}

/// `nb` <= 16 query rows against class groups g0 and g0 + 1 (when
/// `pair`): C tiles 0/1 hold group g0's hi/lo sums, 2/3 group g0 + 1's.
/// Tile 4 is the gathered query step, tiles 5-7 the class steps.
void score_groups(const std::int8_t* const* q, std::size_t nb,
                  const ClassRows& cls, std::size_t groups, std::size_t g0,
                  bool pair, const DimRun* runs, std::size_t nruns,
                  std::int64_t* out) {
  alignas(64) std::int8_t a[kTileBytes];
  // Rows past the block's last query stay zero for the whole call.
  std::memset(a + nb * kStep, 0, (kRows - nb) * kStep);
  _tile_zero(0);
  _tile_zero(1);
  _tile_zero(2);
  _tile_zero(3);
  for (std::size_t r = 0; r < nruns; ++r) {
    const std::size_t end = runs[r].end;
    for (std::size_t s = runs[r].begin / kStep; s * kStep < end; ++s) {
      const std::size_t base = s * kStep;
      const std::size_t lo = std::max(base, runs[r].begin);
      const std::size_t hi = std::min(base + kStep, end);
      for (std::size_t i = 0; i < nb; ++i)
        gather_row(q[i], base, lo, hi, a + i * kStep);
      _tile_loadd(4, a, 64);
      const std::int8_t* b =
          cls.amx + AmxOperand::tile_offset(s, g0, groups);
      _tile_loadd(5, b, 64);
      _tile_dpbssd(0, 4, 5);
      _tile_loadd(6, b + kTileBytes, 64);
      _tile_dpbsud(1, 4, 6);
      if (pair) {
        b = cls.amx + AmxOperand::tile_offset(s, g0 + 1, groups);
        _tile_loadd(7, b, 64);
        _tile_dpbssd(2, 4, 7);
        _tile_loadd(5, b + kTileBytes, 64);
        _tile_dpbsud(3, 4, 5);
      }
    }
  }
  alignas(64) std::int32_t c[4][kRows * kGroup];
  _tile_stored(0, c[0], 64);
  _tile_stored(1, c[1], 64);
  if (pair) {
    _tile_stored(2, c[2], 64);
    _tile_stored(3, c[3], 64);
  }
  for (std::size_t g = 0; g < (pair ? 2u : 1u); ++g) {
    const std::size_t first = (g0 + g) * kGroup;
    const std::size_t nc = std::min(kGroup, cls.n - first);
    for (std::size_t i = 0; i < nb; ++i)
      for (std::size_t k = 0; k < nc; ++k)
        out[i * cls.n + first + k] =
            256 * static_cast<std::int64_t>(c[2 * g][i * kGroup + k]) +
            c[2 * g + 1][i * kGroup + k];
  }
}

void amx_dot_tile(const QueryRows& queries, std::size_t nq,
                  const ClassRows& cls, const DimRun* runs,
                  std::size_t nruns, std::int64_t* out) {
  if (!amx_applies(queries, nq, cls, runs, nruns))
    return avx512_table().dot_tile(queries, nq, cls, runs, nruns, out);
  amx_calls.fetch_add(1, std::memory_order_relaxed);
  static const TileConfig config;
  _tile_loadconfig(&config);
  const std::size_t groups = (cls.n + kGroup - 1) / kGroup;
  for (std::size_t q = 0; q < nq; q += kRows) {
    const std::size_t nb = std::min(kRows, nq - q);
    const std::int8_t* rows[kRows] = {};
    for (std::size_t i = 0; i < nb; ++i)
      rows[i] = static_cast<const std::int8_t*>(queries.rows[q + i]);
    for (std::size_t g = 0; g < groups; g += 2)
      score_groups(rows, nb, cls, groups, g, g + 1 < groups, runs, nruns,
                   out + q * cls.n);
  }
  _tile_release();
}

}  // namespace

const Kernels& amx_table() {
  static const Kernels k{Backend::kAmx, "amx", &amx_dot_tile,
                         avx512_table().bundle_windows};
  return k;
}

}  // namespace generic::hdc::kernels::detail

#endif  // GENERIC_KERNELS_HAVE_AMX
