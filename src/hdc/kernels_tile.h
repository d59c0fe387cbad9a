// The SIMD query×class dot tile (Kernels::dot_tile), written once over a
// small vector-op vocabulary each ISA translation unit supplies.
//
// Two paths, both exact:
//
//   int32  each vector of int32 operands is split into its even and odd
//          lanes and multiplied with the signed 32x32->64 multiply
//          (_mm*_mul_epi32), accumulating in int64 lanes. Any int32
//          operands; the sum wraps exactly like the scalar reference's.
//   int16  the dims the runs cover are packed, back to back, into int16
//          rows; madd_epi16 multiplies int16 pairs and adds adjacent
//          products into int32 lanes, which are widened into int64 lanes
//          before they can overflow. Taken only when this call's operands
//          prove it exact: max|q| and max|c| <= 32767, and every int32 lane
//          holds at most `i16_steps` * 2 products of magnitude
//          <= max|q| * max|c| before widening, a bound below 2^31.
//
// The class rows are packed once per call and shared by every query block;
// each block of kQueryBlock queries is packed, bound-checked and scored
// against every class (kQueryBlock x kClassBlock accumulators per pass, so
// every class load serves several queries). The pack reads only the dims
// the runs cover and nothing survives the call: class memory may be
// rewritten in place (fault injection, mutable_class_vector) between calls.
//
// Everything below has internal linkage on purpose: each ISA translation
// unit compiles its own copy under its own flags, so a copy built for a
// wider ISA can never be linked into a narrower backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels::detail {
namespace {

/// Queries packed and scored together, and classes per accumulator block.
constexpr std::size_t kQueryBlock = 4;
constexpr std::size_t kClassBlock = 2;
/// Below this many queries the class pack costs more than int16 saves.
constexpr std::size_t kPackMinQueries = kQueryBlock;
/// Largest operand magnitude the int16 path takes.
constexpr std::int64_t kI16Max = 32767;

/// Copy the dims `runs` cover of each of `n` rows into `dst`, one row per
/// `stride` int16 (zero-padded), truncating each value to int16, and
/// return max |v| over the values read. The copy is exact iff that is
/// <= 32767.
inline std::int64_t pack_i16(const std::int32_t* const* rows, std::size_t n,
                             const DimRun* runs, std::size_t nruns,
                             std::size_t stride, std::int16_t* dst) {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  for (std::size_t r = 0; r < n; ++r) {
    std::int16_t* d = dst + r * stride;
    const std::int32_t* row = rows[r];
    for (std::size_t k = 0; k < nruns; ++k)
      for (std::size_t j = runs[k].begin; j < runs[k].end; ++j) {
        const std::int32_t v = row[j];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
        *d++ = static_cast<std::int16_t>(v);
      }
    while (d < dst + (r + 1) * stride) *d++ = 0;
  }
  const std::int64_t neg = -static_cast<std::int64_t>(lo);
  return neg > hi ? neg : hi;
}

/// madd steps (two products per int32 lane each) the int16 path may
/// accumulate before widening: the largest s with
/// 2 * s * max_q * max_c < 2^31. 0 when an operand does not fit int16.
inline std::size_t i16_steps(std::int64_t max_q, std::int64_t max_c) {
  if (max_q > kI16Max || max_c > kI16Max) return 0;
  const std::int64_t per_step = 2 * max_q * max_c;
  if (per_step == 0) return ~std::size_t{0};
  return static_cast<std::size_t>(((std::int64_t{1} << 31) - 1) / per_step);
}

/// int32 path for NQ queries x NC classes over the runs.
template <typename Isa, int NQ, int NC>
void tile32(const std::int32_t* const* q, const std::int32_t* const* c,
            const DimRun* runs, std::size_t nruns, std::int64_t* out,
            std::size_t ldo) {
  using V = typename Isa::V;
  constexpr std::size_t kStep = Isa::kInt32Lanes;
  V acc[NQ][NC];
  std::uint64_t tail[NQ][NC] = {};
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k) acc[i][k] = Isa::zero();
  for (std::size_t r = 0; r < nruns; ++r) {
    std::size_t j = runs[r].begin;
    const std::size_t end = runs[r].end;
    for (; j + kStep <= end; j += kStep) {
      V ce[NC];
      V co[NC];
      for (int k = 0; k < NC; ++k) {
        ce[k] = Isa::load(c[k] + j);
        co[k] = Isa::odd(ce[k]);
      }
      for (int i = 0; i < NQ; ++i) {
        const V qe = Isa::load(q[i] + j);
        const V qo = Isa::odd(qe);
        for (int k = 0; k < NC; ++k)
          acc[i][k] = Isa::add64(
              acc[i][k],
              Isa::add64(Isa::mul_even(qe, ce[k]), Isa::mul_even(qo, co[k])));
      }
    }
    for (; j < end; ++j)
      for (int i = 0; i < NQ; ++i)
        for (int k = 0; k < NC; ++k)
          tail[i][k] += static_cast<std::uint64_t>(
              static_cast<std::int64_t>(q[i][j]) * c[k][j]);
  }
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k)
      out[static_cast<std::size_t>(i) * ldo + static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(tail[i][k] + Isa::hsum64(acc[i][k]));
}

/// int16 path for NQ packed queries x NC packed classes over `len` dims
/// (a multiple of Isa::kInt16Lanes), widening every `steps` madds.
template <typename Isa, int NQ, int NC>
void tile16(const std::int16_t* q, std::size_t qs, const std::int16_t* c,
            std::size_t cs, std::size_t len, std::size_t steps,
            std::int64_t* out, std::size_t ldo) {
  using V = typename Isa::V;
  constexpr std::size_t kStep = Isa::kInt16Lanes;
  V wide[NQ][NC];
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k) wide[i][k] = Isa::zero();
  for (std::size_t j = 0; j < len;) {
    const std::size_t seg =
        (len - j) / kStep <= steps ? len : j + steps * kStep;
    V acc[NQ][NC];
    for (int i = 0; i < NQ; ++i)
      for (int k = 0; k < NC; ++k) acc[i][k] = Isa::zero();
    for (; j < seg; j += kStep) {
      V cv[NC];
      for (int k = 0; k < NC; ++k)
        cv[k] = Isa::load(c + static_cast<std::size_t>(k) * cs + j);
      for (int i = 0; i < NQ; ++i) {
        const V qv = Isa::load(q + static_cast<std::size_t>(i) * qs + j);
        for (int k = 0; k < NC; ++k)
          acc[i][k] = Isa::add32(acc[i][k], Isa::madd16(qv, cv[k]));
      }
    }
    for (int i = 0; i < NQ; ++i)
      for (int k = 0; k < NC; ++k)
        wide[i][k] = Isa::add64(wide[i][k], Isa::widen(acc[i][k]));
  }
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k)
      out[static_cast<std::size_t>(i) * ldo + static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(Isa::hsum64(wide[i][k]));
}

/// What every query block of one dot_tile call scores against.
struct ClassSide {
  const std::int32_t* const* rows;
  std::size_t n;
  const DimRun* runs;
  std::size_t nruns;
  const std::int16_t* packed;  ///< int16 rows of `stride`, or null
  std::size_t stride;
};

/// One block of NQ queries against every class: the int16 path over the
/// packed queries `q16` when set, the int32 path otherwise.
template <typename Isa, int NQ>
void score_block(const ClassSide& cls, const std::int32_t* const* q,
                 const std::int16_t* q16, std::size_t steps,
                 std::int64_t* out) {
  constexpr int NC = static_cast<int>(kClassBlock);
  const std::size_t st = cls.stride;
  std::size_t c = 0;
  for (; c + kClassBlock <= cls.n; c += kClassBlock) {
    if (q16 != nullptr)
      tile16<Isa, NQ, NC>(q16, st, cls.packed + c * st, st, st, steps,
                          out + c, cls.n);
    else
      tile32<Isa, NQ, NC>(q, cls.rows + c, cls.runs, cls.nruns, out + c,
                          cls.n);
  }
  for (; c < cls.n; ++c) {
    if (q16 != nullptr)
      tile16<Isa, NQ, 1>(q16, st, cls.packed + c * st, st, st, steps,
                         out + c, cls.n);
    else
      tile32<Isa, NQ, 1>(q, cls.rows + c, cls.runs, cls.nruns, out + c,
                         cls.n);
  }
}

/// Kernels::dot_tile over an ISA's vector ops.
template <typename Isa>
void dot_tile(const std::int32_t* const* queries, std::size_t nq,
              const std::int32_t* const* classes, std::size_t nc,
              const DimRun* runs, std::size_t nruns, std::int64_t* out) {
  static_assert(kQueryBlock == 4, "score_block dispatch below");
  if (nq == 0 || nc == 0) return;
  std::size_t dims = 0;
  for (std::size_t r = 0; r < nruns; ++r) dims += runs[r].end - runs[r].begin;
  const std::size_t stride =
      (dims + Isa::kInt16Lanes - 1) / Isa::kInt16Lanes * Isa::kInt16Lanes;

  ClassSide cls{classes, nc, runs, nruns, nullptr, stride};
  std::int16_t* q16 = nullptr;
  std::int64_t max_c = 0;
  if (nq >= kPackMinQueries) {
    std::int16_t* scratch = i16_scratch((nc + kQueryBlock) * stride);
    max_c = pack_i16(classes, nc, runs, nruns, stride, scratch);
    if (max_c <= kI16Max) {
      cls.packed = scratch;
      q16 = scratch + nc * stride;
    }
  }
  for (std::size_t q = 0; q < nq; q += kQueryBlock) {
    const std::size_t n = nq - q < kQueryBlock ? nq - q : kQueryBlock;
    std::size_t steps = 0;
    if (q16 != nullptr)
      steps = i16_steps(pack_i16(queries + q, n, runs, nruns, stride, q16),
                        max_c);
    const std::int16_t* narrow = steps != 0 ? q16 : nullptr;
    std::int64_t* block_out = out + q * nc;
    switch (n) {
      case 4:
        score_block<Isa, 4>(cls, queries + q, narrow, steps, block_out);
        break;
      case 3:
        score_block<Isa, 3>(cls, queries + q, narrow, steps, block_out);
        break;
      case 2:
        score_block<Isa, 2>(cls, queries + q, narrow, steps, block_out);
        break;
      default:
        score_block<Isa, 1>(cls, queries + q, narrow, steps, block_out);
        break;
    }
  }
}

}  // namespace
}  // namespace generic::hdc::kernels::detail
