// The SIMD query×class dot tile (Kernels::dot_tile), written once over a
// small vector-op vocabulary each ISA translation unit supplies.
//
// Two paths, both exact:
//
//   int32  each vector of int32 operands is split into its even and odd
//          lanes and multiplied with the signed 32x32->64 multiply
//          (_mm*_mul_epi32), accumulating in int64 lanes. Any int32
//          operands; the sum wraps exactly like the scalar reference's.
//          Narrow query rows are sign-extended to int32 at load
//          (Isa::load32), so they never need their int32 values again.
//   int16  Isa::dot16 over the caller's int16 class rows (ClassRows::rows16)
//          and int16 query lanes: it multiplies int16 pairs and adds
//          adjacent products into int32 lanes (vpdpwssd on avx512,
//          vpmaddwd + vpaddd on avx2), which are widened into int64 lanes
//          before they can overflow. The query lanes are int16 rows as
//          they are or int8 rows sign-extended at load (Isa::load16); an
//          int32 view never takes this path, since the tile packs nothing
//          (hdc::QueryBatch narrows queries before they get here). Taken
//          only when the bounds prove it exact: the narrow view's max|q|
//          and the caller's max|c| <= 32767, and every int32 lane holds at
//          most `i16_steps` * 2 products of magnitude <= max|q| * max|c|
//          before widening, a bound below 2^31.
//
// Each block of kQueryBlock queries is scored against every class
// (kQueryBlock x kClassBlock accumulators per pass, so every class load
// serves several queries). Both sides are read at the runs' own offsets,
// so a prefix rung or a dead-chunk mask reads only the dims it covers; a
// run end off the vector width is finished one product at a time. This
// tile keeps no scratch: the class rows' int16 copy is the caller's, kept
// exact on every write to class memory, and query rows of every width are
// read in place. (The amx backend's tile, kernels_amx.cpp, is not written
// over these ops: it gathers int8 query steps into a 1 KB stack buffer
// for its tile loads, and sends every call it does not take here.)
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

/// Queries scored together, and classes per accumulator block (doubled
/// for a lone query).
constexpr std::size_t kQueryBlock = 4;
constexpr int kClassBlock = 2;
/// Largest operand magnitude the int16 path takes.
constexpr std::int64_t kI16Max = 32767;

/// dot16 steps (two products per int32 lane each) the int16 path may
/// accumulate before widening: the largest s with
/// 2 * s * max_q * max_c < 2^31. 0 when an operand does not fit int16.
inline std::size_t i16_steps(std::int64_t max_q, std::int64_t max_c) {
  if (max_q > kI16Max || max_c > kI16Max) return 0;
  const std::int64_t per_step = 2 * max_q * max_c;
  if (per_step == 0) return ~std::size_t{0};
  return static_cast<std::size_t>(((std::int64_t{1} << 31) - 1) / per_step);
}

/// int32 path for NQ query rows of Tq (sign-extended to int32 at load) x
/// NC classes over the runs.
template <typename Isa, int NQ, int NC, typename Tq>
void tile32(const Tq* const* q, const std::int32_t* const* c,
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
        const V qe = Isa::load32(q[i] + j);
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

/// int16 path for NQ query rows of Tq (int8 sign-extended to int16 at
/// load, or int16) x NC int16 class rows over the runs, widening every
/// `steps` dot16 steps.
template <typename Isa, int NQ, int NC, typename Tq>
void tile16(const Tq* const* q, const std::int16_t* const* c,
            const DimRun* runs, std::size_t nruns, std::size_t steps,
            std::int64_t* out, std::size_t ldo) {
  using V = typename Isa::V;
  constexpr std::size_t kStep = Isa::kInt16Lanes;
  V wide[NQ][NC];
  V acc[NQ][NC];
  std::uint64_t tail[NQ][NC] = {};
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k) wide[i][k] = acc[i][k] = Isa::zero();
  auto flush = [&] {
    for (int i = 0; i < NQ; ++i)
      for (int k = 0; k < NC; ++k) {
        wide[i][k] = Isa::add64(wide[i][k], Isa::widen(acc[i][k]));
        acc[i][k] = Isa::zero();
      }
  };
  std::size_t left = steps;  // dot16 steps before the next widen
  for (std::size_t r = 0; r < nruns; ++r) {
    std::size_t j = runs[r].begin;
    const std::size_t end = runs[r].end;
    while (j + kStep <= end) {
      std::size_t n = (end - j) / kStep;
      n = n < left ? n : left;
      left -= n;
      for (const std::size_t seg = j + n * kStep; j < seg; j += kStep) {
        V cv[NC];
        for (int k = 0; k < NC; ++k) cv[k] = Isa::load(c[k] + j);
        for (int i = 0; i < NQ; ++i) {
          const V qv = Isa::load16(q[i] + j);
          for (int k = 0; k < NC; ++k)
            acc[i][k] = Isa::dot16(acc[i][k], qv, cv[k]);
        }
      }
      if (left == 0) {
        flush();
        left = steps;
      }
    }
    for (; j < end; ++j)
      for (int i = 0; i < NQ; ++i)
        for (int k = 0; k < NC; ++k)
          tail[i][k] += static_cast<std::uint64_t>(
              static_cast<std::int64_t>(q[i][j]) * c[k][j]);
  }
  flush();
  for (int i = 0; i < NQ; ++i)
    for (int k = 0; k < NC; ++k)
      out[static_cast<std::size_t>(i) * ldo + static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(tail[i][k] + Isa::hsum64(wide[i][k]));
}

/// One block of NQ query rows of Tq against classes [c, cls.n), NC
/// classes per accumulator block and the rest in halving blocks: the
/// int16 path when `steps` is nonzero (Tq int8 or int16 only), the int32
/// path otherwise.
template <typename Isa, int NQ, int NC, typename Tq>
void score_block(const ClassRows& cls, std::size_t c, const DimRun* runs,
                 std::size_t nruns, const Tq* const* q, std::size_t steps,
                 std::int64_t* out) {
  constexpr auto kNc = static_cast<std::size_t>(NC);
  for (; c + kNc <= cls.n; c += kNc) {
    if constexpr (sizeof(Tq) < sizeof(std::int32_t)) {
      if (steps != 0) {
        tile16<Isa, NQ, NC>(q, cls.rows16 + c, runs, nruns, steps, out + c,
                            cls.n);
        continue;
      }
    }
    tile32<Isa, NQ, NC>(q, cls.rows + c, runs, nruns, out + c, cls.n);
  }
  if constexpr (NC > 1)
    score_block<Isa, NQ, NC / 2>(cls, c, runs, nruns, q, steps, out);
}

/// `n` <= kQueryBlock query rows of Tq against every class.
template <typename Isa, typename Tq>
void score_queries(const ClassRows& cls, const DimRun* runs,
                   std::size_t nruns, const Tq* const* q, std::size_t n,
                   std::size_t steps, std::int64_t* out) {
  static_assert(kQueryBlock == 4, "score_block dispatch below");
  switch (n) {
    case 4:
      score_block<Isa, 4, kClassBlock>(cls, 0, runs, nruns, q, steps, out);
      break;
    case 3:
      score_block<Isa, 3, kClassBlock>(cls, 0, runs, nruns, q, steps, out);
      break;
    case 2:
      score_block<Isa, 2, kClassBlock>(cls, 0, runs, nruns, q, steps, out);
      break;
    default:
      // One query: twice the classes per block keep more loads in
      // flight, which is what a single query's tile is bound by.
      score_block<Isa, 1, 2 * kClassBlock>(cls, 0, runs, nruns, q, steps,
                                           out);
      break;
  }
}

/// A view's rows scored in place: narrow rows on the int16 path when the
/// view's bound and the class bound admit it, int32 rows always on the
/// int32 path (score_block keeps them off tile16).
template <typename Isa, typename Tq>
void narrow_tile(const QueryRows& queries, std::size_t nq,
                 const ClassRows& cls, const DimRun* runs, std::size_t nruns,
                 std::int64_t* out) {
  const std::size_t steps =
      cls.rows16 != nullptr ? i16_steps(queries.max_abs, cls.max_abs) : 0;
  for (std::size_t q = 0; q < nq; q += kQueryBlock) {
    const std::size_t n = nq - q < kQueryBlock ? nq - q : kQueryBlock;
    const Tq* rows[kQueryBlock] = {};
    for (std::size_t i = 0; i < n; ++i)
      rows[i] = static_cast<const Tq*>(queries.rows[q + i]);
    score_queries<Isa>(cls, runs, nruns, rows, n, steps, out + q * cls.n);
  }
}

/// Kernels::dot_tile over an ISA's vector ops.
template <typename Isa>
void dot_tile(const QueryRows& queries, std::size_t nq, const ClassRows& cls,
              const DimRun* runs, std::size_t nruns, std::int64_t* out) {
  if (nq == 0 || cls.n == 0) return;
  switch (queries.width) {
    case QueryWidth::kInt8:
      return narrow_tile<Isa, std::int8_t>(queries, nq, cls, runs, nruns, out);
    case QueryWidth::kInt16:
      return narrow_tile<Isa, std::int16_t>(queries, nq, cls, runs, nruns,
                                            out);
    case QueryWidth::kInt32:
      return narrow_tile<Isa, std::int32_t>(queries, nq, cls, runs, nruns,
                                            out);
  }
}

}  // namespace
}  // namespace generic::hdc::kernels::detail
