// Scalar reference backend.
//
// This TU is compiled with -fno-tree-vectorize (see src/hdc/CMakeLists.txt):
// with the repo's global -march=native the compiler happily auto-vectorizes
// these loops with the widest vectors the build host has, which would make
// "scalar" silently depend on the build machine and turn every
// scalar-vs-SIMD benchmark into a lie. Disabling vectorization keeps it the
// honest portable baseline: a plain int64 dot loop for the query×class
// tile, and one 16-bit counter add per window bit for the window bundle.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "hdc/kernels_bundle.h"
#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels::detail {

namespace {

template <typename Tq>
void scalar_tile(const void* const* queries, std::size_t nq,
                 const ClassRows& classes, const DimRun* runs,
                 std::size_t nruns, std::int64_t* out) {
  // Only the int32 rows: the int16 copy is what the SIMD tiles are checked
  // against, never a source of the reference's sums.
  const std::size_t nc = classes.n;
  for (std::size_t q = 0; q < nq; ++q)
    for (std::size_t c = 0; c < nc; ++c) {
      const Tq* qr = static_cast<const Tq*>(queries[q]);
      const std::int32_t* cr = classes.rows[c];
      // Unsigned accumulation: each int32 product is exact in int64, and
      // the sum wraps (instead of overflowing) for operands no model holds.
      std::uint64_t acc = 0;
      for (std::size_t r = 0; r < nruns; ++r)
        for (std::size_t j = runs[r].begin; j < runs[r].end; ++j)
          acc += static_cast<std::uint64_t>(static_cast<std::int64_t>(qr[j]) *
                                            cr[j]);
      out[q * nc + c] = static_cast<std::int64_t>(acc);
    }
}

}  // namespace

void scalar_dot_tile(const QueryRows& queries, std::size_t nq,
                     const ClassRows& classes, const DimRun* runs,
                     std::size_t nruns, std::int64_t* out) {
  switch (queries.width) {
    case QueryWidth::kInt8:
      return scalar_tile<std::int8_t>(queries.rows, nq, classes, runs, nruns,
                                      out);
    case QueryWidth::kInt16:
      return scalar_tile<std::int16_t>(queries.rows, nq, classes, runs, nruns,
                                       out);
    case QueryWidth::kInt32:
      return scalar_tile<std::int32_t>(queries.rows, nq, classes, runs, nruns,
                                       out);
  }
}

void scalar_bundle_windows(const RotatedRow* terms, std::size_t per_window,
                           std::size_t windows, std::size_t dims,
                           std::int32_t* acc) {
  if (dims == 0 || windows == 0) return;
  const std::size_t nw = row_words(dims);
  std::uint64_t* win = u64_scratch(nw);
  std::uint16_t* counts = u16_scratch(dims);
  std::fill(counts, counts + dims, std::uint16_t{0});
  std::size_t counted = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    window_words(terms + w * per_window, per_window, dims, win);
    for (std::size_t o = 0; o < nw; ++o) {
      std::uint16_t* c = counts + o * kWord;
      const std::size_t len = std::min(kWord, dims - o * kWord);
      std::uint64_t bits = win[o];
      for (std::size_t b = 0; b < len; ++b, bits >>= 1)
        c[b] = static_cast<std::uint16_t>(c[b] + (bits & 1u));
    }
    if (++counted == kMaxWindowsPerFlush || w + 1 == windows) {
      for (std::size_t d = 0; d < dims; ++d) {
        acc[d] += 2 * static_cast<std::int32_t>(counts[d]) -
                  static_cast<std::int32_t>(counted);
        counts[d] = 0;
      }
      counted = 0;
    }
  }
}

const Kernels& scalar_table() {
  static const Kernels k{Backend::kScalar, "scalar", &scalar_dot_tile,
                         &scalar_bundle_windows};
  return k;
}

}  // namespace generic::hdc::kernels::detail
