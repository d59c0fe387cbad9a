// The window bundle (Kernels::bundle_windows): the rotation every backend
// shares, and the register-blocked driver the SIMD backends fill in.
//
// A window is the XOR of its terms, each a bit-packed row rotated by
// rho^rot. For word-aligned dims the rotation is a funnel shift of
// adjacent words: with rot = 64·ws + bs, output word o is
//   (in[lo] << bs) | (in[lo - 1] >> (64 - bs)),   lo = o - ws  (mod nw)
// computed in two contiguous runs of o and one wrapped word between them,
// stepping indices instead of taking a modulus per word. Ragged dims
// (dims % 64 != 0) rotate bit by bit: exact, and off every hot path.
// Nothing is precomputed per row: fault injection and scrubbing rewrite
// rows in place, so every call reads the rows it is given.
//
// The SIMD driver builds a chunk of windows (at most kChunkWords words, so
// the chunk stays in L1) and then counts it one register block of dims at
// a time: the block's 16-bit counters live in registers across every
// window of the chunk and are flushed into the int32 accumulator once per
// chunk. A chunk never exceeds kMaxWindowsPerFlush windows, so no counter
// can wrap. Dims past the last whole block are counted straight into the
// accumulator.
//
// Everything below has internal linkage on purpose: each ISA translation
// unit compiles its own copy under its own flags, so a copy built for a
// wider ISA can never be linked into a narrower backend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels::detail {
namespace {

constexpr std::size_t kWord = 64;

inline std::size_t row_words(std::size_t dims) {
  return (dims + kWord - 1) / kWord;
}

inline std::uint64_t bit_of(const std::uint64_t* words, std::size_t d) {
  return (words[d / kWord] >> (d % kWord)) & 1u;
}

/// out[k] ^= (lo[k] << bs) | (lo[k - 1] >> (64 - bs)) for k < n, 0 < bs < 64.
inline void xor_funnel(const std::uint64_t* lo, std::size_t n, unsigned bs,
                       std::uint64_t* out) {
  for (std::size_t k = 0; k < n; ++k)
    out[k] ^= (lo[k] << bs) | (lo[k - 1] >> (kWord - bs));
}

/// out ^= rho^rot(in) over a `dims`-bit row.
inline void xor_rotated(const std::uint64_t* in, std::size_t dims,
                        std::size_t rot, std::uint64_t* out) {
  rot %= dims;
  if (dims % kWord != 0) {
    // Bit i lands at (i + rot) mod dims.
    std::size_t j = rot;
    for (std::size_t i = 0; i < dims; ++i) {
      out[j / kWord] ^= bit_of(in, i) << (j % kWord);
      if (++j == dims) j = 0;
    }
    return;
  }
  const std::size_t nw = dims / kWord;
  const std::size_t ws = rot / kWord;
  const unsigned bs = static_cast<unsigned>(rot % kWord);
  if (bs == 0) {
    // Output words [0, ws) read [nw - ws, nw); words [ws, nw) read [0, nw - ws).
    for (std::size_t o = 0; o < ws; ++o) out[o] ^= in[nw - ws + o];
    for (std::size_t o = ws; o < nw; ++o) out[o] ^= in[o - ws];
    return;
  }
  // Words [0, ws) read lo = nw - ws + o; word ws wraps (lo = 0, lo - 1 =
  // nw - 1); words (ws, nw) read lo = o - ws.
  xor_funnel(in + nw - ws, ws, bs, out);
  out[ws] ^= (in[0] << bs) | (in[nw - 1] >> (kWord - bs));
  xor_funnel(in + 1, nw - ws - 1, bs, out + ws + 1);
}

/// out = XOR of the window's terms, rotated; `row_words(dims)` words.
inline void window_words(const RotatedRow* terms, std::size_t per_window,
                         std::size_t dims, std::uint64_t* out) {
  std::fill(out, out + row_words(dims), std::uint64_t{0});
  for (std::size_t t = 0; t < per_window; ++t)
    xor_rotated(terms[t].words, dims, terms[t].rot, out);
}

/// Window words per chunk of the SIMD driver: 32 KiB.
constexpr std::size_t kChunkWords = 4096;

/// The register-blocked window bundle. Isa supplies kBlockWords and
///   count_block(words, stride, n, acc): acc[d] += 2 · count[d] − n for
///   the kBlockWords · 64 dims starting at `words`, counted over n <=
///   kMaxWindowsPerFlush windows `stride` words apart.
template <class Isa>
void bundle_windows(const RotatedRow* terms, std::size_t per_window,
                    std::size_t windows, std::size_t dims,
                    std::int32_t* acc) {
  if (dims == 0 || windows == 0) return;
  const std::size_t nw = row_words(dims);
  const std::size_t chunk =
      std::clamp<std::size_t>(kChunkWords / nw, 1, kMaxWindowsPerFlush);
  std::uint64_t* buf = u64_scratch(std::min(chunk, windows) * nw);
  const std::size_t blocked =
      dims / kWord / Isa::kBlockWords * Isa::kBlockWords;
  for (std::size_t w0 = 0; w0 < windows; w0 += chunk) {
    const std::size_t n = std::min(chunk, windows - w0);
    for (std::size_t w = 0; w < n; ++w)
      window_words(terms + (w0 + w) * per_window, per_window, dims,
                   buf + w * nw);
    for (std::size_t o = 0; o < blocked; o += Isa::kBlockWords)
      Isa::count_block(buf + o, nw, n, acc + o * kWord);
    for (std::size_t d = blocked * kWord; d < dims; ++d) {
      std::int32_t count = 0;
      for (std::size_t w = 0; w < n; ++w)
        count += static_cast<std::int32_t>(bit_of(buf + w * nw, d));
      acc[d] += 2 * count - static_cast<std::int32_t>(n);
    }
  }
}

}  // namespace
}  // namespace generic::hdc::kernels::detail
