// The window bundle (Kernels::bundle_windows): the rotation every backend
// shares, and the bit-sliced driver the SIMD backends fill in.
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
// The SIMD driver works through the windows in groups of kGroup:
//
//   build  each window of the group, one register block (one vector of
//          Isa::kWords words) at a time: a term's word and bit shift are
//          set up once, and each block is a funnel shift of the row's words
//          at and one before its first, XORed into a register. The block a
//          term's wrap lands in is built from the row's first and last
//          vectors (Isa::wrap), so no load leaves the row. The group's
//          windows go to an L1 buffer (8 KB at 4096 dims).
//   count  the block's bit-planes hold each dim's window count in binary,
//          plane k being bit k of every count. A full group enters them
//          through a Harley–Seal tree of 15 carry-save adders (Isa::csa),
//          which leaves the ones..eights planes updated and one sixteens
//          vector to ripple into the higher planes; a short last group
//          ripples in one window at a time.
//   flush  at the end, and every kFlushWindows windows, each block's
//          planes become uint16 counts (Isa::flush_block) and
//          acc[d] += 2·count[d] − n. A count then never exceeds
//          kMaxWindowsPerFlush.
//
// Dims that are not whole blocks build whole windows with window_words, and
// dims past the last whole block are counted bit by bit straight into the
// accumulator. Planes and the window buffer live in the per-thread
// u64_scratch, sized to the call.
//
// Everything below has internal linkage on purpose: each ISA translation
// unit compiles its own copy under its own flags, so a copy built for a
// wider ISA can never be linked into a narrower backend.
#pragma once

#include <algorithm>
#include <bit>
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

/// Windows per Harley–Seal group, and per flush of the bit-planes: the
/// most whole groups within kMaxWindowsPerFlush.
constexpr std::size_t kGroup = 16;
constexpr std::size_t kFlushWindows = kMaxWindowsPerFlush / kGroup * kGroup;

/// The window's row_words(dims) words, built in registers; dims a multiple
/// of Isa::kWords · 64.
/// Isa supplies kWords, kTile (blocks held in registers at once), and
///   shift(bs), funnel(lo, prev, shift): (lo << bs) | (prev >> (64 - bs))
///     per 64-bit lane, for 0 <= bs < 64;
///   back(p, lo, last): the vector at p - 1, given lo at p and last at
///     p - kWords;
///   wrap(in, nw, r): lane i = in[nw - kWords + r + i] if r + i < kWords,
///     else in[r + i - kWords], for 0 <= r <= kWords.
/// The tile loops are unrolled so the tile stays in registers.
template <class Isa>
void build_window(const RotatedRow* terms, std::size_t per_window,
                  std::size_t dims, std::uint64_t* out) {
  using V = typename Isa::V;
  constexpr std::size_t W = Isa::kWords;
  const std::size_t nw = dims / kWord;
  for (std::size_t o0 = 0; o0 < nw; o0 += Isa::kTile * W) {
    const std::size_t nb = std::min(Isa::kTile, (nw - o0) / W);
    V x[Isa::kTile];
    for (auto& v : x) v = Isa::zero();
    for (std::size_t t = 0; t < per_window; ++t) {
      const std::uint64_t* in = terms[t].words;
      // Rotations are almost always below dims: skip the division then.
      const std::size_t rot =
          terms[t].rot < dims ? terms[t].rot : terms[t].rot % dims;
      const auto shift = Isa::shift(static_cast<unsigned>(rot % kWord));
      // Block j reads lo = a0 + jW .. a0 + jW + W - 1 (mod nw), with a0 in
      // (0, nw]: one contiguous run of the row before block jw, another
      // one row back after it, and the wrap at it.
      std::size_t a0 = o0 + nw - rot / kWord;
      if (a0 > nw) a0 -= nw;
      const std::size_t jw = (nw - a0) / W;
      V last = Isa::zero();
#pragma GCC unroll 16
      for (std::size_t j = 0; j < Isa::kTile; ++j) {
        if (j == nb) break;
        const std::size_t a = a0 + j * W;
        V lo, prev;
        if (j == jw) {
          const std::size_t r = a + W - nw;
          lo = Isa::wrap(in, nw, r);
          prev = Isa::wrap(in, nw, r - 1);
        } else {
          const std::uint64_t* p = in + (j < jw ? a : a - nw);
          lo = Isa::load(p);
          // The last lane of the block before (a wrap block's too) is the
          // word before p.
          prev = j == 0 ? Isa::load(p - 1) : Isa::back(p, lo, last);
        }
        last = lo;
        x[j] = Isa::xor_(x[j], Isa::funnel(lo, prev, shift));
      }
    }
#pragma GCC unroll 16
    for (std::size_t j = 0; j < Isa::kTile; ++j) {
      if (j == nb) break;
      Isa::store(out + o0 + j * W, x[j]);
    }
  }
}

/// Add `g` <= kGroup windows, `nw` words apart in `buf`, into the
/// `nplanes` bit-planes of each block of [0, blocked); plane k of the
/// block at word o is at planes[k * blocked + o]. Isa::csa(h, l, a, b, c)
/// sets h to the majority and l to the XOR of a, b, c.
template <class Isa>
void count_group(const std::uint64_t* buf, std::size_t nw, std::size_t g,
                 std::uint64_t* planes, std::size_t blocked,
                 std::size_t nplanes) {
  using V = typename Isa::V;
  for (std::size_t o = 0; o < blocked; o += Isa::kWords) {
    std::uint64_t* p = planes + o;
    const std::uint64_t* win = buf + o;
    auto plane = [&](std::size_t k) { return p + k * blocked; };
    // Half adders from plane `from` up: the carry of each feeds the next.
    auto ripple = [&](V v, std::size_t from) {
      for (std::size_t k = from; k < nplanes; ++k) {
        const V pk = Isa::load(plane(k));
        Isa::store(plane(k), Isa::xor_(pk, v));
        v = Isa::and_(pk, v);
      }
    };
    if (g < kGroup) {
      for (std::size_t w = 0; w < g; ++w) ripple(Isa::load(win + w * nw), 0);
      continue;
    }
    // A full group implies nplanes >= 5: ones..eights stay in place and
    // the sixteens ripple from plane 4.
    V ones = Isa::load(plane(0)), twos = Isa::load(plane(1));
    V fours = Isa::load(plane(2)), eights = Isa::load(plane(3));
    V twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    auto in = [&](std::size_t w) { return Isa::load(win + w * nw); };
    Isa::csa(twos_a, ones, ones, in(0), in(1));
    Isa::csa(twos_b, ones, ones, in(2), in(3));
    Isa::csa(fours_a, twos, twos, twos_a, twos_b);
    Isa::csa(twos_a, ones, ones, in(4), in(5));
    Isa::csa(twos_b, ones, ones, in(6), in(7));
    Isa::csa(fours_b, twos, twos, twos_a, twos_b);
    Isa::csa(eights_a, fours, fours, fours_a, fours_b);
    Isa::csa(twos_a, ones, ones, in(8), in(9));
    Isa::csa(twos_b, ones, ones, in(10), in(11));
    Isa::csa(fours_a, twos, twos, twos_a, twos_b);
    Isa::csa(twos_a, ones, ones, in(12), in(13));
    Isa::csa(twos_b, ones, ones, in(14), in(15));
    Isa::csa(fours_b, twos, twos, twos_a, twos_b);
    Isa::csa(eights_b, fours, fours, fours_a, fours_b);
    Isa::csa(sixteens, eights, eights, eights_a, eights_b);
    Isa::store(plane(0), ones);
    Isa::store(plane(1), twos);
    Isa::store(plane(2), fours);
    Isa::store(plane(3), eights);
    ripple(sixteens, 4);
  }
}

/// The bit-sliced window bundle. Beyond build_window's and count_group's
/// ops, Isa supplies flush_block(planes, stride, nplanes, n, acc):
/// acc[d] += 2 · count[d] − n for the kWords · 64 dims of one block, count
/// read from `nplanes` planes `stride` words apart.
template <class Isa>
void bundle_windows(const RotatedRow* terms, std::size_t per_window,
                    std::size_t windows, std::size_t dims,
                    std::int32_t* acc) {
  if (dims == 0 || windows == 0) return;
  const std::size_t nw = row_words(dims);
  const std::size_t blocked = dims / kWord / Isa::kWords * Isa::kWords;
  const bool in_registers = dims % (kWord * Isa::kWords) == 0;
  const std::size_t max_planes =
      std::bit_width(std::min(windows, kFlushWindows));
  std::uint64_t* buf = u64_scratch(kGroup * nw + max_planes * blocked);
  std::uint64_t* planes = buf + kGroup * nw;
  for (std::size_t w0 = 0; w0 < windows; w0 += kFlushWindows) {
    const std::size_t n = std::min(kFlushWindows, windows - w0);
    const std::size_t nplanes = std::bit_width(n);
    std::fill(planes, planes + nplanes * blocked, std::uint64_t{0});
    for (std::size_t g0 = 0; g0 < n; g0 += kGroup) {
      const std::size_t g = std::min(kGroup, n - g0);
      const RotatedRow* group = terms + (w0 + g0) * per_window;
      for (std::size_t w = 0; w < g; ++w) {
        if (in_registers)
          build_window<Isa>(group + w * per_window, per_window, dims,
                            buf + w * nw);
        else
          window_words(group + w * per_window, per_window, dims, buf + w * nw);
      }
      count_group<Isa>(buf, nw, g, planes, blocked, nplanes);
      for (std::size_t d = blocked * kWord; d < dims; ++d) {
        std::int32_t count = 0;
        for (std::size_t w = 0; w < g; ++w)
          count += static_cast<std::int32_t>(bit_of(buf + w * nw, d));
        acc[d] += 2 * count - static_cast<std::int32_t>(g);
      }
    }
    for (std::size_t o = 0; o < blocked; o += Isa::kWords)
      Isa::flush_block(planes + o, blocked, nplanes,
                       static_cast<std::int32_t>(n), acc + o * kWord);
  }
}

}  // namespace
}  // namespace generic::hdc::kernels::detail
