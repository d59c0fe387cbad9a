// General HDC operations on top of the core hypervector types — the
// library-level algebra a torchhd-style consumer expects, kept separate
// from the minimal kernel set the GENERIC datapath itself needs.
#pragma once

#include <span>
#include <vector>

#include "hdc/hypervector.h"

namespace generic::hdc {

/// Sign-threshold a bundled hypervector back into binary space:
/// bit_i = (v_i >= threshold). The standard bundling "clip" step.
BinaryHV threshold(const IntHV& v, std::int32_t threshold = 0);

/// Majority vote across a set of binary hypervectors (ties resolve to 1,
/// matching threshold()'s >= convention). Equivalent to bundling all
/// members and thresholding at zero.
BinaryHV majority(std::span<const BinaryHV> members);

/// Accumulate with an integer weight: acc += weight * bipolar(hv).
/// weight = +-1 reproduces BinaryHV::accumulate_into.
void weighted_accumulate(IntHV& acc, const BinaryHV& hv, std::int32_t weight);

/// Normalized Hamming similarity in [-1, 1]: 1 - 2*hamming/D. Equals the
/// bipolar dot product divided by D, i.e. the cosine of two binary HVs.
double hamming_similarity(const BinaryHV& a, const BinaryHV& b);

/// Sequence binding: fold a sequence of symbols into one hypervector by
/// XOR of progressively permuted elements — rho^(n-1)(s_0) ^ ... ^ s_{n-1}
/// — the n-gram kernel as a standalone op.
BinaryHV bind_sequence(std::span<const BinaryHV> symbols);

// ---- Blocked similarity kernels -------------------------------------------
//
// The XOR+popcount distance is the hot inner loop of every binary-model
// similarity search. These variants process 64-bit words with
// std::popcount over cache-sized tiles (kHammingTileWords words, 32 KiB
// per operand) so a query tile stays L1/L2-resident while it is streamed
// against many reference rows. Results are exact — identical to
// BinaryHV::hamming for every dimensionality, including non-multiple-of-64
// tails (BinaryHV keeps its last word masked).

/// Words per tile of the blocked kernels: 32 KiB of packed bits.
inline constexpr std::size_t kHammingTileWords = 4096;

/// Hamming distance of `query` against every reference row, tiled so each
/// query tile is reused across all rows before moving on. out[i] ==
/// query.hamming(refs[i]).
std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      std::span<const BinaryHV> refs);

/// Index of the reference row nearest to `query` in Hamming distance; ties
/// resolve to the lowest index (the deterministic argmin every batched
/// consumer relies on). refs must be non-empty.
std::size_t nearest_hamming(const BinaryHV& query,
                            std::span<const BinaryHV> refs);

}  // namespace generic::hdc
