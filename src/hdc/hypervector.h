// Hypervector types for hyperdimensional computing (paper §2).
//
// Two representations are used throughout the library, mirroring the two
// domains of the GENERIC datapath:
//  * BinaryHV  — a D-dimensional bipolar (+1/-1) hypervector bit-packed into
//    64-bit words (bit 1 == +1, bit 0 == -1). Item/level/id hypervectors and
//    per-window encodings live here; binding is XOR, permutation is a
//    circular shift, dot products reduce to popcounts.
//  * IntHV     — a vector of 32-bit integers holding bundled (element-wise
//    summed) hypervectors: encoded inputs and class/centroid accumulators.
//    The ASIC stores class dimensions in 16 bits (§4.3.4); quantization to
//    narrower widths is modelled in model/hdc_classifier.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"

namespace generic::hdc {

using IntHV = std::vector<std::int32_t>;

class BinaryHV {
 public:
  BinaryHV() = default;

  /// All-zero (-1 in bipolar terms) hypervector of `dims` dimensions.
  explicit BinaryHV(std::size_t dims)
      : dims_(dims), words_(words_for_bits(dims), 0ULL) {}

  /// Uniformly random hypervector.
  static BinaryHV random(std::size_t dims, Rng& rng);

  std::size_t dims() const { return dims_; }
  std::size_t num_words() const { return words_.size(); }
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

  bool bit(std::size_t i) const { return get_bit(words_.data(), i); }
  void set(std::size_t i, bool v) { set_bit(words_.data(), i, v); }
  void flip(std::size_t i) { flip_bit(words_.data(), i); }

  /// Bipolar value of dimension i: +1 or -1.
  int bipolar(std::size_t i) const { return bit(i) ? 1 : -1; }

  /// Element-wise XOR (bipolar multiplication / binding).
  BinaryHV& operator^=(const BinaryHV& other);
  friend BinaryHV operator^(BinaryHV a, const BinaryHV& b) { return a ^= b; }

  bool operator==(const BinaryHV& other) const = default;

  /// Number of set bits.
  std::size_t popcount() const;

  /// Hamming distance to another hypervector of the same dimensionality.
  std::size_t hamming(const BinaryHV& other) const;

  /// Bipolar dot product: dims - 2*hamming.
  std::int64_t dot(const BinaryHV& other) const;

  /// Circular rotation towards higher indices by k positions — the HDC
  /// permutation rho^k of the paper (Eq. 1). rho preserves orthogonality
  /// and rho^a . rho^b == rho^(a+b).
  BinaryHV rotated(std::size_t k) const;

  /// Add this hypervector's bipolar values into an integer accumulator
  /// (bundling, +) or subtract them (model update on misprediction, -).
  void accumulate_into(IntHV& acc, int sign = +1) const;

  /// Expand to a bipolar integer vector (+1/-1 per dimension).
  IntHV to_int() const;

 private:
  /// Clear the unused bits of the last word so popcount/equality stay exact.
  void mask_tail();

  std::size_t dims_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Squared L2 norm.
std::int64_t norm2(const IntHV& a);

/// Cosine similarity; 0 when either vector is all-zero. The dot product
/// comes from the active kernels' dot_tile (hdc/kernels.h).
double cosine(const IntHV& a, const IntHV& b);

/// Element-wise sum / difference helpers for bundling in the int domain.
void add_into(IntHV& acc, const IntHV& x, int sign = +1);

}  // namespace generic::hdc
