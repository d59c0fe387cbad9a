#include "hdc/hypervector.h"

#include <cmath>
#include <stdexcept>

#include "hdc/kernels.h"

namespace generic::hdc {

BinaryHV BinaryHV::random(std::size_t dims, Rng& rng) {
  BinaryHV hv(dims);
  for (auto& w : hv.words_) w = rng.next_u64();
  hv.mask_tail();
  return hv;
}

void BinaryHV::mask_tail() {
  const std::size_t rem = dims_ % kWordBits;
  if (rem != 0 && !words_.empty()) words_.back() &= low_mask(rem);
}

BinaryHV& BinaryHV::operator^=(const BinaryHV& other) {
  if (other.dims_ != dims_)
    throw std::invalid_argument("BinaryHV xor: dimension mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

std::size_t BinaryHV::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(popcount64(w));
  return total;
}

std::size_t BinaryHV::hamming(const BinaryHV& other) const {
  if (other.dims_ != dims_)
    throw std::invalid_argument("BinaryHV hamming: dimension mismatch");
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    total += static_cast<std::size_t>(popcount64(words_[i] ^ other.words_[i]));
  return total;
}

std::int64_t BinaryHV::dot(const BinaryHV& other) const {
  return static_cast<std::int64_t>(dims_) -
         2 * static_cast<std::int64_t>(hamming(other));
}

BinaryHV BinaryHV::rotated(std::size_t k) const {
  BinaryHV out(dims_);
  if (dims_ == 0) return out;
  k %= dims_;
  if (k == 0) return *this;
  // For word-aligned dims (the common case: D is a multiple of 64) rotate
  // whole words then shift; the generic path handles ragged tails bit-wise.
  if (dims_ % kWordBits == 0) {
    const std::size_t nw = words_.size();
    const std::size_t word_shift = k / kWordBits;
    const std::size_t bit_shift = k % kWordBits;
    for (std::size_t i = 0; i < nw; ++i) {
      const std::uint64_t w = words_[i];
      const std::size_t lo_pos = (i + word_shift) % nw;
      if (bit_shift == 0) {
        out.words_[lo_pos] |= w;
      } else {
        out.words_[lo_pos] |= w << bit_shift;
        out.words_[(lo_pos + 1) % nw] |= w >> (kWordBits - bit_shift);
      }
    }
    return out;
  }
  for (std::size_t i = 0; i < dims_; ++i)
    if (bit(i)) out.set((i + k) % dims_, true);
  return out;
}

void BinaryHV::accumulate_into(IntHV& acc, int sign) const {
  if (acc.size() != dims_)
    throw std::invalid_argument("accumulate_into: dimension mismatch");
  // Bipolar value is 2*bit - 1; the inner loop is written per-word so the
  // compiler can vectorize the bit test.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    const std::size_t base = w * kWordBits;
    const std::size_t n = std::min(kWordBits, dims_ - base);
    for (std::size_t b = 0; b < n; ++b) {
      const int bitv = static_cast<int>((word >> b) & 1ULL);
      acc[base + b] += sign * (2 * bitv - 1);
    }
  }
}

IntHV BinaryHV::to_int() const {
  IntHV out(dims_, 0);
  accumulate_into(out, +1);
  return out;
}

std::int64_t norm2(const IntHV& a) {
  std::int64_t acc = 0;
  for (std::int32_t v : a) acc += static_cast<std::int64_t>(v) * v;
  return acc;
}

double cosine(const IntHV& a, const IntHV& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("cosine: size mismatch");
  const std::int64_t na = norm2(a);
  const std::int64_t nb = norm2(b);
  if (na == 0 || nb == 0) return 0.0;
  const void* q = a.data();
  const std::int32_t* row = b.data();
  const kernels::DimRun all{0, a.size()};
  std::int64_t dot = 0;
  kernels::active().dot_tile({&q}, 1, {&row, 1}, &all, 1, &dot);
  return static_cast<double>(dot) /
         (std::sqrt(static_cast<double>(na)) * std::sqrt(static_cast<double>(nb)));
}

void add_into(IntHV& acc, const IntHV& x, int sign) {
  if (acc.size() != x.size())
    throw std::invalid_argument("add_into: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += sign * x[i];
}

}  // namespace generic::hdc
