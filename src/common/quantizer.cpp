#include "common/quantizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace generic {

Quantizer::Quantizer(std::size_t bins) : bins_(bins) {
  if (bins_ == 0) throw std::invalid_argument("Quantizer needs >= 1 bin");
}

void Quantizer::fit(std::span<const std::vector<float>> samples) {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  for (const auto& s : samples)
    for (float v : s) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  if (!(lo <= hi)) throw std::invalid_argument("Quantizer::fit: empty input");
  fit_range(lo, hi);
}

void Quantizer::fit_range(float lo, float hi) {
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw std::invalid_argument("Quantizer: range must be finite");
  if (!(lo <= hi)) throw std::invalid_argument("Quantizer: lo must be <= hi");
  // bin() divides by hi - lo in float: a range wider than FLT_MAX would
  // make that width inf and every value land in the edge bins.
  if (!std::isfinite(hi - lo))
    throw std::invalid_argument("Quantizer: range width must be finite");
  lo_ = lo;
  hi_ = hi;
  fitted_ = true;
}

std::size_t Quantizer::bin(float value) const {
  if (!fitted_) throw std::logic_error("Quantizer used before fit");
  if (hi_ == lo_) return 0;
  const float t = (value - lo_) / (hi_ - lo_);
  // Settle the edge bins before the cast: a value far outside the range (or
  // NaN) would not fit the integer it is cast to.
  if (!(t > 0.0f)) return 0;
  if (t >= 1.0f) return bins_ - 1;
  const auto idx = static_cast<std::size_t>(
      std::floor(static_cast<double>(t) * static_cast<double>(bins_)));
  return std::min(idx, bins_ - 1);
}

std::vector<std::uint16_t> Quantizer::transform(
    std::span<const float> sample) const {
  std::vector<std::uint16_t> out(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i)
    out[i] = static_cast<std::uint16_t>(bin(sample[i]));
  return out;
}

}  // namespace generic
