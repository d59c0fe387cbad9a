// Feature quantizer: maps raw scalar features onto the level-hypervector
// bins of the HDC encoders (paper §2.2: "inputs are quantized into bins to
// limit the number of levels"). The ASIC uses 64 bins (level memory is
// 64 x 4K bits, §5.1); the bin boundaries are fit on the training set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace generic {

class Quantizer {
 public:
  /// Construct an unfit quantizer with `bins` levels (default 64, matching
  /// the ASIC level memory depth).
  explicit Quantizer(std::size_t bins = 64);

  /// Fit per-dataset global min/max over all features of all samples, the
  /// scheme the reference HDC implementations use.
  void fit(std::span<const std::vector<float>> samples);

  /// Fit directly from a known range. Throws std::invalid_argument unless
  /// lo, hi and the width hi - lo are finite with lo <= hi.
  void fit_range(float lo, float hi);

  /// Quantize one value to its bin index in [0, bins).
  std::size_t bin(float value) const;

  /// Quantize a whole feature vector.
  std::vector<std::uint16_t> transform(std::span<const float> sample) const;

  std::size_t bins() const { return bins_; }
  float lo() const { return lo_; }
  float hi() const { return hi_; }
  bool fitted() const { return fitted_; }

 private:
  std::size_t bins_;
  float lo_ = 0.0f;
  float hi_ = 1.0f;
  bool fitted_ = false;
};

}  // namespace generic
