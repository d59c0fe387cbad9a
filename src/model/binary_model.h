// Bit-packed deployment path for 1-bit HDC models.
//
// Figure 6 shows that many applications survive quantization of the class
// memory all the way to sign bits. A sign model makes the similarity
// search pure binary arithmetic: with a binarized query, the dot product
// of bipolar vectors is D - 2*hamming, computed with XOR + popcount over
// packed 64-bit words — the same trick the paper's bit-packed eGPU kernels
// use (§3.3) and what a CPU/MCU deployment of a GENERIC model would ship.
//
// BinaryModel converts a trained HdcClassifier into packed sign vectors
// and serves predictions ~an order of magnitude faster than the int32
// path (see bench/micro_hdc). Norms are constant across classes (every
// sign vector has ||C||^2 = D), so the cosine argmax reduces to a plain
// max-dot — no divider at all.
//
// The mixed-precision point (an integer query against the sign model) is
// HdcClassifier::quantize(1) followed by predict(), which scores through
// the kernel dot tile like every other prediction.
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"

namespace generic::model {

class BinaryModel {
 public:
  /// Binarize a trained classifier: class elements become sign bits.
  explicit BinaryModel(const HdcClassifier& classifier);

  std::size_t dims() const { return dims_; }
  std::size_t num_classes() const { return classes_.size(); }

  /// Fully binary: predict from a packed binarized query (XOR+popcount
  /// only — the tiny-HD-style operating point; costs a few accuracy
  /// points on top of model binarization because query magnitudes vanish).
  int predict_packed(const hdc::BinaryHV& query) const;

  /// Fully binary from a bundled integer query (binarized internally).
  int predict(const hdc::IntHV& query) const;

  /// Sign-binarize a bundled hypervector (>= 0 -> bit 1).
  static hdc::BinaryHV binarize(const hdc::IntHV& v);

  const hdc::BinaryHV& class_vector(std::size_t c) const {
    return classes_.at(c);
  }

 private:
  std::size_t dims_;
  std::vector<hdc::BinaryHV> classes_;
};

}  // namespace generic::model
