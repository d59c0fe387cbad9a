// Encoder interface shared by all five HDC encoding schemes of the paper
// (§2.2 baselines + §3.1 GENERIC). An encoder maps a raw feature vector to
// a bundled hypervector (IntHV); the classifier, clusterer and the ASIC
// model are all encoder-agnostic.
//
// All encoders except random projection quantize each feature into one of
// `levels` bins (Quantizer) and look the bin up in a LevelMemory; they
// differ only in how positional information is bound:
//   rp          -- linear random projection of quantized values, no levels
//   level-id    -- per-feature random id XOR level          (Fig. 2(c))
//   permutation -- level permuted by the feature's index    (Fig. 2(b))
//   ngram       -- XOR of permuted levels over sliding windows, no ids
//   generic     -- ngram windows + per-window id binding    (Fig. 2(d), Eq. 1)
//
// Every scheme but rp is a sum of windows, each the XOR of a few rotated
// binary rows (level-id: level and id; permutation: one level rotated by
// its index; ngram/generic: n levels rotated by 0..n-1, plus generic's
// rotated id). Those encoders bundle a whole sample with one call to the
// exact window-bundle kernel (Kernels::bundle_windows in hdc/kernels.h,
// docs/kernels.md), so every kernel backend yields the same encoding bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/quantizer.h"
#include "common/thread_pool.h"
#include "hdc/hypervector.h"

namespace generic::enc {

struct EncoderConfig {
  std::size_t dims = 4096;    ///< hypervector dimensionality D_hv
  std::size_t levels = 64;    ///< quantization bins == level memory depth
  std::size_t window = 3;     ///< window length n (ngram / generic)
  bool use_ids = true;        ///< generic: bind window ids; false => ids = {0}
  std::uint64_t seed = 0xD5A22ULL;  ///< item/level memory seed
  /// Rematerialize item/level hypervectors from the seed on every access
  /// instead of storing them (hdc::ItemStorage::kRematerialized): near-zero
  /// memory footprint, extra recompute per encode, bit-identical encodings.
  bool remat = false;
};

class Encoder {
 public:
  explicit Encoder(const EncoderConfig& cfg) : cfg_(cfg) {}
  virtual ~Encoder() = default;

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  /// Fit any input-dependent state (the quantizer's range) on training data.
  virtual void fit(std::span<const std::vector<float>> samples);

  /// Restore a known quantizer range without data (model deserialization,
  /// streaming deployments where the range is specified up front).
  void fit_range(float lo, float hi) {
    quantizer_ = Quantizer(cfg_.levels);
    quantizer_.fit_range(lo, hi);
  }

  /// Encode one raw feature vector into a bundled hypervector.
  virtual hdc::IntHV encode(std::span<const float> sample) const = 0;

  /// Encode a batch, fanning samples out across `pool` in deterministic
  /// index order: out[i] == encode(samples[i]) bit-for-bit regardless of
  /// the pool's lane count (every sample's encoding is independent and
  /// encode() is const). This is the engine's batched ingestion path.
  std::vector<hdc::IntHV> encode_batch(
      std::span<const std::vector<float>> samples, ThreadPool& pool) const;

  /// encode_batch through the process-wide pool (see set_global_threads).
  std::vector<hdc::IntHV> encode_batch(
      std::span<const std::vector<float>> samples) const {
    return encode_batch(samples, global_pool());
  }

  virtual std::string_view name() const = 0;

  /// Bytes of item/level hypervector payload this encoder currently holds.
  /// Near zero with cfg.remat (only seed rows remain); the stored-vs-remat
  /// trade bench/kernels and the remat tests measure.
  virtual std::size_t memory_footprint_bytes() const { return 0; }

  std::size_t dims() const { return cfg_.dims; }
  const EncoderConfig& config() const { return cfg_; }
  const Quantizer& quantizer() const { return quantizer_; }

 protected:
  std::vector<std::uint16_t> quantize(std::span<const float> sample) const {
    return quantizer_.transform(sample);
  }

  EncoderConfig cfg_;
  Quantizer quantizer_{64};
};

/// Encoder kinds understood by make_encoder. kSymbolNgram is a library
/// extension beyond the paper's five: ngram windows over *categorical*
/// item hypervectors (one independent random HV per symbol) instead of
/// distance-preserving levels — the right tool when feature values are
/// symbols (text, DNA) rather than magnitudes.
enum class EncoderKind {
  kRp,
  kLevelId,
  kNgram,
  kPermutation,
  kGeneric,
  kSymbolNgram,
};

std::string_view to_string(EncoderKind kind);

/// Factory covering all schemes evaluated in Table 1.
std::unique_ptr<Encoder> make_encoder(EncoderKind kind,
                                      const EncoderConfig& cfg);

}  // namespace generic::enc
