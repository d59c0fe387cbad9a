// Concrete encoder implementations; see encoder.h for the scheme overview.
//
// Every encoder that bundles binary rows — level-id, permutation, ngram,
// generic and sym-ngram — lists each window's rows with their rotations
// and bundles all windows of a sample in one call to the window-bundle
// kernel (Kernels::bundle_windows, docs/kernels.md), which rotates rows as
// it reads them: no encoder materializes a rotated row or a per-window
// hypervector. Rematerialized rows are rebuilt once per feature position
// into per-thread scratch.
#pragma once

#include "encoding/encoder.h"
#include "hdc/item_memory.h"

namespace generic::enc {

/// Random projection (Fig. 2(c) of the paper, "RP" column of Table 1):
/// H = sum_i q(x_i) * id_i with bipolar ids. A purely linear map of the
/// quantized features — by design it cannot represent interactions between
/// features, which is why it fails on time-series such as EEG (§3.2).
class RpEncoder final : public Encoder {
 public:
  explicit RpEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "rp"; }
  std::size_t memory_footprint_bytes() const override;

 private:
  hdc::ItemMemory ids_;
};

/// Level-id encoding: H = sum_i level(x_i) XOR id_i — two-term windows, no
/// rotation. Non-linear through the level quantization; ids give global
/// position but no local context.
class LevelIdEncoder final : public Encoder {
 public:
  explicit LevelIdEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "level-id"; }
  std::size_t memory_footprint_bytes() const override;

 private:
  hdc::ItemMemory ids_;
  hdc::LevelMemory levels_;
};

/// Permutation encoding (Fig. 2(b)): H = sum_i rho^i(level(x_i)) — one-term
/// windows, rotated by the feature index.
/// Binds position by shift amount; a pattern that moves by one position
/// maps to an unrelated hypervector, so order-free data (LANG) defeats it.
class PermutationEncoder final : public Encoder {
 public:
  explicit PermutationEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "permute"; }
  std::size_t memory_footprint_bytes() const override;

 private:
  hdc::LevelMemory levels_;
};

/// N-gram encoding [6,14]: H = sum_i XOR_{j<n} rho^j(level(x_{i+j})).
/// Captures local subsequences but discards their global order, so it fails
/// where spatial layout matters (MNIST, ISOLET).
class NgramEncoder final : public Encoder {
 public:
  explicit NgramEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "ngram"; }
  std::size_t memory_footprint_bytes() const override;

 private:
  hdc::LevelMemory levels_;
};

/// The proposed GENERIC encoding (Eq. 1, Fig. 2(d)):
///   H = sum_i id_i XOR [ XOR_{j<n} rho^j(level(x_{i+j})) ]
/// Sliding windows capture local context; per-window ids (generated from a
/// single rotating seed id, §4.3.1) restore global order. Setting
/// cfg.use_ids = false zeroes the ids, reducing to pure subsequence
/// statistics for order-free applications such as language identification.
/// Each window is n level rows rotated by j < n plus the seed id rotated by
/// i; encode() is encode_masked() with every row ok, so both share one
/// window loop.
class GenericEncoder final : public Encoder {
 public:
  explicit GenericEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "generic"; }
  std::size_t memory_footprint_bytes() const override;

  /// Degraded encode around corrupted encoder rows, the encoder-side
  /// mirror of a masked scan: any window that reads a level row with
  /// `level_ok[bin] == false` is skipped entirely (its garbage never
  /// enters the accumulator), and `id_ok == false` drops the id binding —
  /// reducing to pure subsequence statistics, exactly the use_ids = false
  /// encoding. The id rotation still advances once per window position so
  /// surviving windows bind the same id_i the clean encode would.
  /// `level_ok` must have one flag per level row
  /// (resilience::EncoderGuard::scan supplies it).
  hdc::IntHV encode_masked(std::span<const float> sample,
                           const std::vector<bool>& level_ok,
                           bool id_ok) const;

  /// The pristine id seed row for this config, regenerated from the seed —
  /// bit-identical to what the constructor produced, independent of any
  /// in-place corruption since. The scrub source for the id memory.
  hdc::BinaryHV materialize_id_seed() const;

  const hdc::SeededItemMemory& id_memory() const { return ids_; }
  const hdc::LevelMemory& level_memory() const { return levels_; }

  /// Mutable memory access for fault-injection studies (resilience::inject
  /// corrupts level rows / the id seed in place).
  hdc::SeededItemMemory& mutable_id_memory() { return ids_; }
  hdc::LevelMemory& mutable_level_memory() { return levels_; }

 private:
  hdc::SeededItemMemory ids_;
  hdc::LevelMemory levels_;
  std::vector<bool> all_levels_ok_;  ///< encode()'s mask: every row ok
};

/// Categorical n-gram encoding (extension; see EncoderKind::kSymbolNgram):
/// H = sum_i XOR_{j<n} rho^j(item(x_{i+j})) with an independent random
/// item hypervector per quantization bin. Unlike NgramEncoder there is no
/// similarity between adjacent bins, so symbol identity is exact — on
/// symbolic data (LANG, DNA) this recovers the last few accuracy points
/// the level blur costs.
class SymbolNgramEncoder final : public Encoder {
 public:
  explicit SymbolNgramEncoder(const EncoderConfig& cfg);
  hdc::IntHV encode(std::span<const float> sample) const override;
  std::string_view name() const override { return "sym-ngram"; }
  std::size_t memory_footprint_bytes() const override;

 private:
  hdc::ItemMemory items_;
};

}  // namespace generic::enc
