// Graceful degradation for faulty 128-dimension blocks.
//
// The ASIC already keeps one piece of redundancy per (class, chunk): the
// squared sub-norm in the nominally-powered norm2 memory (§4.3.3). A
// BlockGuard adds the second piece — a CRC32 per (class, chunk) computed
// at commission time from a trusted model — and combines both into a
// detector:
//
//   block k is FAULTY when, for any class c,
//     crc32(values of chunk k of class c) != commissioned crc, OR
//     recomputed ||chunk||^2              != stored chunk_norm(c, k)
//
// The norm check is free (the injectors deliberately leave chunk norms
// stale, mirroring the hardware's separate norm2 array); the CRC catches
// the corner cases norms miss (e.g. sign flips that preserve the square).
//
// A detected-faulty block is then either
//   * masked — HdcClassifier::scan() with the guard's chunk mask skips its
//     dimensions in the similarity search, the same trick as §4.3.3
//     on-demand dimension reduction, so accuracy degrades by the
//     information the block carried instead of being poisoned by garbage
//     values; or
//   * scrubbed — repaired in place from a CRC-verified golden model blob
//     (model_io), the software mirror of an ECC refill from backing store.
#pragma once

#include <cstdint>
#include <vector>

#include "model/hdc_classifier.h"
#include "model/model_io.h"

namespace generic::resilience {

class BlockGuard {
 public:
  /// Snapshot per-block CRCs (and golden chunk norms) of a trusted model.
  static BlockGuard commission(const model::HdcClassifier& clf);

  std::size_t num_chunks() const { return num_chunks_; }
  std::size_t num_classes() const { return num_classes_; }

  /// Scan a (possibly corrupted) model; `ok[k]` is true when chunk k passed
  /// both the CRC and the sub-norm cross-check for every class. The model
  /// must have the same geometry as the commissioned one.
  std::vector<bool> scan(const model::HdcClassifier& clf) const;

  /// Number of blocks a scan flags as faulty.
  std::size_t count_faulty(const model::HdcClassifier& clf) const;

  /// Repair every faulty block in place from a golden model (typically the
  /// deserialized, CRC-verified blob the model was deployed from); restores
  /// values and chunk norms of the repaired blocks and returns how many
  /// blocks were rewritten. Throws when geometries disagree. Note that a
  /// truly dead SRAM block will fail again on the next scan — scrubbing
  /// heals transient and stuck-at-masked-by-rewrite damage, masking handles
  /// the rest.
  std::size_t scrub(model::HdcClassifier& clf,
                    const model::HdcClassifier& golden) const;

  /// Convenience: deserialize `blob` (CRC-verified by model_io) and scrub
  /// from its classifier.
  std::size_t scrub_from_blob(model::HdcClassifier& clf,
                              const std::vector<std::uint8_t>& blob) const;

 private:
  BlockGuard() = default;

  std::size_t dims_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t num_chunks_ = 0;
  std::size_t chunk_ = 0;
  /// crcs_[c * num_chunks_ + k] over the raw int32 bytes of the chunk.
  std::vector<std::uint32_t> crcs_;
};

}  // namespace generic::resilience
