// Model serialization — the software counterpart of the ASIC's `config`
// port (§4.1): "load the level, id, and class hypervectors (in case of
// offline training)". A trained HdcClassifier plus the encoder
// configuration that produced its encodings round-trips through a compact
// binary image, so a model trained off-device (or in a previous run) can
// be deployed onto a GenericAsic or MicroArchSim without retraining.
//
// Format (little-endian, versioned):
//   magic "GHDC", u32 version,
//   encoder: u64 dims, u64 levels, u64 window, u8 use_ids, u64 seed,
//            u8 fitted, f32 lo, f32 hi,
//   model:   u64 dims, u64 classes, u64 chunk, i32 bit_width,
//            classes x dims i32 class elements,
//   crc32 of everything before it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "encoding/encoder.h"
#include "model/hdc_classifier.h"

namespace generic::model {

struct SavedModel {
  enc::EncoderConfig encoder_config;
  bool quantizer_fitted = false;
  float quantizer_lo = 0.0f;
  float quantizer_hi = 1.0f;
  HdcClassifier classifier{128, 1, 128};
};

/// A structurally intact blob written by a NEWER tool than this reader: the
/// magic and CRC check out but the schema version is above what we know how
/// to parse. Distinct from plain std::invalid_argument (corruption) so
/// deployment code can say "upgrade the reader" instead of "file damaged" —
/// and so the lifecycle CheckpointStore does NOT quarantine such files.
class UnsupportedVersionError : public std::invalid_argument {
 public:
  UnsupportedVersionError(std::uint32_t found, std::uint32_t supported)
      : std::invalid_argument(
            "model blob schema version " + std::to_string(found) +
            " is newer than supported version " + std::to_string(supported)),
        found_(found),
        supported_(supported) {}

  std::uint32_t found() const { return found_; }
  std::uint32_t supported() const { return supported_; }

 private:
  std::uint32_t found_;
  std::uint32_t supported_;
};

/// Serialize a trained model + the encoder settings it was built with.
std::vector<std::uint8_t> serialize_model(const enc::Encoder& encoder,
                                          const HdcClassifier& classifier);

/// Parse a blob; throws std::invalid_argument on any corruption (bad magic,
/// truncation, CRC mismatch, class values too large for the int64 norms)
/// and UnsupportedVersionError when the blob is intact but written with a
/// newer schema version than this reader.
SavedModel deserialize_model(std::span<const std::uint8_t> blob);

/// Classifier-only image ("GCLS" magic, versioned, CRC footer): geometry,
/// bit width and class elements without any encoder state. This is the
/// payload the lifecycle CheckpointStore snapshots — retraining never
/// changes the encoder, so re-serializing it per version would only bloat
/// checkpoints and forbid classifier-only rollback.
std::vector<std::uint8_t> serialize_classifier(const HdcClassifier& classifier);

/// Parse a classifier-only blob; same error contract as deserialize_model.
HdcClassifier deserialize_classifier(std::span<const std::uint8_t> blob);

/// File convenience wrappers.
void save_model_file(const std::string& path, const enc::Encoder& encoder,
                     const HdcClassifier& classifier);
SavedModel load_model_file(const std::string& path);

/// The whole file at `path` in one sized read, or nullopt when it is not a
/// regular file or cannot be read in full. load_model_file and the
/// lifecycle CheckpointStore read through it.
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);

/// CRC-32 (IEEE 802.3) used by every blob footer, the checkpoint footer and
/// the resilience guards. Table-driven (slicing-by-8: eight 256-entry
/// tables built at compile time, 8 bytes per step) and bit-identical to the
/// bitwise definition of the reflected polynomial 0xEDB88320.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace generic::model
