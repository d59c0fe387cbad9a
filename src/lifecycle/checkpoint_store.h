// Versioned on-disk classifier checkpoints (docs/lifecycle.md).
//
// Every validated model the lifecycle installs is snapshotted so a node can
// restart — or roll back — from the last known-good weights. One file per
// version under a store directory:
//
//   ckpt-00000001.gckp
//     magic "GCKP", u32 store format version,
//     u64 model_version, u64 virtual install time,
//     u64 payload size, payload = model_io classifier blob ("GCLS", its own
//     CRC footer), u32 crc32 over everything before it.
//   The envelope (magic, version, CRC footer) is model_io's sealed one:
//   written with model::start_sealed/seal and checked by model::open_sealed
//   before the header fields are read through common/bytes.h.
//
// Durability and hygiene rules:
//  * save() writes to a ".tmp" sibling, decodes it back and cross-checks the
//    round-trip against a resilience::BlockGuard commissioned on the live
//    model (per-block CRC + sub-norm), and only then renames into place —
//    a crash mid-write can never leave a half-checkpoint under a live name.
//  * Only the newest keep_last checkpoints survive a save(); older ones are
//    pruned.
//  * load_latest() walks versions newest-first. A corrupt file (bad magic,
//    truncation, CRC mismatch — anything std::invalid_argument) is
//    QUARANTINED by renaming to ".quarantined" and the walk continues with
//    the next-older version. A file that is intact but written by a NEWER
//    schema (model::UnsupportedVersionError) is skipped WITHOUT quarantine:
//    the bytes are fine, this reader is just too old for them.
//  * Quarantined files are kept for post-mortem inspection but capped under
//    the same keep_last policy as live checkpoints: whenever pruning runs
//    (after save() and after a load_latest() that quarantined anything),
//    only the newest keep_last ".gckp.quarantined" files survive — a node
//    that keeps tripping over corruption must not fill its flash with the
//    evidence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/hdc_classifier.h"

namespace generic::lifecycle {

struct CheckpointInfo {
  std::uint64_t version = 0;
  std::string path;
};

struct LoadedCheckpoint {
  model::HdcClassifier model{128, 1, 128};
  std::uint64_t version = 0;
  std::uint64_t vt = 0;
};

class CheckpointStore {
 public:
  /// Creates `dir` if missing. keep_last must be >= 1.
  explicit CheckpointStore(std::string dir, std::size_t keep_last = 4);

  /// Snapshot `model` as `version` (monotonically increasing by contract;
  /// re-saving an existing version throws). Returns the final path.
  std::string save(const model::HdcClassifier& model, std::uint64_t version,
                   std::uint64_t vt);

  /// Newest checkpoint that verifies, or nullopt when none does.
  std::optional<LoadedCheckpoint> load_latest();

  /// Checkpoints currently on disk (quarantined files excluded), sorted by
  /// ascending version.
  std::vector<CheckpointInfo> list() const;

  /// Quarantined files currently on disk, sorted by ascending version.
  std::vector<CheckpointInfo> list_quarantined() const;

  const std::string& dir() const { return dir_; }
  std::uint64_t saved() const { return saved_; }
  std::uint64_t pruned() const { return pruned_; }
  std::uint64_t quarantined() const { return quarantined_; }
  std::uint64_t pruned_quarantined() const { return pruned_quarantined_; }
  std::uint64_t skipped_newer() const { return skipped_newer_; }

 private:
  std::string path_for(std::uint64_t version) const;
  void prune();
  void prune_quarantined();

  std::string dir_;
  std::size_t keep_last_;
  std::uint64_t saved_ = 0;
  std::uint64_t pruned_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t pruned_quarantined_ = 0;
  std::uint64_t skipped_newer_ = 0;
};

}  // namespace generic::lifecycle
