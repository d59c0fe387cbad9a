#include "lifecycle/checkpoint_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "model/model_io.h"
#include "resilience/block_guard.h"

namespace generic::lifecycle {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "GCKP";
constexpr std::uint32_t kStoreVersion = 1;

/// Parse one checkpoint file. Error contract mirrors model_io: any
/// corruption is std::invalid_argument; an intact file from a newer writer
/// (outer header or inner classifier blob) is UnsupportedVersionError.
LoadedCheckpoint parse_checkpoint(const std::string& path) {
  const auto file = model::read_file_bytes(path);
  if (!file) throw std::invalid_argument("cannot open checkpoint: " + path);
  ByteReader r = model::open_sealed(*file, kMagic, kStoreVersion, "checkpoint");
  LoadedCheckpoint out;
  std::uint64_t payload_size = 0;
  if (!r.read(out.version) || !r.read(out.vt) || !r.read(payload_size))
    throw std::invalid_argument("checkpoint truncated");
  if (payload_size != r.remaining())
    throw std::invalid_argument("checkpoint payload size mismatch");
  out.model = model::deserialize_classifier(r.rest());
  return out;
}

std::optional<std::uint64_t> version_from(const std::string& name,
                                         const std::string& suffix) {
  // ckpt-%08llu<suffix> — tolerate more digits than 8.
  const std::string prefix = "ckpt-";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (!name.starts_with(prefix) || !name.ends_with(suffix))
    return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return v;
}

/// Files named ckpt-<version><suffix> in `dir`, by ascending version.
std::vector<CheckpointInfo> scan(const std::string& dir,
                                 const std::string& suffix) {
  std::vector<CheckpointInfo> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto version = version_from(entry.path().filename().string(), suffix);
    if (version) out.push_back(CheckpointInfo{*version, entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.version < b.version;
            });
  return out;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::size_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  if (dir_.empty())
    throw std::invalid_argument("CheckpointStore: dir must not be empty");
  if (keep_last_ == 0)
    throw std::invalid_argument("CheckpointStore: keep_last must be >= 1");
  fs::create_directories(dir_);
}

std::string CheckpointStore::path_for(std::uint64_t version) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.gckp",
                static_cast<unsigned long long>(version));
  return (fs::path(dir_) / name).string();
}

std::string CheckpointStore::save(const model::HdcClassifier& model,
                                  std::uint64_t version, std::uint64_t vt) {
  const std::string path = path_for(version);
  if (fs::exists(path))
    throw std::invalid_argument("CheckpointStore: version already saved: " +
                                std::to_string(version));

  const std::vector<std::uint8_t> payload = model::serialize_classifier(model);
  // Header 32 bytes, then the payload, then the 4-byte footer.
  auto buf = model::start_sealed(kMagic, kStoreVersion, payload.size() + 36);
  append_le(buf, version);
  append_le(buf, vt);
  append_le(buf, static_cast<std::uint64_t>(payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  model::seal(buf);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("CheckpointStore: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("CheckpointStore: write failed: " + tmp);
  }

  // Read-back verification before the rename publishes the file: the blob
  // must decode, and the decoded weights must match the live model block for
  // block (BlockGuard per-chunk CRC + sub-norm cross-check).
  const LoadedCheckpoint check = parse_checkpoint(tmp);
  const auto guard = resilience::BlockGuard::commission(model);
  if (guard.count_faulty(check.model) != 0) {
    fs::remove(tmp);
    throw std::runtime_error(
        "CheckpointStore: round-trip verification failed for version " +
        std::to_string(version));
  }
  fs::rename(tmp, path);
  ++saved_;
  prune();
  return path;
}

void CheckpointStore::prune() {
  std::vector<CheckpointInfo> all = list();
  for (std::size_t i = 0; i + keep_last_ < all.size(); ++i) {
    fs::remove(all[i].path);
    ++pruned_;
  }
  prune_quarantined();
}

void CheckpointStore::prune_quarantined() {
  std::vector<CheckpointInfo> all = list_quarantined();
  for (std::size_t i = 0; i + keep_last_ < all.size(); ++i) {
    fs::remove(all[i].path);
    ++pruned_quarantined_;
  }
}

std::vector<CheckpointInfo> CheckpointStore::list() const {
  return scan(dir_, ".gckp");
}

std::vector<CheckpointInfo> CheckpointStore::list_quarantined() const {
  return scan(dir_, ".gckp.quarantined");
}

std::optional<LoadedCheckpoint> CheckpointStore::load_latest() {
  std::vector<CheckpointInfo> all = list();
  std::optional<LoadedCheckpoint> loaded;
  bool quarantined_any = false;
  for (auto it = all.rbegin(); it != all.rend() && !loaded; ++it) {
    try {
      loaded = parse_checkpoint(it->path);
    } catch (const model::UnsupportedVersionError&) {
      // Intact bytes from a newer writer: not our file to read, but not
      // damage either — leave it alone for the newer reader.
      ++skipped_newer_;
    } catch (const std::invalid_argument&) {
      fs::rename(it->path, it->path + ".quarantined");
      ++quarantined_;
      quarantined_any = true;
    }
  }
  // Cap the evidence pile: repeated corrupt boots must not accumulate
  // .quarantined files without bound.
  if (quarantined_any) prune_quarantined();
  return loaded;
}

}  // namespace generic::lifecycle
