#include "lifecycle/checkpoint_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <utility>

#include "model/model_io.h"
#include "resilience/block_guard.h"

namespace generic::lifecycle {
namespace {

namespace fs = std::filesystem;

constexpr std::array<char, 4> kMagic = {'G', 'C', 'K', 'P'};
constexpr std::uint32_t kStoreVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    need(n);
    const auto out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (buf_.size() - pos_ < n)
      throw std::invalid_argument("checkpoint truncated");
  }
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Parse one checkpoint file. Error contract mirrors model_io: any
/// corruption is std::invalid_argument; an intact file from a newer writer
/// (outer header or inner classifier blob) is UnsupportedVersionError.
LoadedCheckpoint parse_checkpoint(const std::string& path) {
  const auto file = model::read_file_bytes(path);
  if (!file) throw std::invalid_argument("cannot open checkpoint: " + path);
  const std::vector<std::uint8_t>& buf = *file;
  if (buf.size() < kMagic.size() + 4 + 8 + 8 + 8 + 4)
    throw std::invalid_argument("checkpoint truncated");
  // Outer CRC first: distinguishes corruption from every other complaint.
  const std::size_t body = buf.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(buf[body + i]) << (8 * i);
  if (model::crc32(buf.data(), body) != stored)
    throw std::invalid_argument("checkpoint CRC mismatch");

  Reader r(buf);
  const auto magic = r.get_bytes(kMagic.size());
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin()))
    throw std::invalid_argument("checkpoint bad magic");
  const std::uint32_t version = r.get_u32();
  if (version > kStoreVersion)
    throw model::UnsupportedVersionError(version, kStoreVersion);
  if (version != kStoreVersion)
    throw std::invalid_argument("checkpoint unsupported format version");

  LoadedCheckpoint out;
  out.version = r.get_u64();
  out.vt = r.get_u64();
  const std::uint64_t payload_size = r.get_u64();
  if (payload_size != r.remaining() - 4)
    throw std::invalid_argument("checkpoint payload size mismatch");
  out.model = model::deserialize_classifier(
      r.get_bytes(static_cast<std::size_t>(payload_size)));
  return out;
}

std::optional<std::uint64_t> version_from_suffixed(const std::string& name,
                                                   const std::string& suffix) {
  // ckpt-%08llu<suffix> — tolerate more digits than 8.
  const std::string prefix = "ckpt-";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return v;
}

std::optional<std::uint64_t> version_from_name(const std::string& name) {
  return version_from_suffixed(name, ".gckp");
}

std::optional<std::uint64_t> version_from_quarantined(const std::string& name) {
  return version_from_suffixed(name, ".gckp.quarantined");
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
  std::vector<std::uint8_t> buf;
  buf.reserve(payload.size() + 40);
  buf.insert(buf.end(), kMagic.begin(), kMagic.end());
  put_u32(buf, kStoreVersion);
  put_u64(buf, version);
  put_u64(buf, vt);
  put_u64(buf, payload.size());
  buf.insert(buf.end(), payload.begin(), payload.end());
  put_u32(buf, model::crc32(buf.data(), buf.size()));

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
  std::vector<CheckpointInfo> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const auto version = version_from_name(entry.path().filename().string());
    if (!version) continue;
    out.push_back(CheckpointInfo{*version, entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.version < b.version;
            });
  return out;
}

std::vector<CheckpointInfo> CheckpointStore::list_quarantined() const {
  std::vector<CheckpointInfo> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const auto version =
        version_from_quarantined(entry.path().filename().string());
    if (!version) continue;
    out.push_back(CheckpointInfo{*version, entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.version < b.version;
            });
  return out;
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
