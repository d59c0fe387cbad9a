// CheckpointStore: round-trip fidelity, keep-last pruning, quarantine of
// corrupt files with fallback to the next-older version, and the
// newer-writer skip path (intact bytes are not damage).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lifecycle/checkpoint_store.h"
#include "model/model_io.h"

namespace generic::lifecycle {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("gckp-" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Small deterministic trained classifier; `salt` varies the weights so
/// different versions hold distinguishable models.
model::HdcClassifier make_model(std::uint64_t salt) {
  const std::size_t dims = 256;
  const std::size_t classes = 3;
  Rng rng(0xC0FFEE ^ salt);
  std::vector<hdc::IntHV> train;
  std::vector<int> labels;
  for (int c = 0; c < static_cast<int>(classes); ++c) {
    hdc::IntHV base(dims);
    for (auto& v : base) v = static_cast<std::int32_t>(rng.below(17)) - 8;
    for (int s = 0; s < 6; ++s) {
      hdc::IntHV h = base;
      h[rng.below(dims)] += 1;
      train.push_back(std::move(h));
      labels.push_back(c);
    }
  }
  model::HdcClassifier clf(dims, classes);
  clf.fit_parallel(train, labels, 3, global_pool());
  return clf;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& buf) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

/// Recompute the outer CRC footer after editing header bytes, so the edit
/// reads as a schema difference rather than corruption.
void reseal_outer_crc(std::vector<std::uint8_t>& buf) {
  const std::size_t body = buf.size() - 4;
  const std::uint32_t crc = model::crc32(buf.data(), body);
  for (int i = 0; i < 4; ++i)
    buf[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
}

TEST(LifecycleCheckpointStore, SaveLoadRoundTrip) {
  CheckpointStore store(fresh_dir("roundtrip"), 4);
  const auto m = make_model(1);
  const std::string path = store.save(m, 7, 123456);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(store.saved(), 1u);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 7u);
  EXPECT_EQ(loaded->vt, 123456u);
  ASSERT_EQ(loaded->model.dims(), m.dims());
  ASSERT_EQ(loaded->model.num_classes(), m.num_classes());
  for (std::size_t c = 0; c < m.num_classes(); ++c)
    EXPECT_EQ(loaded->model.class_vector(c), m.class_vector(c)) << c;
}

TEST(LifecycleCheckpointStore, DuplicateVersionThrows) {
  CheckpointStore store(fresh_dir("dup"), 4);
  store.save(make_model(1), 3, 10);
  EXPECT_THROW(store.save(make_model(2), 3, 20), std::invalid_argument);
}

TEST(LifecycleCheckpointStore, KeepLastPrunesOldest) {
  CheckpointStore store(fresh_dir("prune"), 3);
  for (std::uint64_t v = 1; v <= 6; ++v) store.save(make_model(v), v, v * 100);
  EXPECT_EQ(store.saved(), 6u);
  EXPECT_EQ(store.pruned(), 3u);
  const auto all = store.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].version, 4u);
  EXPECT_EQ(all[1].version, 5u);
  EXPECT_EQ(all[2].version, 6u);
}

TEST(LifecycleCheckpointStore, CorruptNewestIsQuarantinedOlderLoads) {
  CheckpointStore store(fresh_dir("quarantine"), 4);
  store.save(make_model(1), 1, 100);
  const std::string p2 = store.save(make_model(2), 2, 200);

  auto buf = slurp(p2);
  buf[buf.size() / 2] ^= 0x40;  // payload damage: outer CRC now mismatches
  spit(p2, buf);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_FALSE(fs::exists(p2));
  EXPECT_TRUE(fs::exists(p2 + ".quarantined"));
  // The quarantined file no longer shadows version 2 in the listing.
  const auto all = store.list();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].version, 1u);
}

TEST(LifecycleCheckpointStore, FlippedNewestIsQuarantinedAndOlderLoads) {
  // The GCKP corruption sweep: every bit of the 32-byte header and the
  // 4-byte footer, plus one seeded bit in each of 64 seeded payload bytes.
  // Each damaged newest file is quarantined, and the walk falls back to the
  // intact older version.
  CheckpointStore store(fresh_dir("flipsweep"), 4);
  const auto m1 = make_model(1);
  store.save(m1, 1, 100);
  const std::string p2 = store.save(make_model(2), 2, 200);
  const std::vector<std::uint8_t> good = slurp(p2);
  constexpr std::size_t kHeader = 32, kFooter = 4;
  ASSERT_GT(good.size(), kHeader + kFooter);

  std::vector<std::pair<std::size_t, int>> flips;
  for (std::size_t i = 0; i < kHeader; ++i)
    for (int bit = 0; bit < 8; ++bit) flips.emplace_back(i, bit);
  for (std::size_t i = good.size() - kFooter; i < good.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) flips.emplace_back(i, bit);
  Rng rng(0xF11Bull);
  for (int k = 0; k < 64; ++k)
    flips.emplace_back(
        kHeader + rng.below(good.size() - kHeader - kFooter),
        static_cast<int>(rng.below(8)));

  std::uint64_t quarantined = 0;
  for (const auto& [byte, bit] : flips) {
    auto buf = good;
    buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
    spit(p2, buf);
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value()) << "byte " << byte << " bit " << bit;
    EXPECT_EQ(loaded->version, 1u) << "byte " << byte << " bit " << bit;
    EXPECT_EQ(loaded->vt, 100u);
    EXPECT_EQ(loaded->model.class_vector(0), m1.class_vector(0));
    EXPECT_EQ(store.quarantined(), ++quarantined);
    EXPECT_FALSE(fs::exists(p2)) << "byte " << byte << " bit " << bit;
    ASSERT_TRUE(fs::exists(p2 + ".quarantined"));
    fs::remove(p2 + ".quarantined");
  }
  EXPECT_EQ(store.skipped_newer(), 0u);
}

TEST(LifecycleCheckpointStore, TruncatedNewestIsQuarantinedAndOlderLoads) {
  // The GCKP truncation sweep: every prefix of 0..36 bytes (the 32-byte
  // header and the 4-byte footer) and 64 seeded longer prefixes. Each cut
  // newest file is quarantined, never skipped as newer, and the walk falls
  // back to the intact older version.
  CheckpointStore store(fresh_dir("truncsweep"), 4);
  const auto m1 = make_model(1);
  store.save(m1, 1, 100);
  const std::string p2 = store.save(make_model(2), 2, 200);
  const std::vector<std::uint8_t> good = slurp(p2);
  constexpr std::size_t kEnvelope = 36;
  ASSERT_GT(good.size(), kEnvelope + 1);

  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= kEnvelope; ++len) lengths.push_back(len);
  Rng rng(0x7A11ull);
  for (int k = 0; k < 64; ++k)
    lengths.push_back(kEnvelope + 1 + rng.below(good.size() - kEnvelope - 1));

  std::uint64_t quarantined = 0;
  for (const std::size_t len : lengths) {
    spit(p2, std::vector<std::uint8_t>(good.begin(), good.begin() +
                                           static_cast<std::ptrdiff_t>(len)));
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value()) << "length " << len;
    EXPECT_EQ(loaded->version, 1u) << "length " << len;
    EXPECT_EQ(loaded->vt, 100u);
    EXPECT_EQ(loaded->model.class_vector(0), m1.class_vector(0));
    EXPECT_EQ(store.quarantined(), ++quarantined) << "length " << len;
    EXPECT_FALSE(fs::exists(p2)) << "length " << len;
    ASSERT_TRUE(fs::exists(p2 + ".quarantined"));
    fs::remove(p2 + ".quarantined");
  }
  EXPECT_EQ(store.skipped_newer(), 0u);
}

TEST(LifecycleCheckpointStore, QuarantinedFilesAreCappedAtKeepLast) {
  // Repeated corrupt boots must not grow the evidence pile without bound:
  // .quarantined files obey the same keep-last budget as live checkpoints.
  CheckpointStore store(fresh_dir("qcap"), 2);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    const std::string p = store.save(make_model(v), v, v * 100);
    auto buf = slurp(p);
    buf[buf.size() / 2] ^= 0x40;
    spit(p, buf);
    EXPECT_FALSE(store.load_latest().has_value()) << v;
  }
  EXPECT_EQ(store.quarantined(), 5u);
  const auto q = store.list_quarantined();
  ASSERT_EQ(q.size(), 2u) << "cap at keep_last";
  EXPECT_EQ(q[0].version, 4u);
  EXPECT_EQ(q[1].version, 5u);
  EXPECT_EQ(store.pruned_quarantined(), 3u);
  for (const auto& info : q) EXPECT_TRUE(fs::exists(info.path));
}

TEST(LifecycleCheckpointStore, NewerFormatIsSkippedWithoutQuarantine) {
  CheckpointStore store(fresh_dir("newer"), 4);
  store.save(make_model(1), 1, 100);
  const std::string p2 = store.save(make_model(2), 2, 200);

  // Pretend a newer writer produced version 2: bump the u32 store-format
  // field (offset 4, after the "GCKP" magic) and reseal the outer CRC so
  // the file is INTACT, just from the future.
  auto buf = slurp(p2);
  buf[4] = 99;
  reseal_outer_crc(buf);
  spit(p2, buf);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(store.skipped_newer(), 1u);
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(p2)) << "intact newer files must be left alone";
}

TEST(LifecycleCheckpointStore, EmptyStoreLoadsNothing) {
  CheckpointStore store(fresh_dir("empty"), 4);
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_TRUE(store.list().empty());
}

TEST(LifecycleCheckpointStore, RejectsInvalidConstruction) {
  EXPECT_THROW(CheckpointStore("", 4), std::invalid_argument);
  EXPECT_THROW(CheckpointStore(fresh_dir("zero"), 0), std::invalid_argument);
}

}  // namespace
}  // namespace generic::lifecycle
