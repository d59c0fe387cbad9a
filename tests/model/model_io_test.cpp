#include "model/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "golden.h"
#include "lifecycle/checkpoint_store.h"
#include "model/hdc_classifier.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::model {
namespace {

struct Trained {
  data::Dataset ds = data::make_benchmark("PAGE");
  enc::GenericEncoder encoder;
  HdcClassifier clf;

  Trained()
      : encoder([] {
          enc::EncoderConfig cfg;
          cfg.dims = 1024;
          return cfg;
        }()),
        clf(1024, 5) {
    encoder.fit(ds.train_x);
    const auto train = encoder.encode_batch(ds.train_x);
    clf = HdcClassifier(1024, ds.num_classes);
    clf.fit_parallel(train, ds.train_y, 5, global_pool());
  }
};

TEST(ModelIo, RoundTripPreservesPredictions) {
  Trained t;
  const auto blob = serialize_model(t.encoder, t.clf);
  const SavedModel loaded = deserialize_model(blob);

  EXPECT_EQ(loaded.encoder_config.dims, 1024u);
  EXPECT_EQ(loaded.encoder_config.window, 3u);
  EXPECT_TRUE(loaded.quantizer_fitted);

  enc::GenericEncoder enc2(loaded.encoder_config);
  enc2.fit_range(loaded.quantizer_lo, loaded.quantizer_hi);
  for (std::size_t i = 0; i < t.ds.test_x.size(); ++i) {
    const auto q = enc2.encode(t.ds.test_x[i]);
    ASSERT_EQ(loaded.classifier.predict(q),
              t.clf.predict(t.encoder.encode(t.ds.test_x[i])))
        << "sample " << i;
  }
}

TEST(ModelIo, RoundTripPreservesNormsAndBitWidth) {
  Trained t;
  t.clf.quantize(8);
  const auto loaded = deserialize_model(serialize_model(t.encoder, t.clf));
  EXPECT_EQ(loaded.classifier.bit_width(), 8);
  for (std::size_t c = 0; c < t.clf.num_classes(); ++c) {
    EXPECT_EQ(loaded.classifier.class_vector(c), t.clf.class_vector(c));
    for (std::size_t k = 0; k < t.clf.num_chunks(); ++k)
      EXPECT_EQ(loaded.classifier.chunk_norm(c, k), t.clf.chunk_norm(c, k));
  }
}

/// Recompute and overwrite the CRC footer after mutating the body, so the
/// corruption tests can reach the checks *behind* the CRC gate (magic,
/// version, geometry) with a blob that passes integrity verification.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::size_t body = blob.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(blob.data(), body);
  std::memcpy(blob.data() + body, &crc, sizeof(crc));
}

/// Run deserialize_model and capture the failure message ("" if it
/// unexpectedly succeeds) — the corruption suite asserts each corruption
/// class yields its own distinct diagnostic.
std::string failure_message(const std::vector<std::uint8_t>& blob) {
  try {
    (void)deserialize_model(blob);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(ModelIo, SingleByteCorruptionCaughtByCrc) {
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_EQ(failure_message(blob), "model blob CRC mismatch");
}

TEST(ModelIo, EveryHeaderBytePositionIsCovered) {
  // Flip each byte of the header region one at a time; the CRC footer
  // must catch all of them — no blind spots.
  Trained t;
  const auto golden = serialize_model(t.encoder, t.clf);
  for (std::size_t i = 0; i < 64; ++i) {
    auto blob = golden;
    blob[i] ^= 0x01;
    EXPECT_EQ(failure_message(blob), "model blob CRC mismatch") << "byte " << i;
  }
}

TEST(ModelIo, TruncationDetected) {
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  blob.resize(blob.size() / 2);
  EXPECT_EQ(failure_message(blob), "model blob CRC mismatch");
  blob.resize(3);  // below the smallest possible well-formed blob
  EXPECT_EQ(failure_message(blob), "model blob too small");
}

TEST(ModelIo, TruncatedButResealedPayloadDetected) {
  // Chop off payload bytes and re-seal: integrity passes, but the header
  // promises more payload than the blob holds.
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  blob.resize(blob.size() - 128);
  blob.resize(blob.size() + sizeof(std::uint32_t));  // room for the footer
  reseal(blob);
  EXPECT_EQ(failure_message(blob), "model blob payload size mismatch");
}

TEST(ModelIo, BadMagicDetected) {
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  blob[0] = 'X';
  reseal(blob);
  EXPECT_EQ(failure_message(blob), "model blob bad magic");
}

TEST(ModelIo, EncoderHeaderOutOfRangeIsATypedError) {
  // Each encoder header field rewritten behind a valid CRC: an encoder
  // whose dims do not match the classifier, an empty window, or more
  // levels than the level memory holds (ArchConstants::levels) is refused.
  Trained t;
  const auto golden = serialize_model(t.encoder, t.clf);
  struct Case {
    std::size_t offset;  // after the 4-byte magic and the u32 version
    std::uint64_t value;
    const char* message;
  };
  const Case cases[] = {
      {8, 2048, "model blob encoder dims differ from classifier dims"},
      {16, 0, "model blob encoder levels outside [1, 64]"},
      {16, 65, "model blob encoder levels outside [1, 64]"},
      {16, std::numeric_limits<std::uint64_t>::max(),
       "model blob encoder levels outside [1, 64]"},
      {24, 0, "model blob encoder window is 0"},
      {16, 1, ""},   // the smallest level memory loads
      {16, 64, ""},  // the full level memory loads
  };
  for (const Case& c : cases) {
    auto blob = golden;
    std::memcpy(blob.data() + c.offset, &c.value, sizeof(c.value));
    reseal(blob);
    EXPECT_EQ(failure_message(blob), c.message)
        << "offset " << c.offset << " value " << c.value;
  }
}

TEST(ModelIo, NonFiniteQuantizerRangeIsATypedError) {
  // A fitted quantizer range rewritten behind a valid CRC: an infinite,
  // NaN or reversed range would drop every feature into one bin, so the
  // blob is refused instead of loading a model that scores at chance.
  Trained t;
  const auto golden = serialize_model(t.encoder, t.clf);
  constexpr std::size_t kLo = 42, kHi = 46;  // f32 lo, f32 hi after `fitted`
  ASSERT_EQ(golden[kLo - 1], 1u) << "the fixture's quantizer is fitted";
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::string message =
      "model blob quantizer range is not finite with lo <= hi";
  const struct {
    float lo, hi;
    std::string message;
  } cases[] = {
      {-inf, inf, message}, {nan, 1.0f, message},
      {2.0f, 1.0f, message}, {-3e38f, 3e38f, message},
      {-1.0f, 1.0f, ""},
  };
  for (const auto& c : cases) {
    auto blob = golden;
    std::memcpy(blob.data() + kLo, &c.lo, sizeof(float));
    std::memcpy(blob.data() + kHi, &c.hi, sizeof(float));
    reseal(blob);
    EXPECT_EQ(failure_message(blob), c.message) << c.lo << ", " << c.hi;
  }
}

TEST(ModelIo, NewerSchemaVersionIsATypedError) {
  // An intact blob from a NEWER writer is not corruption: the reader must
  // raise UnsupportedVersionError (so deployment code can say "upgrade the
  // reader" and the lifecycle CheckpointStore knows not to quarantine).
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  ++blob[4];  // version u32 lives right after the 4-byte magic
  reseal(blob);
  try {
    (void)deserialize_model(blob);
    FAIL() << "newer-schema blob was accepted";
  } catch (const UnsupportedVersionError& e) {
    EXPECT_EQ(e.found(), 2u);
    EXPECT_EQ(e.supported(), 1u);
    EXPECT_EQ(std::string(e.what()),
              "model blob schema version 2 is newer than supported version 1");
  }
  // The typed error is still an invalid_argument, so callers that only
  // distinguish success from failure keep working.
  EXPECT_THROW((void)deserialize_model(blob), std::invalid_argument);
}

TEST(ModelIo, NewerVersionBehindBrokenCrcIsJustCorruption) {
  // A bumped version WITHOUT a valid CRC must stay a plain corruption
  // complaint — the version field of a damaged blob means nothing.
  Trained t;
  auto blob = serialize_model(t.encoder, t.clf);
  ++blob[4];
  EXPECT_EQ(failure_message(blob), "model blob CRC mismatch");
}

TEST(ModelIo, ClassifierBlobRoundTrip) {
  Trained t;
  t.clf.quantize(8);
  const auto blob = serialize_classifier(t.clf);
  const HdcClassifier loaded = deserialize_classifier(blob);
  EXPECT_EQ(loaded.dims(), t.clf.dims());
  EXPECT_EQ(loaded.num_classes(), t.clf.num_classes());
  EXPECT_EQ(loaded.bit_width(), 8);
  for (std::size_t c = 0; c < t.clf.num_classes(); ++c) {
    EXPECT_EQ(loaded.class_vector(c), t.clf.class_vector(c));
    for (std::size_t k = 0; k < t.clf.num_chunks(); ++k)
      EXPECT_EQ(loaded.chunk_norm(c, k), t.clf.chunk_norm(c, k));
  }
}

TEST(ModelIo, ClassifierBlobCorruptionAndVersioning) {
  Trained t;
  auto blob = serialize_classifier(t.clf);
  {
    auto bad = blob;
    bad[bad.size() / 2] ^= 0x10;
    EXPECT_THROW((void)deserialize_classifier(bad), std::invalid_argument);
  }
  {
    auto newer = blob;
    ++newer[4];  // version follows the "GCLS" magic
    reseal(newer);
    EXPECT_THROW((void)deserialize_classifier(newer), UnsupportedVersionError);
  }
}

TEST(ModelIo, EmptyBlobRejected) {
  EXPECT_EQ(failure_message({}), "model blob too small");
}

TEST(ModelIo, FileRoundTrip) {
  Trained t;
  const auto path =
      (std::filesystem::temp_directory_path() / "generic_model_io_test.ghdc")
          .string();
  save_model_file(path, t.encoder, t.clf);
  const auto loaded = load_model_file(path);
  EXPECT_EQ(loaded.classifier.num_classes(), t.clf.num_classes());
  EXPECT_EQ(loaded.classifier.class_vector(0), t.clf.class_vector(0));
  std::remove(path.c_str());
  EXPECT_THROW(load_model_file(path), std::runtime_error);
  // A directory opens for reading but has no byte size to read.
  EXPECT_THROW(
      load_model_file(std::filesystem::temp_directory_path().string()),
      std::runtime_error);
}

TEST(ModelIo, Crc32KnownVector) {
  // CRC-32("123456789") == 0xCBF43926 — the classic check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

/// The bitwise definition crc32 replaced: one shift/mask step per bit.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b)
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
  }
  return ~crc;
}

TEST(ModelIo, Crc32MatchesBitwiseReference) {
  // Every length around the 8-byte step and its byte tail, at every
  // alignment of the start, then one checkpoint-sized buffer.
  Rng rng(0xC4C32ull);
  std::vector<std::uint8_t> buf(1100 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 1100; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len),
                bitwise_crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;

  std::vector<std::uint8_t> big(163916);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_EQ(crc32(big.data(), big.size()),
            bitwise_crc32(big.data(), big.size()));
}

// ---- Byte pin of the three persistence formats -------------------------
//
// tests/model/golden/blobs.txt holds a hex dump of the GHDC
// (serialize_model), GCLS (serialize_classifier) and GCKP (the file
// CheckpointStore::save writes) blobs of one fixed small model. Any change
// to a format's bytes, its field order or its CRC footer shows up here as a
// byte diff; tests/golden.h says how to regenerate the fixture.

constexpr std::size_t kPinDims = 256;
constexpr std::size_t kPinClasses = 3;
constexpr std::uint64_t kPinVersion = 3;
constexpr std::uint64_t kPinVt = 123456789;

/// Seeded rows in ±2^27, so every byte lane of every element takes varied
/// values while each chunk's sum of squares still fits the int64 norms,
/// plus a non-default bit width.
HdcClassifier pinned_classifier() {
  HdcClassifier clf(kPinDims, kPinClasses, 128);
  Rng rng(0xB10B5ull);
  for (std::size_t c = 0; c < kPinClasses; ++c) {
    hdc::IntHV row(kPinDims);
    for (auto& v : row)
      v = static_cast<std::int32_t>(rng.range(-(1 << 27), 1 << 27));
    clf.set_class_vector(c, std::move(row));
  }
  clf.set_bit_width(12);
  clf.recompute_norms();
  return clf;
}

enc::EncoderConfig pinned_encoder_config() {
  enc::EncoderConfig cfg;
  cfg.dims = kPinDims;
  cfg.levels = 16;
  cfg.window = 4;
  cfg.seed = 0x5EEDull;
  return cfg;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  const std::string s = golden::read_file(path);
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// The GCKP file CheckpointStore::save writes for `clf` in a fresh dir.
std::vector<std::uint8_t> checkpoint_bytes(const HdcClassifier& clf,
                                           const std::string& dir) {
  std::filesystem::remove_all(dir);
  lifecycle::CheckpointStore store(dir, 1);
  return read_bytes(store.save(clf, kPinVersion, kPinVt));
}

using NamedBlobs =
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

/// "<name> <size>" then the bytes as hex, 32 per line.
std::string render_blobs(const NamedBlobs& blobs) {
  std::string out;
  char hex[3];
  for (const auto& [name, blob] : blobs) {
    out += name + " " + std::to_string(blob.size()) + "\n";
    for (std::size_t i = 0; i < blob.size(); ++i) {
      std::snprintf(hex, sizeof(hex), "%02x", blob[i]);
      out += hex;
      if (i % 32 == 31 || i + 1 == blob.size()) out += "\n";
    }
  }
  return out;
}

NamedBlobs parse_blobs(const std::string& text) {
  NamedBlobs out;
  std::istringstream in(text);
  std::string name;
  std::size_t size = 0;
  while (in >> name >> size) {
    std::vector<std::uint8_t> blob;
    std::string line;
    while (blob.size() < size && in >> line)
      for (std::size_t i = 0; i + 1 < line.size(); i += 2)
        blob.push_back(static_cast<std::uint8_t>(
            std::stoul(line.substr(i, 2), nullptr, 16)));
    out.emplace_back(name, std::move(blob));
  }
  return out;
}

void expect_same_rows(const HdcClassifier& got, const HdcClassifier& want) {
  ASSERT_EQ(got.dims(), want.dims());
  ASSERT_EQ(got.num_classes(), want.num_classes());
  EXPECT_EQ(got.num_chunks(), want.num_chunks());
  EXPECT_EQ(got.bit_width(), want.bit_width());
  for (std::size_t c = 0; c < want.num_classes(); ++c)
    EXPECT_EQ(got.class_vector(c), want.class_vector(c)) << "class " << c;
}

TEST(ModelIo, BlobBytesMatchCommittedFixture) {
  const HdcClassifier clf = pinned_classifier();
  enc::GenericEncoder encoder(pinned_encoder_config());
  encoder.fit_range(-1.5f, 2.25f);
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "ghdc-blob-pin").string();
  const NamedBlobs blobs = {
      {"GHDC", serialize_model(encoder, clf)},
      {"GCLS", serialize_classifier(clf)},
      {"GCKP", checkpoint_bytes(clf, dir)},
  };
  const std::string path = std::string(GENERIC_GOLDEN_DIR) + "/blobs.txt";
  golden::expect_golden(render_blobs(blobs), path);
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";

  // Every committed blob still decodes to the pinned rows.
  const NamedBlobs fixture = parse_blobs(golden::read_file(path));
  ASSERT_EQ(fixture.size(), 3u);
  for (std::size_t i = 0; i < fixture.size(); ++i) {
    EXPECT_EQ(fixture[i].first, blobs[i].first);
    EXPECT_EQ(fixture[i].second, blobs[i].second) << fixture[i].first;
  }
  const SavedModel saved = deserialize_model(fixture[0].second);
  EXPECT_EQ(saved.encoder_config.dims, kPinDims);
  EXPECT_EQ(saved.encoder_config.levels, 16u);
  EXPECT_EQ(saved.encoder_config.window, 4u);
  EXPECT_EQ(saved.encoder_config.seed, 0x5EEDull);
  EXPECT_TRUE(saved.quantizer_fitted);
  EXPECT_EQ(saved.quantizer_lo, -1.5f);
  EXPECT_EQ(saved.quantizer_hi, 2.25f);
  expect_same_rows(saved.classifier, clf);
  expect_same_rows(deserialize_classifier(fixture[1].second), clf);

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(std::filesystem::path(dir) / "ckpt-00000003.gckp",
                    std::ios::binary);
    f.write(reinterpret_cast<const char*>(fixture[2].second.data()),
            static_cast<std::streamsize>(fixture[2].second.size()));
  }
  lifecycle::CheckpointStore store(dir, 1);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, kPinVersion);
  EXPECT_EQ(loaded->vt, kPinVt);
  expect_same_rows(loaded->model, clf);
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, ClassValuesPastTheNormRangeAreATypedError) {
  // An intact blob whose class values would overflow the int64 chunk and
  // full-model norms is rejected before any norm is computed. At 256 dims
  // the largest magnitude whose 256 squares fit is 189812531.
  auto at = [](std::int32_t value) {
    HdcClassifier clf = pinned_classifier();
    clf.edit_class_vector(
        1, [&](std::span<std::int32_t> row) { row[7] = value; });
    return serialize_classifier(clf);
  };
  const auto message = [](const std::vector<std::uint8_t>& blob) {
    try {
      (void)deserialize_classifier(blob);
      return std::string();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(message(at(189812531)), "");
  EXPECT_EQ(message(at(-189812531)), "");
  EXPECT_EQ(message(at(189812532)),
            "classifier blob class values out of range");
  EXPECT_EQ(message(at(std::numeric_limits<std::int32_t>::min())),
            "classifier blob class values out of range");
  EXPECT_EQ(message(at(std::numeric_limits<std::int32_t>::max())),
            "classifier blob class values out of range");
}

/// Whether `parse` rejects `blob` with a typed error. Anything else it
/// throws escapes and fails the test.
template <typename Parse>
bool rejects(const Parse& parse, std::span<const std::uint8_t> blob) {
  try {
    (void)parse(blob);
    return false;
  } catch (const std::invalid_argument&) {
    return true;
  }
}

TEST(ModelIo, EveryBitFlipAndTruncationIsATypedError) {
  // The parser corpus for the GHDC and GCLS blobs (the GCKP file is swept
  // through CheckpointStore in test_lifecycle): every single-bit flip and
  // every strict prefix of a valid blob is std::invalid_argument, never an
  // accepted model and never a crash.
  const HdcClassifier clf = pinned_classifier();
  enc::GenericEncoder encoder(pinned_encoder_config());
  encoder.fit_range(-1.5f, 2.25f);
  const auto parse_model = [](std::span<const std::uint8_t> b) {
    return deserialize_model(b);
  };
  const auto parse_classifier = [](std::span<const std::uint8_t> b) {
    return deserialize_classifier(b);
  };
  const auto sweep = [](auto parse, std::vector<std::uint8_t> blob,
                        const char* name) {
    ASSERT_FALSE(rejects(parse, blob)) << name;
    for (std::size_t i = 0; i < blob.size(); ++i)
      for (int bit = 0; bit < 8; ++bit) {
        blob[i] ^= static_cast<std::uint8_t>(1u << bit);
        ASSERT_TRUE(rejects(parse, blob))
            << name << " accepted a flip of byte " << i << " bit " << bit;
        blob[i] ^= static_cast<std::uint8_t>(1u << bit);
      }
    for (std::size_t len = 0; len < blob.size(); ++len)
      ASSERT_TRUE(rejects(parse, std::span(blob).first(len)))
          << name << " accepted a truncation to " << len << " bytes";
  };
  sweep(parse_model, serialize_model(encoder, clf), "GHDC");
  sweep(parse_classifier, serialize_classifier(clf), "GCLS");
}

}  // namespace
}  // namespace generic::model
