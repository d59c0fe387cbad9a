#include "model/model_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "arch/spec.h"

namespace generic::model {
namespace {

constexpr std::string_view kMagic = "GHDC";
constexpr std::uint32_t kVersion = 1;

constexpr std::size_t kMaxLevels = arch::ArchConstants{}.levels;

constexpr std::string_view kClassifierMagic = "GCLS";
constexpr std::uint32_t kClassifierVersion = 1;

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial: kCrcTables[0]
/// is the classic byte table, and kCrcTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight lookups advance the CRC by 8 bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Room for every header field and the footer of either format (82 bytes
/// for GHDC, the larger), so a blob sized with it never reallocates.
constexpr std::size_t kMaxFieldBytes = 128;

std::size_t blob_capacity(const HdcClassifier& classifier) {
  return kMaxFieldBytes +
         classifier.num_classes() * classifier.dims() * sizeof(std::int32_t);
}

void put_classifier(std::vector<std::uint8_t>& buf,
                    const HdcClassifier& classifier) {
  append_le(buf, static_cast<std::uint64_t>(classifier.dims()));
  append_le(buf, static_cast<std::uint64_t>(classifier.num_classes()));
  append_le(buf, static_cast<std::uint64_t>(classifier.dims() /
                                            classifier.num_chunks()));
  append_le(buf, static_cast<std::int32_t>(classifier.bit_width()));
  for (std::size_t c = 0; c < classifier.num_classes(); ++c) {
    const auto& row = classifier.class_vector(c);
    const auto* p = reinterpret_cast<const std::uint8_t*>(row.data());
    buf.insert(buf.end(), p, p + row.size() * sizeof(std::int32_t));
  }
}

/// The next field of a `what` blob; running out of bytes is truncation.
template <typename T>
T field(ByteReader& r, const std::string& what) {
  T value{};
  if (!r.read(value)) throw std::invalid_argument(what + " truncated");
  return value;
}

/// Read the classifier section that ends a blob's body.
HdcClassifier get_classifier(ByteReader& r, const std::string& what) {
  const auto dims = static_cast<std::size_t>(field<std::uint64_t>(r, what));
  const auto classes = static_cast<std::size_t>(field<std::uint64_t>(r, what));
  const auto chunk = static_cast<std::size_t>(field<std::uint64_t>(r, what));
  const auto bit_width = field<std::int32_t>(r, what);
  if (dims == 0 || classes == 0 || chunk == 0 || dims % chunk != 0)
    throw std::invalid_argument(what + " inconsistent geometry");
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument(what + " bad bit width");
  // Size the payload before allocating: a corrupt (or crafted) header must
  // not be able to demand an arbitrary allocation.
  if (dims > (1ULL << 26) || classes > (1ULL << 20))
    throw std::invalid_argument(what + " implausible geometry");
  const std::uint64_t want =
      static_cast<std::uint64_t>(dims) * classes * sizeof(std::int32_t);
  if (want != r.remaining())
    throw std::invalid_argument(what + " payload size mismatch");

  HdcClassifier out(dims, classes, chunk);
  // Every row read succeeds: the payload size matched above.
  for (std::size_t c = 0; c < classes; ++c)
    out.edit_class_vector(
        c, [&](std::span<std::int32_t> row) { (void)r.read(row); });
  // Every norm is a sum of at most `dims` squares in int64; values that
  // could overflow it come only from a crafted or damaged blob.
  const std::int64_t max_abs = out.class_max_abs();
  if (max_abs * max_abs > std::numeric_limits<std::int64_t>::max() /
                              static_cast<std::int64_t>(dims))
    throw std::invalid_argument(what + " class values out of range");
  out.set_bit_width(static_cast<int>(bit_width));
  out.recompute_norms();
  return out;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, sizeof(w));
    w ^= crc;
    crc = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
          t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
          t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; i < size; ++i) crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

std::vector<std::uint8_t> start_sealed(std::string_view magic,
                                       std::uint32_t version,
                                       std::size_t capacity) {
  std::vector<std::uint8_t> buf;
  buf.reserve(capacity);
  buf.insert(buf.end(), magic.begin(), magic.end());
  append_le(buf, version);
  return buf;
}

void seal(std::vector<std::uint8_t>& buf) {
  append_le(buf, crc32(buf.data(), buf.size()));
}

ByteReader open_sealed(std::span<const std::uint8_t> bytes,
                       std::string_view magic,
                       std::uint32_t supported_version,
                       const std::string& what) {
  if (bytes.size() < magic.size() + sizeof(std::uint32_t) * 2)
    throw std::invalid_argument(what + " too small");
  // Verify the CRC footer first.
  const auto body = bytes.first(bytes.size() - sizeof(std::uint32_t));
  if (crc32(body.data(), body.size()) !=
      load_le<std::uint32_t>(body.data() + body.size()))
    throw std::invalid_argument(what + " CRC mismatch");

  if (!std::equal(magic.begin(), magic.end(), body.begin()))
    throw std::invalid_argument(what + " bad magic");
  const auto version = load_le<std::uint32_t>(body.data() + magic.size());
  // The CRC already passed, so a too-high version means an intact file from
  // a newer writer, not corruption — report it as such.
  if (version > supported_version)
    throw UnsupportedVersionError(version, supported_version);
  if (version != supported_version)
    throw std::invalid_argument(what + " unsupported version");
  return ByteReader(body.subspan(magic.size() + sizeof(version)));
}

std::vector<std::uint8_t> serialize_model(const enc::Encoder& encoder,
                                          const HdcClassifier& classifier) {
  auto buf = start_sealed(kMagic, kVersion, blob_capacity(classifier));
  const auto& cfg = encoder.config();
  append_le(buf, static_cast<std::uint64_t>(cfg.dims));
  append_le(buf, static_cast<std::uint64_t>(cfg.levels));
  append_le(buf, static_cast<std::uint64_t>(cfg.window));
  append_le(buf, static_cast<std::uint8_t>(cfg.use_ids ? 1 : 0));
  append_le(buf, static_cast<std::uint64_t>(cfg.seed));
  const auto& q = encoder.quantizer();
  append_le(buf, static_cast<std::uint8_t>(q.fitted() ? 1 : 0));
  append_le(buf, q.fitted() ? q.lo() : 0.0f);
  append_le(buf, q.fitted() ? q.hi() : 1.0f);

  put_classifier(buf, classifier);
  seal(buf);
  return buf;
}

SavedModel deserialize_model(std::span<const std::uint8_t> blob) {
  const std::string what = "model blob";
  ByteReader r = open_sealed(blob, kMagic, kVersion, what);

  SavedModel out;
  enc::EncoderConfig& e = out.encoder_config;
  e.dims = field<std::uint64_t>(r, what);
  e.levels = field<std::uint64_t>(r, what);
  e.window = field<std::uint64_t>(r, what);
  e.use_ids = field<std::uint8_t>(r, what) != 0;
  e.seed = field<std::uint64_t>(r, what);
  out.quantizer_fitted = field<std::uint8_t>(r, what) != 0;
  out.quantizer_lo = field<float>(r, what);
  out.quantizer_hi = field<float>(r, what);
  if (e.window == 0)
    throw std::invalid_argument("model blob encoder window is 0");
  // The level memory holds ArchConstants::levels rows; more levels would
  // size a level table no GENERIC device can load.
  if (e.levels == 0 || e.levels > kMaxLevels)
    throw std::invalid_argument("model blob encoder levels outside [1, " +
                                std::to_string(kMaxLevels) + "]");
  // An infinite, NaN, reversed or wider-than-FLT_MAX range would put every
  // feature in one bin. A finite width with lo <= hi rules out all four.
  if (out.quantizer_fitted &&
      !(out.quantizer_lo <= out.quantizer_hi &&
        std::isfinite(out.quantizer_hi - out.quantizer_lo)))
    throw std::invalid_argument(
        "model blob quantizer range is not finite with lo <= hi");
  out.classifier = get_classifier(r, what);
  if (e.dims != out.classifier.dims())
    throw std::invalid_argument(
        "model blob encoder dims differ from classifier dims");
  return out;
}

std::vector<std::uint8_t> serialize_classifier(
    const HdcClassifier& classifier) {
  auto buf = start_sealed(kClassifierMagic, kClassifierVersion,
                          blob_capacity(classifier));
  put_classifier(buf, classifier);
  seal(buf);
  return buf;
}

HdcClassifier deserialize_classifier(std::span<const std::uint8_t> blob) {
  const std::string what = "classifier blob";
  ByteReader r = open_sealed(blob, kClassifierMagic, kClassifierVersion, what);
  return get_classifier(r, what);
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  // file_size fails for anything but a regular file (a directory, a
  // device), so no bogus size is ever allocated.
  std::error_code ec;
  const auto size = static_cast<std::streamsize>(
      std::filesystem::file_size(path, ec));
  std::ifstream f(path, std::ios::binary);
  if (ec || !f) return std::nullopt;
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(buf.data()), size);
  if (f.gcount() != size) return std::nullopt;
  return buf;
}

void save_model_file(const std::string& path, const enc::Encoder& encoder,
                     const HdcClassifier& classifier) {
  const auto blob = serialize_model(encoder, classifier);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

SavedModel load_model_file(const std::string& path) {
  const auto blob = read_file_bytes(path);
  if (!blob) throw std::runtime_error("cannot open for reading: " + path);
  return deserialize_model(*blob);
}

}  // namespace generic::model
