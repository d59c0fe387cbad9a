#include "model/model_io.h"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "arch/spec.h"

namespace generic::model {
namespace {

// Every multi-byte field is written and read with memcpy in host order, and
// the CRC loads its words the same way; the formats are little-endian.
static_assert(std::endian::native == std::endian::little,
              "model_io assumes a little-endian host");

constexpr std::array<std::uint8_t, 4> kMagic{'G', 'H', 'D', 'C'};
constexpr std::uint32_t kVersion = 1;

constexpr std::size_t kMaxLevels = arch::ArchConstants{}.levels;

constexpr std::array<std::uint8_t, 4> kClassifierMagic{'G', 'C', 'L', 'S'};
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

class Writer {
 public:
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }
  void put_row(std::span<const std::int32_t> row) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(row.data());
    buf_.insert(buf_.end(), p, p + row.size_bytes());
  }
  /// Append the CRC of everything written so far and hand the blob over.
  std::vector<std::uint8_t> seal() {
    put(crc32(buf_.data(), buf_.size()));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)), sizeof(T));
    return value;
  }
  void get_row(std::span<std::int32_t> row) {
    std::memcpy(row.data(), take(row.size_bytes()), row.size_bytes());
  }
  std::size_t position() const { return pos_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (buf_.size() - pos_ < n)
      throw std::invalid_argument("model blob truncated");
    const std::uint8_t* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Room for every header field and the footer of either format (82 bytes
/// for GHDC, the larger), so a writer sized with it never reallocates.
constexpr std::size_t kMaxFieldBytes = 128;

std::size_t blob_capacity(const HdcClassifier& classifier) {
  return kMaxFieldBytes +
         classifier.num_classes() * classifier.dims() * sizeof(std::int32_t);
}

void put_classifier(Writer& w, const HdcClassifier& classifier) {
  w.put(static_cast<std::uint64_t>(classifier.dims()));
  w.put(static_cast<std::uint64_t>(classifier.num_classes()));
  w.put(static_cast<std::uint64_t>(classifier.dims() /
                                   classifier.num_chunks()));
  w.put(static_cast<std::int32_t>(classifier.bit_width()));
  for (std::size_t c = 0; c < classifier.num_classes(); ++c)
    w.put_row(classifier.class_vector(c));
}

/// Check the size and CRC footer of a blob, then its magic and version.
/// Returns the CRC-covered length; `r` is left just past the version.
/// `what` names the format in every error message.
std::size_t open_blob(std::span<const std::uint8_t> blob, Reader& r,
                      const std::array<std::uint8_t, 4>& magic,
                      std::uint32_t supported, const std::string& what) {
  if (blob.size() < magic.size() + sizeof(std::uint32_t) * 2)
    throw std::invalid_argument(what + " too small");
  // Verify the CRC footer first.
  const std::size_t body = blob.size() - sizeof(std::uint32_t);
  std::uint32_t stored;
  std::memcpy(&stored, blob.data() + body, sizeof(stored));
  if (crc32(blob.data(), body) != stored)
    throw std::invalid_argument(what + " CRC mismatch");

  for (auto expected : magic)
    if (r.get<std::uint8_t>() != expected)
      throw std::invalid_argument(what + " bad magic");
  const std::uint32_t version = r.get<std::uint32_t>();
  // The CRC already passed, so a too-high version means an intact file from
  // a newer writer, not corruption — report it as such.
  if (version > supported) throw UnsupportedVersionError(version, supported);
  if (version != supported)
    throw std::invalid_argument(what + " unsupported version");
  return body;
}

/// Read the classifier section that ends a blob's body.
HdcClassifier get_classifier(Reader& r, std::size_t body,
                             const std::string& what) {
  const auto dims = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto classes = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto chunk = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto bit_width = r.get<std::int32_t>();
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
  if (want != body - r.position())
    throw std::invalid_argument(what + " payload size mismatch");

  HdcClassifier out(dims, classes, chunk);
  for (std::size_t c = 0; c < classes; ++c)
    out.edit_class_vector(
        c, [&](std::span<std::int32_t> row) { r.get_row(row); });
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

std::vector<std::uint8_t> serialize_model(const enc::Encoder& encoder,
                                          const HdcClassifier& classifier) {
  Writer w(blob_capacity(classifier));
  for (auto b : kMagic) w.put(b);
  w.put(kVersion);

  const auto& cfg = encoder.config();
  w.put(static_cast<std::uint64_t>(cfg.dims));
  w.put(static_cast<std::uint64_t>(cfg.levels));
  w.put(static_cast<std::uint64_t>(cfg.window));
  w.put(static_cast<std::uint8_t>(cfg.use_ids ? 1 : 0));
  w.put(static_cast<std::uint64_t>(cfg.seed));
  const auto& q = encoder.quantizer();
  w.put(static_cast<std::uint8_t>(q.fitted() ? 1 : 0));
  w.put(q.fitted() ? q.lo() : 0.0f);
  w.put(q.fitted() ? q.hi() : 1.0f);

  put_classifier(w, classifier);
  return w.seal();
}

SavedModel deserialize_model(std::span<const std::uint8_t> blob) {
  Reader r(blob);
  const std::size_t body = open_blob(blob, r, kMagic, kVersion, "model blob");

  SavedModel out;
  out.encoder_config.dims = r.get<std::uint64_t>();
  out.encoder_config.levels = r.get<std::uint64_t>();
  out.encoder_config.window = r.get<std::uint64_t>();
  out.encoder_config.use_ids = r.get<std::uint8_t>() != 0;
  out.encoder_config.seed = r.get<std::uint64_t>();
  out.quantizer_fitted = r.get<std::uint8_t>() != 0;
  out.quantizer_lo = r.get<float>();
  out.quantizer_hi = r.get<float>();
  const enc::EncoderConfig& e = out.encoder_config;
  if (e.window == 0)
    throw std::invalid_argument("model blob encoder window is 0");
  // The level memory holds ArchConstants::levels rows; more levels would
  // size a level table no GENERIC device can load.
  if (e.levels == 0 || e.levels > kMaxLevels)
    throw std::invalid_argument("model blob encoder levels outside [1, " +
                                std::to_string(kMaxLevels) + "]");
  out.classifier = get_classifier(r, body, "model blob");
  if (e.dims != out.classifier.dims())
    throw std::invalid_argument(
        "model blob encoder dims differ from classifier dims");
  return out;
}

std::vector<std::uint8_t> serialize_classifier(
    const HdcClassifier& classifier) {
  Writer w(blob_capacity(classifier));
  for (auto b : kClassifierMagic) w.put(b);
  w.put(kClassifierVersion);
  put_classifier(w, classifier);
  return w.seal();
}

HdcClassifier deserialize_classifier(std::span<const std::uint8_t> blob) {
  Reader r(blob);
  const std::size_t body = open_blob(blob, r, kClassifierMagic,
                                     kClassifierVersion, "classifier blob");
  return get_classifier(r, body, "classifier blob");
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
