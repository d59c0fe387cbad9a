#include "model/model_io.h"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace generic::model {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'G', 'H', 'D', 'C'};
constexpr std::uint32_t kVersion = 1;

constexpr std::array<std::uint8_t, 4> kClassifierMagic{'G', 'C', 'L', 'S'};
constexpr std::uint32_t kClassifierVersion = 1;

class Writer {
 public:
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) buf_.push_back(p[i]);
  }
  std::vector<std::uint8_t>& buffer() { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > buf_.size())
      throw std::invalid_argument("model blob truncated");
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  std::size_t position() const { return pos_; }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b)
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
  }
  return ~crc;
}

std::vector<std::uint8_t> serialize_model(const enc::Encoder& encoder,
                                          const HdcClassifier& classifier) {
  Writer w;
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

  w.put(static_cast<std::uint64_t>(classifier.dims()));
  w.put(static_cast<std::uint64_t>(classifier.num_classes()));
  w.put(static_cast<std::uint64_t>(classifier.dims() /
                                   classifier.num_chunks()));
  w.put(static_cast<std::int32_t>(classifier.bit_width()));
  for (std::size_t c = 0; c < classifier.num_classes(); ++c)
    for (std::int32_t v : classifier.class_vector(c)) w.put(v);

  const std::uint32_t crc = crc32(w.buffer().data(), w.buffer().size());
  w.put(crc);
  return std::move(w.buffer());
}

SavedModel deserialize_model(const std::vector<std::uint8_t>& blob) {
  if (blob.size() < kMagic.size() + sizeof(std::uint32_t) * 2)
    throw std::invalid_argument("model blob too small");
  // Verify the CRC footer first.
  const std::size_t body = blob.size() - sizeof(std::uint32_t);
  std::uint32_t stored;
  std::memcpy(&stored, blob.data() + body, sizeof(stored));
  if (crc32(blob.data(), body) != stored)
    throw std::invalid_argument("model blob CRC mismatch");

  Reader r(blob);
  for (auto expected : kMagic)
    if (r.get<std::uint8_t>() != expected)
      throw std::invalid_argument("model blob bad magic");
  const std::uint32_t version = r.get<std::uint32_t>();
  // The CRC already passed, so a too-high version means an intact file from
  // a newer writer, not corruption — report it as such.
  if (version > kVersion) throw UnsupportedVersionError(version, kVersion);
  if (version != kVersion)
    throw std::invalid_argument("model blob unsupported version");

  SavedModel out;
  out.encoder_config.dims = r.get<std::uint64_t>();
  out.encoder_config.levels = r.get<std::uint64_t>();
  out.encoder_config.window = r.get<std::uint64_t>();
  out.encoder_config.use_ids = r.get<std::uint8_t>() != 0;
  out.encoder_config.seed = r.get<std::uint64_t>();
  out.quantizer_fitted = r.get<std::uint8_t>() != 0;
  out.quantizer_lo = r.get<float>();
  out.quantizer_hi = r.get<float>();

  const auto dims = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto classes = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto chunk = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto bit_width = r.get<std::int32_t>();
  if (dims == 0 || classes == 0 || chunk == 0 || dims % chunk != 0)
    throw std::invalid_argument("model blob inconsistent geometry");
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument("model blob bad bit width");
  // Size the payload before allocating: a corrupt (or crafted) header must
  // not be able to demand an arbitrary allocation.
  if (dims > (1ULL << 26) || classes > (1ULL << 20))
    throw std::invalid_argument("model blob implausible geometry");
  const std::uint64_t want =
      static_cast<std::uint64_t>(dims) * classes * sizeof(std::int32_t);
  if (want != body - r.position())
    throw std::invalid_argument("model blob payload size mismatch");

  out.classifier = HdcClassifier(dims, classes, chunk);
  for (std::size_t c = 0; c < classes; ++c)
    out.classifier.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (auto& v : row) v = r.get<std::int32_t>();
    });
  out.classifier.set_bit_width(static_cast<int>(bit_width));
  out.classifier.recompute_norms();
  if (r.position() != body)
    throw std::invalid_argument("model blob trailing bytes");
  return out;
}

std::vector<std::uint8_t> serialize_classifier(
    const HdcClassifier& classifier) {
  Writer w;
  for (auto b : kClassifierMagic) w.put(b);
  w.put(kClassifierVersion);
  w.put(static_cast<std::uint64_t>(classifier.dims()));
  w.put(static_cast<std::uint64_t>(classifier.num_classes()));
  w.put(static_cast<std::uint64_t>(classifier.dims() /
                                   classifier.num_chunks()));
  w.put(static_cast<std::int32_t>(classifier.bit_width()));
  for (std::size_t c = 0; c < classifier.num_classes(); ++c)
    for (std::int32_t v : classifier.class_vector(c)) w.put(v);
  const std::uint32_t crc = crc32(w.buffer().data(), w.buffer().size());
  w.put(crc);
  return std::move(w.buffer());
}

HdcClassifier deserialize_classifier(const std::vector<std::uint8_t>& blob) {
  if (blob.size() < kClassifierMagic.size() + sizeof(std::uint32_t) * 2)
    throw std::invalid_argument("classifier blob too small");
  const std::size_t body = blob.size() - sizeof(std::uint32_t);
  std::uint32_t stored;
  std::memcpy(&stored, blob.data() + body, sizeof(stored));
  if (crc32(blob.data(), body) != stored)
    throw std::invalid_argument("classifier blob CRC mismatch");

  Reader r(blob);
  for (auto expected : kClassifierMagic)
    if (r.get<std::uint8_t>() != expected)
      throw std::invalid_argument("classifier blob bad magic");
  const std::uint32_t version = r.get<std::uint32_t>();
  if (version > kClassifierVersion)
    throw UnsupportedVersionError(version, kClassifierVersion);
  if (version != kClassifierVersion)
    throw std::invalid_argument("classifier blob unsupported version");

  const auto dims = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto classes = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto chunk = static_cast<std::size_t>(r.get<std::uint64_t>());
  const auto bit_width = r.get<std::int32_t>();
  if (dims == 0 || classes == 0 || chunk == 0 || dims % chunk != 0)
    throw std::invalid_argument("classifier blob inconsistent geometry");
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument("classifier blob bad bit width");
  if (dims > (1ULL << 26) || classes > (1ULL << 20))
    throw std::invalid_argument("classifier blob implausible geometry");
  const std::uint64_t want =
      static_cast<std::uint64_t>(dims) * classes * sizeof(std::int32_t);
  if (want != body - r.position())
    throw std::invalid_argument("classifier blob payload size mismatch");

  HdcClassifier out(dims, classes, chunk);
  for (std::size_t c = 0; c < classes; ++c)
    out.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (auto& v : row) v = r.get<std::int32_t>();
    });
  out.set_bit_width(static_cast<int>(bit_width));
  out.recompute_norms();
  if (r.position() != body)
    throw std::invalid_argument("classifier blob trailing bytes");
  return out;
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
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(f)),
                                 std::istreambuf_iterator<char>());
  return deserialize_model(blob);
}

}  // namespace generic::model
