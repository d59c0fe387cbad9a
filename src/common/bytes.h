// Little-endian byte codec shared by every binary format that crosses a
// trust boundary: the GHDC/GCLS model blobs (model/model_io.h), the GCKP
// checkpoints (lifecycle/checkpoint_store.h) and the fleet's wire frames
// (net/protocol.h). Fields are copied with memcpy in host order, which is
// little-endian on every supported host, so no access depends on the
// alignment of a buffer offset.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace generic {

static_assert(std::endian::native == std::endian::little,
              "the byte formats assume a little-endian host");

/// Append `value`'s bytes to `out`.
template <typename T>
  requires std::is_arithmetic_v<T>
void append_le(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// The `T` stored at `p` (which must hold sizeof(T) readable bytes).
template <typename T>
  requires std::is_arithmetic_v<T>
T load_le(const std::uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// Bounds-checked sequential reader. A read that would run past the end
/// returns false and consumes nothing; callers turn that into their own
/// typed error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  template <typename T>
    requires std::is_arithmetic_v<T>
  [[nodiscard]] bool read(T& out) {
    if (remaining() < sizeof(T)) return false;
    out = load_le<T>(buf_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  /// Fill `row` with one memcpy.
  [[nodiscard]] bool read(std::span<std::int32_t> row) {
    if (remaining() < row.size_bytes()) return false;
    std::memcpy(row.data(), buf_.data() + pos_, row.size_bytes());
    pos_ += row.size_bytes();
    return true;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }
  /// The bytes not read yet.
  std::span<const std::uint8_t> rest() const { return buf_.subspan(pos_); }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace generic
