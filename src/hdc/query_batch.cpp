#include "hdc/query_batch.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace generic::hdc {
namespace {

using kernels::QueryWidth;

/// Truncate each of `n` rows to T into `base` (one row per `stride`
/// bytes), measuring max |v| as it goes. Returns false, leaving `max_abs`
/// meaningless, as soon as a row holds a value past `limit`.
template <typename T, typename RowAt>
bool pack_rows(std::size_t n, std::size_t dims, const RowAt& row_at,
               std::byte* base, std::size_t stride, std::int64_t limit,
               std::int64_t& max_abs) {
  max_abs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t* src = row_at(i).data();
    T* dst = reinterpret_cast<T*>(base + i * stride);
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    for (std::size_t j = 0; j < dims; ++j) {
      lo = std::min(lo, src[j]);
      hi = std::max(hi, src[j]);
      dst[j] = static_cast<T>(src[j]);
    }
    const std::int64_t m = std::max(-static_cast<std::int64_t>(lo),
                                    static_cast<std::int64_t>(hi));
    if (m > limit) return false;
    max_abs = std::max(max_abs, m);
  }
  return true;
}

template <typename T>
void add_row(const void* row, std::span<std::int32_t> dst, int sign) {
  const T* src = static_cast<const T*>(row);
  for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += sign * src[j];
}

}  // namespace

QueryBatch::QueryBatch(std::span<const IntHV> rows, std::size_t dims)
    : dims_(dims) {
  pack(rows.size(), [&](std::size_t i) -> const IntHV& { return rows[i]; });
}

QueryBatch::QueryBatch(std::span<const IntHV* const> rows, std::size_t dims)
    : dims_(dims) {
  pack(rows.size(), [&](std::size_t i) -> const IntHV& { return *rows[i]; });
}

template <typename RowAt>
void QueryBatch::pack(std::size_t n, const RowAt& row_at) {
  for (std::size_t i = 0; i < n; ++i)
    if (row_at(i).size() < dims_)
      throw std::invalid_argument("QueryBatch: row shorter than dims");
  // Narrowest first: a row past a width's range stops that pass, and the
  // next width packs again from the first row.
  for (const QueryWidth width :
       {QueryWidth::kInt8, QueryWidth::kInt16, QueryWidth::kInt32}) {
    const std::size_t bytes = dims_ * static_cast<std::size_t>(width);
    const std::size_t stride = (bytes + kRowAlign - 1) / kRowAlign * kRowAlign;
    width_ = width;
    // Plain new[] aligned by hand: glibc then hands a refit a block like
    // the one the last fit freed, where an aligned new's padded blocks
    // grew the heap of a refitting loop by 1-2 batches.
    data_.reset();
    data_.reset(new std::byte[n * stride + kRowAlign - 1]);
    const auto addr = reinterpret_cast<std::uintptr_t>(data_.get());
    std::byte* base = data_.get() + (kRowAlign - addr % kRowAlign) % kRowAlign;
    bool fits = false;
    switch (width) {
      case QueryWidth::kInt8:
        fits = pack_rows<std::int8_t>(n, dims_, row_at, base, stride, 127,
                                      max_abs_);
        break;
      case QueryWidth::kInt16:
        fits = pack_rows<std::int16_t>(n, dims_, row_at, base, stride, 32767,
                                       max_abs_);
        break;
      case QueryWidth::kInt32:
        fits = pack_rows<std::int32_t>(n, dims_, row_at, base, stride,
                                       std::numeric_limits<std::int64_t>::max(),
                                       max_abs_);
        break;
    }
    if (!fits) continue;
    rows_.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows_[i] = base + i * stride;
    return;
  }
}

void QueryBatch::add_into(std::size_t i, std::span<std::int32_t> dst,
                          int sign) const {
  if (dst.size() != dims_)
    throw std::invalid_argument("QueryBatch::add_into: size mismatch");
  switch (width_) {
    case QueryWidth::kInt8: return add_row<std::int8_t>(row(i), dst, sign);
    case QueryWidth::kInt16: return add_row<std::int16_t>(row(i), dst, sign);
    case QueryWidth::kInt32: return add_row<std::int32_t>(row(i), dst, sign);
  }
}

}  // namespace generic::hdc
