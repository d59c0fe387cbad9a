// A contiguous batch of encoded queries at the narrowest exact width
// (docs/kernels.md, "The query side"): the one place queries are narrowed.
//
// Encoded GENERIC queries are small integers (every Table-1 encoding fits
// int8 at 4096 dims), yet an IntHV stores each as int32 in its own heap
// allocation. A QueryBatch packs a set of them once into one allocation:
// rows × dims of int8 when every |q| <= 127, of int16 when every
// |q| <= 32767, and of int32 otherwise, each row starting on a 64-byte
// boundary. The max |q| measured while packing travels with the rows, so a
// dot tile over them (view()) reads 1 or 2 bytes per value and needs no
// per-call pack or measurement, and retraining adds a row straight into
// int32 class memory (add_into). The values are the IntHVs' exactly:
// every score and every update is the one the int32 rows would give.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/hypervector.h"
#include "hdc/kernels.h"

namespace generic::hdc {

class QueryBatch {
 public:
  /// Byte alignment of every packed row.
  static constexpr std::size_t kRowAlign = 64;

  QueryBatch() = default;
  /// Pack the first `dims` values of each of `rows` (std::invalid_argument
  /// for a shorter row): whole rows, or the prefix that a dot tile over
  /// runs ending by `dims` reads. A caller that needs every row exactly
  /// `dims` long checks that itself.
  QueryBatch(std::span<const IntHV> rows, std::size_t dims);
  /// Pack the rows `rows` point at, so a caller can batch rows of a table
  /// it owns without copying them first.
  QueryBatch(std::span<const IntHV* const> rows, std::size_t dims);

  std::size_t size() const { return rows_.size(); }
  std::size_t dims() const { return dims_; }
  kernels::QueryWidth width() const { return width_; }
  /// max |q| over every value of every row.
  std::int64_t max_abs() const { return max_abs_; }

  /// Row `i` (< size()): dims() values of width().
  const void* row(std::size_t i) const { return rows_[i]; }

  /// A dot tile's view of rows [begin, size()).
  kernels::QueryRows view(std::size_t begin = 0) const {
    return {rows_.data() + begin, width_, max_abs_};
  }

  /// dst[j] += sign * row(i)[j] for every j < dims(); `dst` holds dims()
  /// values. int32 arithmetic, as hdc::add_into.
  void add_into(std::size_t i, std::span<std::int32_t> dst, int sign) const;

 private:
  /// Pack rows row_at(0) .. row_at(n - 1) at the narrowest exact width.
  template <typename RowAt>
  void pack(std::size_t n, const RowAt& row_at);

  std::vector<const void*> rows_;  ///< into data_
  std::unique_ptr<std::byte[]> data_;  ///< the packed rows
  std::size_t dims_ = 0;
  kernels::QueryWidth width_ = kernels::QueryWidth::kInt8;
  std::int64_t max_abs_ = 0;
};

}  // namespace generic::hdc
