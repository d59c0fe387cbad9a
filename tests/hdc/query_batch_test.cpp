// hdc::QueryBatch: the narrowest exact width, aligned rows, the bound
// measured while packing, and row adds equal to hdc::add_into.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "hdc/hypervector.h"
#include "hdc/query_batch.h"

namespace generic::hdc {
namespace {

using kernels::QueryWidth;

/// Rows of `dims` values cycling through -peak .. peak.
std::vector<IntHV> rows_up_to(std::int32_t peak, std::size_t n,
                              std::size_t dims) {
  std::vector<IntHV> rows(n, IntHV(dims));
  std::int64_t v = 0;
  for (auto& row : rows)
    for (auto& x : row) {
      x = static_cast<std::int32_t>(v % (2 * std::int64_t{peak} + 1) - peak);
      v += 7919;
    }
  return rows;
}

TEST(QueryBatch, PacksAtTheNarrowestWidthThatHoldsEveryValue) {
  struct Case {
    std::int32_t peak;
    QueryWidth width;
  };
  for (const Case cs : {Case{0, QueryWidth::kInt8}, Case{127, QueryWidth::kInt8},
                        Case{128, QueryWidth::kInt16},
                        Case{32767, QueryWidth::kInt16},
                        Case{32768, QueryWidth::kInt32},
                        Case{std::numeric_limits<std::int32_t>::max(),
                             QueryWidth::kInt32}}) {
    // The peak sits in the last row, so a narrower pass gets far before it
    // has to start again.
    std::vector<IntHV> rows = rows_up_to(std::min(cs.peak, 100), 5, 300);
    rows.back()[299] = -cs.peak;
    const QueryBatch batch(rows, 300);
    EXPECT_EQ(batch.width(), cs.width) << "peak=" << cs.peak;
    EXPECT_EQ(batch.max_abs(), cs.peak) << "peak=" << cs.peak;
    ASSERT_EQ(batch.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.row(i)) %
                    QueryBatch::kRowAlign,
                0u);
      // A row added into zeros reads back the IntHV, at either sign.
      IntHV plus(300, 0);
      IntHV minus(300, 0);
      batch.add_into(i, plus, +1);
      batch.add_into(i, minus, -1);
      EXPECT_EQ(plus, rows[i]) << "peak=" << cs.peak << " row " << i;
      IntHV want(300, 0);
      add_into(want, rows[i], -1);
      EXPECT_EQ(minus, want) << "peak=" << cs.peak << " row " << i;
    }
  }
}

TEST(QueryBatch, PointerFormPacksTheRowsItPointsAt) {
  const std::vector<IntHV> rows = rows_up_to(90, 6, 128);
  const std::vector<const IntHV*> picked = {&rows[4], &rows[1], &rows[4]};
  const QueryBatch batch(picked, 128);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.width(), QueryWidth::kInt8);
  for (std::size_t i = 0; i < picked.size(); ++i) {
    IntHV got(128, 0);
    batch.add_into(i, got, +1);
    EXPECT_EQ(got, *picked[i]) << "row " << i;
  }
}

TEST(QueryBatch, ViewCarriesTheRowsWidthAndBound) {
  const std::vector<IntHV> rows = rows_up_to(300, 3, 64);
  const QueryBatch batch(rows, 64);
  const kernels::QueryRows view = batch.view(1);
  EXPECT_EQ(view.rows[0], batch.row(1));
  EXPECT_EQ(view.rows[1], batch.row(2));
  EXPECT_EQ(view.width, QueryWidth::kInt16);
  EXPECT_EQ(view.max_abs, 300);
}

TEST(QueryBatch, PacksThePrefixOfLongerRows) {
  // A scan over a chunk prefix packs only the dims it reads: the width and
  // the bound come from those values alone.
  std::vector<IntHV> rows = rows_up_to(100, 2, 128);
  rows[1][64] = 40000;
  std::int64_t want_max = 0;
  for (const IntHV& row : rows)
    for (std::size_t j = 0; j < 64; ++j)
      want_max = std::max<std::int64_t>(want_max, std::abs(row[j]));
  const QueryBatch batch(rows, 64);
  EXPECT_EQ(batch.dims(), 64u);
  EXPECT_EQ(batch.width(), QueryWidth::kInt8);
  EXPECT_EQ(batch.max_abs(), want_max);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    IntHV got(64, 0);
    batch.add_into(i, got, +1);
    EXPECT_EQ(got, IntHV(rows[i].begin(), rows[i].begin() + 64));
  }
}

TEST(QueryBatch, RejectsRowsOfTheWrongLength) {
  std::vector<IntHV> rows = rows_up_to(5, 3, 128);
  rows[1].pop_back();
  EXPECT_THROW(QueryBatch(rows, 128), std::invalid_argument);
  const QueryBatch batch(rows_up_to(5, 1, 128), 128);
  IntHV short_row(127, 0);
  EXPECT_THROW(batch.add_into(0, short_row, +1), std::invalid_argument);
  const QueryBatch empty(std::vector<IntHV>{}, 128);
  EXPECT_EQ(empty.size(), 0u);
}

}  // namespace
}  // namespace generic::hdc
