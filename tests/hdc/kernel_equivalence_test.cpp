// Differential equivalence suite for the runtime-dispatched kernels
// (hdc/kernels.h): every compiled backend must be BYTE-IDENTICAL to the
// scalar reference — same dot tiles, same window bundles — across ragged
// run lists, operand ranges, rotations and window counts.
// This is the contract that lets golden `generic.*.v1` fixtures stay
// byte-stable no matter which backend dispatch picks (docs/kernels.md).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"

namespace generic::hdc {
namespace {

namespace k = kernels;

using test::BackendGuard;

std::vector<k::Backend> simd_backends() {
  std::vector<k::Backend> out = test::available_backends();
  out.erase(out.begin());  // scalar
  return out;
}

// ---- Query x class dot tile -------------------------------------------------

/// Rows of `dims` int32 values drawn uniformly from [-bound, bound].
std::vector<std::vector<std::int32_t>> random_rows(std::size_t n,
                                                   std::size_t dims,
                                                   std::int64_t bound,
                                                   Rng& rng) {
  std::vector<std::vector<std::int32_t>> rows(
      n, std::vector<std::int32_t>(dims));
  for (auto& row : rows)
    for (auto& v : row) v = static_cast<std::int32_t>(rng.range(-bound, bound));
  return rows;
}

std::vector<const std::int32_t*> pointers(
    const std::vector<std::vector<std::int32_t>>& rows) {
  std::vector<const std::int32_t*> out;
  for (const auto& r : rows) out.push_back(r.data());
  return out;
}

/// Class rows stored as int16 the way a caller supplies them to the tile:
/// each value truncated, at its own offset, with a bound on |v|.
struct Int16Rows {
  std::vector<std::vector<std::int16_t>> rows;
  std::int64_t max_abs = 0;
};

/// The exact int16 copy of `c` and its true max |c|.
Int16Rows int16_copy(const std::vector<std::vector<std::int32_t>>& c) {
  Int16Rows out;
  for (const auto& row : c) {
    out.rows.emplace_back(row.begin(), row.end());  // truncates past int16
    for (std::int32_t v : row)
      out.max_abs = std::max(out.max_abs, std::abs(std::int64_t{v}));
  }
  return out;
}

/// max |q| over every value of `q`.
std::int64_t max_abs(const std::vector<std::vector<std::int32_t>>& q) {
  std::int64_t m = 0;
  for (const auto& row : q)
    for (std::int32_t v : row) m = std::max(m, std::abs(std::int64_t{v}));
  return m;
}

/// The query widths `q` fits exactly: int32 always, int16 and int8 when
/// every value is in range.
std::vector<k::QueryWidth> widths_for(
    const std::vector<std::vector<std::int32_t>>& q) {
  std::vector<k::QueryWidth> out = {k::QueryWidth::kInt32};
  const std::int64_t m = max_abs(q);
  if (m <= 32767) out.push_back(k::QueryWidth::kInt16);
  if (m <= 127) out.push_back(k::QueryWidth::kInt8);
  return out;
}

/// `q` stored at `width` (values truncated; widths_for() says which fit),
/// and the tile's view of it, carrying max |q| as a narrow view must.
struct QueryView {
  std::vector<std::vector<std::int8_t>> i8;
  std::vector<std::vector<std::int16_t>> i16;
  std::vector<const void*> ptrs;
  k::QueryRows rows;
};

QueryView query_view(const std::vector<std::vector<std::int32_t>>& q,
                     k::QueryWidth width) {
  QueryView v;
  for (const auto& row : q) {
    if (width == k::QueryWidth::kInt8) {
      v.ptrs.push_back(v.i8.emplace_back(row.begin(), row.end()).data());
    } else if (width == k::QueryWidth::kInt16) {
      v.ptrs.push_back(v.i16.emplace_back(row.begin(), row.end()).data());
    } else {
      v.ptrs.push_back(row.data());
    }
  }
  v.rows = {v.ptrs.data(), width, max_abs(q)};
  return v;
}

std::string width_name(k::QueryWidth width) {
  return "int" + std::to_string(8 * static_cast<int>(width)) + " queries";
}

/// The AMX operand of the int16 rows `narrow` (as they are, so a poisoned
/// copy poisons it too), over rows of `dims` values.
k::AmxOperand amx_copy(const Int16Rows& narrow, std::size_t dims) {
  k::AmxOperand op(narrow.rows.size(), dims);
  for (std::size_t c = 0; c < narrow.rows.size(); ++c) {
    const std::vector<std::int32_t> row(narrow.rows[c].begin(),
                                        narrow.rows[c].end());
    op.set_row(c, row);
  }
  return op;
}

/// One table's tile over the runs, as a flat q * nc + c vector; the query
/// side is `q` at `width`, and the class side carries `narrow` as its
/// int16 rows and its AMX operand when given.
std::vector<std::int64_t> tile(const k::Kernels& table,
                               const std::vector<std::vector<std::int32_t>>& q,
                               const std::vector<std::vector<std::int32_t>>& c,
                               const std::vector<k::DimRun>& runs,
                               const Int16Rows* narrow = nullptr,
                               k::QueryWidth width = k::QueryWidth::kInt32) {
  const QueryView qv = query_view(q, width);
  const auto cp = pointers(c);
  std::vector<const std::int16_t*> np;
  k::AmxOperand amx;
  if (narrow != nullptr) {
    for (const auto& r : narrow->rows) np.push_back(r.data());
    amx = amx_copy(*narrow, c.empty() ? 0 : c[0].size());
  }
  const k::ClassRows cls{cp.data(), c.size(),
                         narrow != nullptr ? np.data() : nullptr,
                         narrow != nullptr ? narrow->max_abs : 0, amx.data()};
  // Pre-filled so a backend that skips an output cannot pass by accident.
  std::vector<std::int64_t> out(q.size() * c.size(), 0x5EED);
  table.dot_tile(qv.rows, q.size(), cls, runs.data(), runs.size(),
                 out.data());
  return out;
}

/// The exact sum in 128-bit arithmetic, for checking the reference itself.
std::vector<__int128> exact_tile(
    const std::vector<std::vector<std::int32_t>>& q,
    const std::vector<std::vector<std::int32_t>>& c,
    const std::vector<k::DimRun>& runs) {
  std::vector<__int128> out;
  for (const auto& qr : q)
    for (const auto& cr : c) {
      __int128 acc = 0;
      for (const auto& r : runs)
        for (std::size_t j = r.begin; j < r.end; ++j)
          acc += static_cast<__int128>(qr[j]) * cr[j];
      out.push_back(acc);
    }
  return out;
}

/// Every available backend's tile equals scalar, and scalar equals the
/// exact sum (which the operands keep inside int64) — for the queries at
/// every width they fit (int32, int16, int8), each with the class rows
/// alone (the int32 path) and with their exact int16 copy supplied (the
/// int16 path wherever the bounds admit it).
void expect_tiles_exact(const std::vector<std::vector<std::int32_t>>& q,
                        const std::vector<std::vector<std::int32_t>>& c,
                        const std::vector<k::DimRun>& runs,
                        const std::string& what) {
  const auto want = tile(k::get(k::Backend::kScalar), q, c, runs);
  const auto exact = exact_tile(q, c, runs);
  ASSERT_EQ(want.size(), exact.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(static_cast<__int128>(want[i]), exact[i]) << what << " i=" << i;
  const Int16Rows narrow = int16_copy(c);
  for (k::QueryWidth width : widths_for(q))
    for (k::Backend b : test::available_backends()) {
      const std::string where = std::string(k::to_string(b)) + " " +
                                width_name(width) + " " + what;
      EXPECT_EQ(tile(k::get(b), q, c, runs, nullptr, width), want) << where;
      EXPECT_EQ(tile(k::get(b), q, c, runs, &narrow, width), want)
          << "int16 rows " << where;
    }
}

/// Full, prefix, holed and single-chunk run lists over 1024 dims (eight
/// 128-dim chunks), plus ragged runs that start and end off vector width.
const std::vector<std::pair<const char*, std::vector<k::DimRun>>>&
run_lists() {
  static const std::vector<std::pair<const char*, std::vector<k::DimRun>>>
      lists = {
          {"full", {{0, 1024}}},
          {"prefix", {{0, 512}}},
          {"holed", {{0, 128}, {256, 640}, {768, 1024}}},
          {"single", {{896, 1024}}},
          {"ragged", {{3, 70}, {101, 102}, {130, 333}, {1000, 1024}}},
          {"chunk100", {{0, 100}, {200, 300}, {300, 400}, {900, 1000}}},
          {"empty", {}},
      };
  return lists;
}

TEST(KernelEquivalence, DotTileMatchesScalarAcrossShapes) {
  Rng rng(0x7113);
  std::vector<std::size_t> query_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 33};
  // Serving magnitudes (int8 queries, the narrow path), int16 queries
  // (|q| past 127) and wide ones (the int32 path).
  for (const std::int64_t bound :
       {std::int64_t{60}, std::int64_t{3000}, std::int64_t{1} << 20}) {
    for (std::size_t nc : {std::size_t{1}, std::size_t{2}, std::size_t{26}}) {
      const auto classes = random_rows(nc, 1024, bound * 50, rng);
      for (std::size_t nq : query_counts) {
        const auto queries = random_rows(nq, 1024, bound, rng);
        for (const auto& [name, runs] : run_lists())
          expect_tiles_exact(queries, classes, runs,
                             std::string(name) + " nq=" + std::to_string(nq) +
                                 " nc=" + std::to_string(nc) +
                                 " bound=" + std::to_string(bound));
      }
    }
  }
}

TEST(KernelEquivalence, DotTileExtremeInt32OperandsStayExact) {
  // INT32_MIN / INT32_MAX cannot be narrowed, so every backend must take
  // the int32 path, for any query count. Each aligned pair of products
  // nearly cancels, so the exact sums stay inside int64.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::size_t kDims = 256;
  std::vector<std::vector<std::int32_t>> q(5,
                                           std::vector<std::int32_t>(kDims));
  std::vector<std::vector<std::int32_t>> c(3,
                                           std::vector<std::int32_t>(kDims));
  for (std::size_t j = 0; j < kDims; ++j) {
    for (std::size_t i = 0; i < q.size(); ++i)
      q[i][j] = (j + i) % 2 == 0 ? kMin : kMax;
    c[0][j] = kMin;
    c[1][j] = (j / 2) % 2 == 0 ? kMin : kMax;
    c[2][j] = kMax;
  }
  for (const std::vector<k::DimRun>& runs :
       {std::vector<k::DimRun>{{0, kDims}}, std::vector<k::DimRun>{{0, 3}},
        std::vector<k::DimRun>{{0, 2}, {2, 40}, {64, 130}}})
    expect_tiles_exact(q, c, runs, "extreme");
  // Past int64 the sum wraps, identically on every backend: 256 products
  // of 2^62 are 2^70, which is 0 modulo 2^64.
  const std::vector<std::vector<std::int32_t>> all_min(
      5, std::vector<std::int32_t>(kDims, kMin));
  const std::vector<k::DimRun> all = {{0, kDims}};
  const auto want = tile(k::get(k::Backend::kScalar), all_min, all_min, all);
  EXPECT_EQ(want, std::vector<std::int64_t>(25, 0));
  for (k::Backend b : simd_backends())
    EXPECT_EQ(tile(k::get(b), all_min, all_min, all), want)
        << k::to_string(b);
}

TEST(KernelEquivalence, DotTileExactAtAndPastTheInt16Bound) {
  // All operands at one magnitude and one sign drive every int32 lane of
  // the narrow path to the largest sum the bound admits before widening.
  struct Case {
    std::int32_t q, c;
    std::size_t dims;
  };
  const Case cases[] = {
      {32767, 32767, 256},    // at the int16 limit: widen every madd
      {-32767, 32767, 256},   // same magnitude, negative sums
      {32768, 32767, 256},    // one past: the int32 path
      {32767, -32768, 256},   // one past on the class side
      {1000, 1073, 40000},    // 1000 madds per widen: 2146000000 < 2^31
      {1000, 1074, 40000},    // 999 madds per widen
      {-1000, -1073, 40000},
  };
  for (const Case& cs : cases) {
    for (std::size_t nq : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
      const std::vector<std::vector<std::int32_t>> q(
          nq, std::vector<std::int32_t>(cs.dims, cs.q));
      const std::vector<std::vector<std::int32_t>> c(
          3, std::vector<std::int32_t>(cs.dims, cs.c));
      expect_tiles_exact(q, c, {{0, cs.dims}},
                         "q=" + std::to_string(cs.q) +
                             " c=" + std::to_string(cs.c) +
                             " nq=" + std::to_string(nq));
    }
  }
}

TEST(KernelEquivalence, DotTileNarrowQueriesAgainstClassRowsPastInt16) {
  // int8 and int16 query rows against class rows whose bound sits at
  // 32767 (the int16 path) and past it (the int32 path, which must
  // sign-extend the narrow rows at load), including a -32768 class value
  // and rows far outside int16.
  Rng rng(0x8A1D);
  for (const std::int64_t q_bound : {std::int64_t{127}, std::int64_t{32767}})
    for (const std::int32_t peak : {32767, 32768, -32768, 1 << 24})
      for (std::size_t nq : {std::size_t{1}, std::size_t{4}, std::size_t{5}}) {
        auto queries = random_rows(nq, 1024, q_bound, rng);
        queries[0][rng.below(1024)] = static_cast<std::int32_t>(-q_bound);
        auto classes = random_rows(3, 1024, 3000, rng);
        classes[1][rng.below(1024)] = peak;
        for (const auto& [name, runs] : run_lists())
          expect_tiles_exact(queries, classes, runs,
                             std::string(name) +
                                 " q_bound=" + std::to_string(q_bound) +
                                 " peak=" + std::to_string(peak) +
                                 " nq=" + std::to_string(nq));
      }
}

TEST(KernelEquivalence, DotTileScoresStoredInt16RowsOnlyUnderTheBound) {
  // A caller's int16 class rows are scored for any query count, one query
  // included, at the runs' own offsets, only for narrow query views, and
  // only while the caller's row bound admits int16. A poisoned copy (every
  // value off by one) shows which rows a tile read: for int8 and int16
  // queries under bound 32767 every output of a SIMD tile moves; under
  // 32768, with no copy, or for int32 queries (the tile packs nothing, so
  // an int32 view always takes the int32 path) none does.
  Rng rng(0x1616);
  const k::Kernels& scalar = k::get(k::Backend::kScalar);
  const std::vector<std::size_t> query_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
  for (const std::int32_t peak : {32767, 32768}) {
    for (std::size_t nc : {std::size_t{1}, std::size_t{2}, std::size_t{26}}) {
      auto classes = random_rows(nc, 1024, 3000, rng);
      classes[0][rng.below(1024)] = peak;
      const Int16Rows exact16 = int16_copy(classes);
      ASSERT_EQ(exact16.max_abs, peak);
      Int16Rows poisoned = exact16;
      for (auto& row : poisoned.rows)
        for (auto& v : row) v = static_cast<std::int16_t>(v + 1);
      for (std::size_t nq : query_counts) {
        // Positive queries: the poison then moves every nonempty sum.
        std::vector<std::vector<std::int32_t>> queries(
            nq, std::vector<std::int32_t>(1024));
        for (auto& row : queries)
          for (auto& v : row) v = static_cast<std::int32_t>(rng.range(1, 60));
        for (const auto& [name, runs] : run_lists()) {
          const std::string what = std::string(name) +
                                   " nq=" + std::to_string(nq) +
                                   " nc=" + std::to_string(nc) +
                                   " peak=" + std::to_string(peak);
          const auto want = tile(scalar, queries, classes, runs);
          for (k::QueryWidth width : widths_for(queries))
            for (k::Backend b : test::available_backends()) {
              const k::Kernels& table = k::get(b);
              const std::string where = std::string(k::to_string(b)) + " " +
                                        width_name(width) + " " + what;
              EXPECT_EQ(tile(table, queries, classes, runs, nullptr, width),
                        want)
                  << where;
              EXPECT_EQ(tile(table, queries, classes, runs, &exact16, width),
                        want)
                  << where;
              const auto got =
                  tile(table, queries, classes, runs, &poisoned, width);
              if (table.dot_tile == scalar.dot_tile || peak > 32767 ||
                  runs.empty() || width == k::QueryWidth::kInt32) {
                EXPECT_EQ(got, want) << "poisoned copy read: " << where;
                continue;
              }
              for (std::size_t i = 0; i < want.size(); ++i)
                EXPECT_NE(got[i], want[i])
                    << "int16 rows not read: " << where << " i=" << i;
            }
        }
      }
    }
  }
}

/// The amx tile's output for `q` at `width` against `c` with its int16
/// copy and AMX operand, checked equal to scalar; `took_amx` says whether
/// the call reached the tile multiplies.
std::vector<std::int64_t> amx_tile(
    const std::vector<std::vector<std::int32_t>>& q,
    const std::vector<std::vector<std::int32_t>>& c,
    const std::vector<k::DimRun>& runs, k::QueryWidth width, bool& took_amx,
    const std::string& what) {
  const Int16Rows narrow = int16_copy(c);
  const std::uint64_t before = k::amx_tile_calls();
  const auto got =
      tile(k::get(k::Backend::kAmx), q, c, runs, &narrow, width);
  took_amx = k::amx_tile_calls() != before;
  EXPECT_EQ(got, tile(k::get(k::Backend::kScalar), q, c, runs)) << what;
  return got;
}

TEST(KernelEquivalence, AmxTileMatchesScalarAcrossBlockAndGroupEdges) {
  // Every query count 1..40 against every class count 1..40 (partial and
  // whole 16-query blocks and 16-class groups, one group or a pair, 15/16/
  // 17/32/33 among them), over full, ragged and chunk-masked runs, for
  // int8, int16 and int32 views. Only int8 views under the bound take the
  // tile multiplies, and every such call of two or more queries does; a
  // lone query keeps avx512's tile.
  if (!k::available(k::Backend::kAmx))
    GTEST_SKIP() << "amx backend unavailable on this host";
  constexpr std::size_t kDims = 192;
  const std::vector<std::pair<const char*, std::vector<k::DimRun>>> lists = {
      {"full", {{0, kDims}}},
      {"ragged", {{3, 70}, {101, 102}, {130, 190}}},
      {"masked", {{0, 64}, {128, kDims}}},
  };
  Rng rng(0xA3C5);
  for (std::size_t nc = 1; nc <= 40; ++nc) {
    auto classes = random_rows(nc, kDims, 32767, rng);
    classes[0][rng.below(kDims)] = -32767;
    for (std::size_t nq = 1; nq <= 40; ++nq) {
      auto queries = random_rows(nq, kDims, 127, rng);
      queries[0][rng.below(kDims)] = -127;
      // int16 and int32 views only at the edges: they never take AMX.
      const bool edge = nq % 16 <= 1 || nc % 16 <= 1;
      for (const auto& [name, runs] : lists)
        for (k::QueryWidth width : widths_for(queries)) {
          if (width != k::QueryWidth::kInt8 && !edge) continue;
          const std::string what = std::string(name) + " " +
                                   width_name(width) +
                                   " nq=" + std::to_string(nq) +
                                   " nc=" + std::to_string(nc);
          bool took_amx = false;
          amx_tile(queries, classes, runs, width, took_amx, what);
          EXPECT_EQ(took_amx, width == k::QueryWidth::kInt8 && nq >= 2)
              << what;
        }
    }
  }
}

TEST(KernelEquivalence, AmxOperandChecksShapesAndCopiesAligned) {
  // The builder runs on every host (models keep an operand only where amx
  // is available, but tests and benches build theirs anywhere). Its
  // storage is aligned by hand, so a copy must find its own boundary.
  k::AmxOperand op(3, 100);
  const std::vector<std::int32_t> row(100, 7);
  EXPECT_NO_THROW(op.set_row(2, row));
  EXPECT_THROW(op.set_row(3, row), std::invalid_argument);
  EXPECT_THROW(op.set_row(0, std::span(row).first(99)),
               std::invalid_argument);
  EXPECT_TRUE(k::AmxOperand().empty());
  EXPECT_EQ(k::AmxOperand().data(), nullptr);
  std::vector<k::AmxOperand> copies;
  for (int i = 0; i < 8; ++i) copies.push_back(op);  // varied addresses
  for (const k::AmxOperand& copy : copies) {
    EXPECT_TRUE(copy == op);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % 64, 0u);
  }
  k::AmxOperand other(3, 100);
  EXPECT_FALSE(other == op);
  other = op;
  EXPECT_TRUE(other == op);
}

TEST(KernelEquivalence, AmxTileFallsBackPastTheClassBound) {
  // |c| = 32767 splits into hi = 127, lo = 255 and takes AMX; 32768 has no
  // int8 hi, so the tile hands the call to avx512's, still exact.
  if (!k::available(k::Backend::kAmx))
    GTEST_SKIP() << "amx backend unavailable on this host";
  Rng rng(0xB0B);
  for (const std::int32_t peak : {32767, -32767, 32768, -32768}) {
    auto classes = random_rows(17, 1024, 3000, rng);
    classes[16][rng.below(1024)] = peak;
    const auto queries = random_rows(32, 1024, 127, rng);
    for (const auto& [name, runs] : run_lists()) {
      bool took_amx = false;
      amx_tile(queries, classes, runs, k::QueryWidth::kInt8, took_amx,
               std::string(name) + " peak=" + std::to_string(peak));
      EXPECT_EQ(took_amx, peak != 32768 && peak != -32768)
          << name << " peak=" << peak;
    }
  }
}

TEST(KernelEquivalence, AmxTileExactOnEachSideOfTheInt32Bound) {
  // |q| = 127 against lo = 255 drives the lo tile to 127 * 255 * K: below
  // 2^31 at K = 66304 (AMX), above it at K = 66368 (the fallback). Both
  // must equal scalar and the exact sum.
  if (!k::available(k::Backend::kAmx))
    GTEST_SKIP() << "amx backend unavailable on this host";
  for (const std::size_t dims : {std::size_t{66304}, std::size_t{66368}}) {
    const std::vector<std::vector<std::int32_t>> queries(
        16, std::vector<std::int32_t>(dims, 127));
    // lo = 255 with hi = 127, 0 and -1.
    const std::vector<std::vector<std::int32_t>> classes = {
        std::vector<std::int32_t>(dims, 32767),
        std::vector<std::int32_t>(dims, 255),
        std::vector<std::int32_t>(dims, -1)};
    bool took_amx = false;
    const auto got = amx_tile(queries, classes, {{0, dims}},
                              k::QueryWidth::kInt8, took_amx,
                              "K=" + std::to_string(dims));
    const auto k64 = static_cast<std::int64_t>(dims);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[3 * i], 127 * 32767 * k64);
      EXPECT_EQ(got[3 * i + 1], 127 * 255 * k64);
      EXPECT_EQ(got[3 * i + 2], -127 * k64);
    }
    EXPECT_EQ(took_amx, 127 * 255 * k64 < (std::int64_t{1} << 31))
        << "K=" << dims;
  }
}

// ---- Window bundle ----------------------------------------------------------

/// Rows and terms of a window-bundle call; term t points into
/// rows[row_of[t]].
struct Windows {
  std::vector<BinaryHV> rows;
  std::vector<k::RotatedRow> terms;
  std::vector<std::size_t> row_of;
  std::size_t per_window = 0;
  std::size_t count() const { return terms.size() / per_window; }
};

/// The bundle the kernel must equal, built from BinaryHV::rotated, XOR and
/// accumulate_into one window at a time.
IntHV rotated_reference(const Windows& w, std::size_t dims) {
  IntHV acc(dims, 0);
  for (std::size_t i = 0; i < w.count(); ++i) {
    BinaryHV v(dims);
    for (std::size_t t = i * w.per_window; t < (i + 1) * w.per_window; ++t)
      v ^= w.rows[w.row_of[t]].rotated(w.terms[t].rot);
    v.accumulate_into(acc);
  }
  return acc;
}

/// One table's bundle, added onto a non-zero accumulator so a backend that
/// assigns instead of accumulating fails.
IntHV bundled(const k::Kernels& table, const Windows& w, std::size_t dims) {
  IntHV acc(dims, 7);
  table.bundle_windows(w.terms.data(), w.per_window, w.count(), dims,
                       acc.data());
  for (auto& v : acc) v -= 7;
  return acc;
}

/// `windows` GENERIC-shaped windows over random rows: n level rows rotated
/// by k + j, plus (with_id) one id row rotated by k + window index.
Windows generic_windows(std::size_t dims, std::size_t n, std::size_t rot,
                        bool with_id, std::size_t windows, Rng& rng) {
  Windows w;
  w.per_window = n + (with_id ? 1 : 0);
  for (int r = 0; r < 9; ++r) w.rows.push_back(BinaryHV::random(dims, rng));
  auto add = [&](std::size_t row, std::size_t r) {
    w.terms.push_back({w.rows[row].words().data(), r});
    w.row_of.push_back(row);
  };
  for (std::size_t i = 0; i < windows; ++i) {
    for (std::size_t j = 0; j < n; ++j) add((i + j * 3) % 8, rot + j);
    if (with_id) add(8, rot + i);  // row 8 is the id
  }
  return w;
}

TEST(KernelEquivalence, WindowBundleMatchesScalarAcrossShapes) {
  const k::Kernels& scalar = k::get(k::Backend::kScalar);
  Rng rng(0xB0DD1E);
  for (std::size_t dims : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{1000},
                           std::size_t{4096}}) {
    for (std::size_t rot : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                            std::size_t{64}, std::size_t{65}, dims - 1, dims,
                            2 * dims + 3}) {
      for (std::size_t n = 1; n <= 5; ++n)
        for (const bool with_id : {false, true}) {
          // 70 windows: four full Harley–Seal groups and a short one.
          const Windows w = generic_windows(dims, n, rot, with_id, 70, rng);
          const IntHV want = bundled(scalar, w, dims);
          ASSERT_EQ(want, rotated_reference(w, dims))
              << "scalar dims=" << dims << " rot=" << rot << " n=" << n
              << " id=" << with_id;
          for (k::Backend b : simd_backends())
            EXPECT_EQ(bundled(k::get(b), w, dims), want)
                << k::to_string(b) << " dims=" << dims << " rot=" << rot
                << " n=" << n << " id=" << with_id;
        }
    }
  }
}

/// `w` bundled by scalar equals the BinaryHV::rotated reference, and every
/// SIMD backend equals scalar.
void expect_bundles_agree(const Windows& w, std::size_t dims,
                          const std::string& where) {
  const IntHV want = bundled(k::get(k::Backend::kScalar), w, dims);
  ASSERT_EQ(want, rotated_reference(w, dims)) << "scalar " << where;
  for (k::Backend b : simd_backends())
    EXPECT_EQ(bundled(k::get(b), w, dims), want)
        << k::to_string(b) << " " << where;
}

TEST(KernelEquivalence, WindowBundleMatchesScalarAcrossGroupsAndWraps) {
  // The SIMD driver counts windows 16 to a Harley–Seal group into
  // bit-planes and builds register blocks (512 dims on avx512, 256 on
  // avx2) with the rotation's wrap in one of them. Word-aligned dims off
  // the block size leave a tail of words; window counts around 16 and the
  // powers of two cross the group and plane boundaries.
  Rng rng(0x5B1CED);
  for (std::size_t dims : {std::size_t{128}, std::size_t{512},
                           std::size_t{576}, std::size_t{4160}}) {
    for (std::size_t windows :
         {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{31}, std::size_t{32}, std::size_t{33},
          std::size_t{127}, std::size_t{128}, std::size_t{129},
          std::size_t{255}, std::size_t{256}}) {
      for (std::size_t rot : {std::size_t{0}, std::size_t{37}, dims - 1}) {
        const Windows w = generic_windows(dims, 3, rot, true, windows, rng);
        expect_bundles_agree(w, dims,
                             "dims=" + std::to_string(dims) +
                                 " windows=" + std::to_string(windows) +
                                 " rot=" + std::to_string(rot));
      }
    }
  }
  // Every word shift at 4096 dims, with and without a bit shift, lands the
  // wrap at every word position of every block.
  constexpr std::size_t kDims = 4096;
  for (std::size_t ws = 0; ws < kDims / 64; ++ws)
    for (std::size_t bs : {std::size_t{0}, std::size_t{37}}) {
      const Windows w = generic_windows(kDims, 2, 64 * ws + bs, true, 17, rng);
      expect_bundles_agree(w, kDims,
                           "ws=" + std::to_string(ws) +
                               " bs=" + std::to_string(bs));
    }
}

TEST(KernelEquivalence, WindowRotationOfTheSeedIdMatchesRotated) {
  // The ASIC's ids are rho^k(seed id) (§4.3.1), generated by the kernel's
  // rotation: one single-term window per k must bundle to exactly the
  // bipolar expansion of seed_id().rotated(k).
  for (std::size_t dims : {std::size_t{512}, std::size_t{4096},
                           std::size_t{1000}}) {
    const SeededItemMemory ids(dims, 77);
    for (std::size_t rot : {std::size_t{0}, std::size_t{5}, std::size_t{64},
                            std::size_t{777}, dims + 1}) {
      const k::RotatedRow term{ids.seed_id().words().data(), rot};
      for (k::Backend b : test::available_backends()) {
        IntHV acc(dims, 0);
        k::get(b).bundle_windows(&term, 1, 1, dims, acc.data());
        EXPECT_EQ(acc, ids.seed_id().rotated(rot).to_int())
            << k::to_string(b) << " dims=" << dims << " rot=" << rot;
      }
    }
  }
}

TEST(KernelEquivalence, WindowBundleExactAtAndPastTheCounterBound) {
  // One all-ones row per window drives every 16-bit counter to the window
  // count: at kMaxWindowsPerFlush, one past it, and past uint16 range, the
  // bundle must equal a plain int32 accumulation. 64 dims stay below every
  // SIMD block; 512, 576 and 4096 reach the SIMD backends' bit-planes and
  // their flushes (576 with a word past the last 512-dim block).
  for (std::size_t dims : {std::size_t{64}, std::size_t{512},
                           std::size_t{576}, std::size_t{4096}}) {
    BinaryHV ones(dims);
    for (std::size_t d = 0; d < dims; ++d) ones.set(d, d % 5 != 0);
    for (std::size_t windows :
         {k::kMaxWindowsPerFlush, k::kMaxWindowsPerFlush + 1,
          std::size_t{65537}}) {
      const std::vector<k::RotatedRow> terms(windows,
                                             {ones.words().data(), 0});
      IntHV want(dims, 0);
      for (std::size_t w = 0; w < windows; ++w) ones.accumulate_into(want);
      for (k::Backend b : test::available_backends()) {
        IntHV acc(dims, 0);
        k::get(b).bundle_windows(terms.data(), 1, windows, dims, acc.data());
        EXPECT_EQ(acc, want) << k::to_string(b) << " dims=" << dims
                             << " windows=" << windows;
      }
    }
  }
}

// ---- Dispatch plumbing ----------------------------------------------------

TEST(KernelDispatch, NamesRoundTrip) {
  for (k::Backend b : {k::Backend::kScalar, k::Backend::kAvx2,
                       k::Backend::kAvx512, k::Backend::kAmx}) {
    const auto parsed = k::parse_backend(k::to_string(b));
    ASSERT_TRUE(parsed.has_value()) << k::to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(k::parse_backend("auto").has_value());
  EXPECT_FALSE(k::parse_backend("sse9").has_value());
  EXPECT_FALSE(k::parse_backend("").has_value());
}

TEST(KernelDispatch, ScalarAlwaysCompiledAndAvailable) {
  const auto compiled = k::compiled_backends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), k::Backend::kScalar);
  EXPECT_TRUE(k::available(k::Backend::kScalar));
  EXPECT_TRUE(k::available(k::best_available()));
}

TEST(KernelDispatch, TablesAreSelfConsistent) {
  for (k::Backend b : test::available_backends()) {
    const k::Kernels& table = k::get(b);
    EXPECT_EQ(table.backend, b);
    EXPECT_EQ(table.name, k::to_string(b));
    EXPECT_NE(table.dot_tile, nullptr);
    EXPECT_NE(table.bundle_windows, nullptr);
  }
}

TEST(KernelDispatch, SetBackendFromStringAcceptsAutoAndRejectsUnknown) {
  BackendGuard guard;
  k::set_backend_from_string("auto");
  EXPECT_EQ(k::active_backend(), k::best_available());
  k::set_backend_from_string("scalar");
  EXPECT_EQ(k::active_backend(), k::Backend::kScalar);
  EXPECT_THROW(k::set_backend_from_string("fastest"), std::invalid_argument);
  // neon is no backend: an unknown spelling like any other.
  EXPECT_THROW(k::set_backend_from_string("neon"), std::invalid_argument);
  EXPECT_THROW(k::set_backend_from_string(""), std::invalid_argument);
}

TEST(KernelDispatch, UnavailableBackendThrowsInsteadOfFallingBack) {
  // Every backend this build or CPU lacks; on a host that has them all, a
  // value no backend has.
  std::vector<k::Backend> missing;
  for (k::Backend b : {k::Backend::kScalar, k::Backend::kAvx2,
                       k::Backend::kAvx512, k::Backend::kAmx})
    if (!k::available(b)) missing.push_back(b);
  if (missing.empty()) missing.push_back(static_cast<k::Backend>(99));
  for (k::Backend b : missing) {
    EXPECT_THROW(k::get(b), std::invalid_argument) << k::to_string(b);
    EXPECT_THROW(k::set_backend(b), std::invalid_argument) << k::to_string(b);
  }
  // The active table is untouched by the failed set.
  EXPECT_TRUE(k::available(k::active_backend()));
}

TEST(KernelDispatch, Avx512RequiresEveryFeatureItUses) {
  // F + BW for the tile and the bundle's mask-add, VBMI2 for the bundle's
  // funnel shift, VNNI for the tile's vpdpwssd: a CPU missing any of them
  // must not get avx512, and forcing it there is an error, never a
  // fallback.
#if defined(__x86_64__) || defined(__i386__)
  const bool every = __builtin_cpu_supports("avx512f") &&
                     __builtin_cpu_supports("avx512bw") &&
                     __builtin_cpu_supports("avx512vbmi2") &&
                     __builtin_cpu_supports("avx512vnni");
#else
  const bool every = false;
#endif
  EXPECT_EQ(k::cpu_supports(k::Backend::kAvx512), every);
  if (!k::available(k::Backend::kAvx512)) {
    EXPECT_THROW(k::get(k::Backend::kAvx512), std::invalid_argument);
    EXPECT_THROW(k::set_backend_from_string("avx512"), std::invalid_argument);
  }
}

TEST(KernelDispatch, ActiveBackendDrivesOps) {
  BackendGuard guard;
  Rng rng(0xFACE);
  const auto a = BinaryHV::random(4096, rng);
  const auto b = BinaryHV::random(4096, rng);
  // cosine() scores through the active table's dot tile; two bipolar
  // vectors' norms are both 4096, so it is exactly dot / 4096.
  const double want = static_cast<double>(a.dot(b)) / 4096.0;
  for (k::Backend backend : test::available_backends()) {
    k::set_backend(backend);
    EXPECT_EQ(k::active_backend(), backend);
    EXPECT_EQ(k::active().backend, backend);
    EXPECT_EQ(cosine(a.to_int(), b.to_int()), want);
  }
}

}  // namespace
}  // namespace generic::hdc
