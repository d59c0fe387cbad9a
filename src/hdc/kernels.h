// Runtime-dispatched integer kernels — the one place every similarity
// search and every binary encoder bottoms out (docs/kernels.md): the
// query×class int32 dot tile every HdcClassifier prediction scores
// through, at every class-memory bit width, and the window bundle every
// encoder that bundles binary rows (Eq. 1, Fig. 2(d)) encodes through.
//
// Both are exact integer reductions, so any backend that computes the
// same sums is bit-identical by construction: vectorization here can never
// disturb the determinism contract of docs/parallelism.md. What the
// dispatch layer adds is the choice of HOW the sums are computed:
//
//   scalar  portable reference: a plain int64 dot loop and one 16-bit
//           counter add per window bit, compiled with vectorization
//           disabled so it stays the honest baseline
//   avx2    dot tile on _mm256_mul_epi32, or _mm256_madd_epi16 over the
//           caller's int16 class rows when an operand bound proves int16
//           exact; windows rotated in registers and counted in carry-save
//           bit-planes
//   avx512  the same dot tile on 512-bit lanes with vpdpwssd fusing the
//           int16 multiply-add, and the same bit-sliced window bundle with
//           vpshldvq funnel shifts and vpternlogq adders (x86 + F + BW +
//           VBMI2 + VNNI)
//   amx     avx512's window bundle; a dot tile that scores blocks of int8
//           query rows with AMX tile multiplies against a hi/lo int8 split
//           of the class rows (AmxOperand), exact under an int32 bound, and
//           hands every other call to avx512's tile (x86 + the avx512
//           features + AMX-TILE + AMX-INT8 + the kernel's tile-data
//           permission)
//
// Selection is runtime CPU-feature detection ("auto" picks the best
// available), overridable by the GENERIC_KERNEL_BACKEND environment
// variable or the tools' --kernel-backend flag. Backends not compiled in
// (wrong architecture) or not supported by the host CPU are rejected with
// a clear error rather than silently falling back.
//
// Every backend must be byte-identical to scalar — same dot products, same
// winners, same bundled counts — which
// tests/hdc/kernel_equivalence_test.cpp asserts for every compiled backend
// across ragged shapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace generic::hdc::kernels {

enum class Backend {
  kScalar,
  kAvx2,
  kAvx512,
  kAmx,
};

/// A half-open run [begin, end) of dimensions a dot tile sums over — the
/// dims of one maximal run of enabled 128-dim chunks.
struct DimRun {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The class side of a dot tile: `n` int32 rows, the values the tile is
/// exact for, and optionally the same rows stored as int16 and as an
/// AmxOperand's data(). When `rows16` or `amx` is set, `max_abs` must
/// bound |v| over every value of `rows` the runs cover, and whenever
/// max_abs <= 32767, rows16[c][j] == rows[c][j] at every covered j (the
/// rows share offsets) and `amx` holds the same n rows. The caller keeps
/// those copies (HdcClassifier refreshes them on every class-memory
/// write); the scalar reference never reads them, so a stale copy shows
/// up as a mismatch against scalar.
struct ClassRows {
  const std::int32_t* const* rows = nullptr;
  std::size_t n = 0;
  const std::int16_t* const* rows16 = nullptr;
  std::int64_t max_abs = 0;
  const std::int8_t* amx = nullptr;
};

/// The class side of the amx dot tile (docs/kernels.md, "The dot tile"):
/// `n` rows of `dims` values, each value c split into hi = c >> 8 (int8)
/// and lo = c & 0xFF (uint8), so c == 256 * hi + lo whenever |c| <= 32767.
/// Stored in the VNNI layout of an AMX B tile: for each 64-dim step and
/// each group of 16 classes, one 1 KB tile of hi then one of lo, where
/// dims 4r..4r+3 of the group's class k are bytes 4k..4k+3 of the tile's
/// 64-byte row r. Steps are outermost, so a step's tiles are adjacent;
/// the classes past n and the dims past `dims` are zero. This is the one
/// builder of that layout: HdcClassifier keeps one per model, and tests
/// and benches build theirs with it.
class AmxOperand {
 public:
  /// Dims per step and classes per group: the K and N of one B tile.
  static constexpr std::size_t kStep = 64;
  static constexpr std::size_t kGroup = 16;
  /// Bytes of one B tile: 16 rows of 64.
  static constexpr std::size_t kTileBytes = 1024;

  /// Byte offset of the hi tile of 64-dim step `step` and class group
  /// `group` in an operand of `groups` groups; its lo tile follows it.
  static constexpr std::size_t tile_offset(std::size_t step,
                                           std::size_t group,
                                           std::size_t groups) {
    return (step * groups + group) * 2 * kTileBytes;
  }

  AmxOperand() = default;
  /// `n` rows of `dims` values, all zero.
  AmxOperand(std::size_t n, std::size_t dims);
  /// A copy finds its own 64-byte boundary in its own buffer; a move keeps
  /// the buffer and so the boundary.
  AmxOperand(const AmxOperand& other);
  AmxOperand& operator=(const AmxOperand& other);
  AmxOperand(AmxOperand&&) noexcept = default;
  AmxOperand& operator=(AmxOperand&&) noexcept = default;

  /// Store row `c` from its `dims` int32 values; std::invalid_argument for
  /// c >= n or a row of another length. A value outside int16 leaves
  /// bytes that are not its split; the tile reads the copy only while
  /// ClassRows::max_abs <= 32767 rules such a value out.
  void set_row(std::size_t c, std::span<const std::int32_t> row);

  bool empty() const { return buf_.empty(); }
  /// The operand ClassRows::amx points at, on a 64-byte boundary; nullptr
  /// when empty().
  const std::int8_t* data() const {
    return empty() ? nullptr : buf_.data() + offset_;
  }

  /// Same shape and same bytes.
  friend bool operator==(const AmxOperand& a, const AmxOperand& b);

 private:
  /// A plain allocation aligned by hand, as QueryBatch's rows are: an
  /// over-aligned new's padded blocks raised learn_rounds' peak RSS by
  /// ~1 MB, and an unaligned operand splits every tile row over two cache
  /// lines (the amx tile ran ~1.5x slower).
  std::vector<std::int8_t> buf_;
  std::size_t offset_ = 0;  ///< of the operand's first byte in buf_
  std::size_t bytes_ = 0;   ///< operand bytes from data()
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
};

/// Bytes per element of a dot tile's query rows.
enum class QueryWidth : std::uint8_t { kInt8 = 1, kInt16 = 2, kInt32 = 4 };

/// The query side of a dot tile: `rows` points at one row pointer per
/// query, each row holding elements of `width` (int8, int16 or int32
/// values at the class rows' offsets). A narrow view (int8 or int16) must
/// carry in `max_abs` a bound on |q| over every value the runs cover: the
/// SIMD tiles read narrow rows as they are, sign-extending each load, and
/// take the int16 path under that bound. An int32 view's `max_abs` is not
/// read: int32 rows always take the int32 path, exact for any values. The
/// tile narrows nothing itself; hdc::QueryBatch packs queries at their
/// narrowest exact width and hands out views of its rows.
struct QueryRows {
  const void* const* rows = nullptr;
  QueryWidth width = QueryWidth::kInt32;
  std::int64_t max_abs = 0;
};

/// One term of a window: a bit-packed row (ceil(dims/64) words, unused
/// tail bits zero) and the rotation rho^rot applied before it is XORed in.
/// rot may exceed dims; it is taken modulo dims.
struct RotatedRow {
  const std::uint64_t* words = nullptr;
  std::size_t rot = 0;
};

/// Most windows a bundle_windows call counts before it flushes the counts
/// into the int32 accumulator: the scalar reference's 16-bit counters and
/// the SIMD backends' bit-planes (which flush every 32752 windows, whole
/// groups of 16) then never hold more than 32767, so a count is exact in
/// int16 as well as uint16.
inline constexpr std::size_t kMaxWindowsPerFlush = 32767;

/// The dispatch table one backend fills in. Every entry point is exact: it
/// returns the same integers the scalar reference computes.
struct Kernels {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";

  /// out[q * nc + c] = Σ queries.rows[q][j] * classes.rows[c][j] over
  /// every j of the `nruns` runs: int32 products summed in int64, for `nq`
  /// query rows × `nc` = classes.n class rows. Exact for any int32
  /// operands — the true sum whenever it fits in int64, the scalar
  /// reference's two's-complement wrap when it does not. A backend may
  /// score classes.rows16 or classes.amx instead only for a narrow view
  /// whose bound and classes.max_abs prove those sums exact
  /// (docs/kernels.md); otherwise, and for every int32 view, it reads the
  /// int32 class rows.
  void (*dot_tile)(const QueryRows& queries, std::size_t nq,
                   const ClassRows& classes, const DimRun* runs,
                   std::size_t nruns, std::int64_t* out) = nullptr;

  /// Bundle `windows` windows of `per_window` terms each into `acc`:
  ///   v_w    = XOR_{t < per_window} rho^{rot}(row) over terms
  ///            [w * per_window, (w + 1) * per_window)
  ///   acc[d] += Σ_w (2 · v_w[d] − 1)        for every d < dims
  /// — the bipolar sum of the windows, GENERIC's Eq. 1 when a window's
  /// terms are its n level rows rotated by j < n and the seed id rotated
  /// by the window index. Rotation is toward higher indices, as
  /// BinaryHV::rotated. Window bits are counted per dimension and
  /// flushed (acc[d] += 2 · count[d] − counted) at least every
  /// kMaxWindowsPerFlush windows, so the sum is exact for any window
  /// count. Rows are read, never cached, on every call: fault injection and
  /// scrubbing rewrite them in place between calls.
  void (*bundle_windows)(const RotatedRow* terms, std::size_t per_window,
                         std::size_t windows, std::size_t dims,
                         std::int32_t* acc) = nullptr;
};

/// Canonical lower-case name: "scalar", "avx2", "avx512", "amx".
std::string_view to_string(Backend backend);

/// Parse a backend name (as spelled by to_string). "auto" is not a backend;
/// resolve it with best_available(). Unknown names return nullopt.
std::optional<Backend> parse_backend(std::string_view name);

/// Backends compiled into this binary (always includes kScalar).
std::vector<Backend> compiled_backends();

/// True when the running CPU can execute `backend` (kScalar always can).
/// For kAmx this includes the kernel's permission to use tile data,
/// requested once per process on the first call that asks.
bool cpu_supports(Backend backend);

/// Compiled in AND supported by the running CPU.
bool available(Backend backend);

/// The best available backend: amx > avx512 > avx2 > scalar.
Backend best_available();

/// Dispatch table of an explicit backend; throws std::invalid_argument when
/// it is not available on this build/CPU.
const Kernels& get(Backend backend);

/// The process-wide active dispatch table every scoring and encoding call
/// goes through. First use resolves GENERIC_KERNEL_BACKEND ("auto",
/// "scalar", "avx2", "avx512", "amx"; unset == "auto"); an unknown or
/// unavailable value
/// throws so a forced CI leg can never silently run the wrong kernels.
const Kernels& active();

/// Backend of active().
Backend active_backend();

/// Force the active backend; throws std::invalid_argument when unavailable.
/// Safe to call from tests between single-threaded phases; not meant to be
/// raced against in-flight kernel calls.
void set_backend(Backend backend);

/// Set from a CLI/env spelling, accepting "auto". Throws on unknown or
/// unavailable names with a message listing the available backends.
void set_backend_from_string(std::string_view name);

/// Process-wide count of amx dot_tile calls scored with tile multiplies
/// rather than handed to avx512's tile: how tests see that a caller's
/// blocks reach the AMX path.
std::uint64_t amx_tile_calls();

}  // namespace generic::hdc::kernels
