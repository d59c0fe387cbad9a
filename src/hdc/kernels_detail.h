// Internal seam between the kernels dispatch TU and the backend TUs.
//
// Each backend lives in its own translation unit so its ISA flags (-mavx2,
// -mavx512vnni, -mamx-int8) never leak into code that runs before dispatch has
// checked the CPU. kernels.cpp only links the table accessors that CMake
// compiled in (GENERIC_KERNELS_HAVE_*).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "hdc/kernels.h"

namespace generic::hdc::kernels::detail {

const Kernels& scalar_table();

/// The reference dot tile; backends without a tile of their own point at it.
void scalar_dot_tile(const QueryRows& queries, std::size_t nq,
                     const ClassRows& classes, const DimRun* runs,
                     std::size_t nruns, std::int64_t* out);

/// The reference window bundle; backends without one of their own point at
/// it.
void scalar_bundle_windows(const RotatedRow* terms, std::size_t per_window,
                           std::size_t windows, std::size_t dims,
                           std::int32_t* acc);

/// Per-thread scratch of the window bundle, at least `n` elements: packed
/// window words plus the SIMD driver's bit-planes, and the scalar
/// reference's 16-bit per-dimension counters. Defined in kernels.cpp, which
/// no ISA flag reaches, so the buffers' allocation code is never built for
/// a wider ISA than the host has. Contents are garbage on entry; a buffer
/// only ever grows.
std::uint64_t* u64_scratch(std::size_t n);
std::uint16_t* u16_scratch(std::size_t n);

#if defined(GENERIC_KERNELS_HAVE_AVX2)
const Kernels& avx2_table();
#endif

#if defined(GENERIC_KERNELS_HAVE_AVX512)
const Kernels& avx512_table();
#endif

#if defined(GENERIC_KERNELS_HAVE_AMX)
const Kernels& amx_table();
#endif

/// amx_tile_calls()'s count, bumped by the amx tile on every call it
/// scores with tile multiplies.
extern std::atomic<std::uint64_t> amx_calls;

}  // namespace generic::hdc::kernels::detail
