#include "hdc/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__linux__) && defined(__x86_64__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels {

namespace {

std::atomic<const Kernels*> g_active{nullptr};

/// Linux grants a process AMX tile data only on request (arch_prctl
/// ARCH_REQ_XCOMP_PERM for XFEATURE_XTILEDATA); asked once per process.
bool amx_permitted() {
#if defined(__linux__) && defined(__x86_64__)
  static const bool granted = [] {
    constexpr int kReqXcompPerm = 0x1023;
    constexpr int kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kReqXcompPerm, kXfeatureXtiledata) == 0;
  }();
  return granted;
#else
  return false;
#endif
}

std::string available_names() {
  std::string names = "auto";
  for (Backend b : compiled_backends()) {
    if (!cpu_supports(b)) continue;
    names += ", ";
    names += to_string(b);
  }
  return names;
}

}  // namespace

std::uint64_t* detail::u64_scratch(std::size_t n) {
  thread_local std::vector<std::uint64_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

std::uint16_t* detail::u16_scratch(std::size_t n) {
  thread_local std::vector<std::uint16_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

std::atomic<std::uint64_t> detail::amx_calls{0};

std::uint64_t amx_tile_calls() {
  return detail::amx_calls.load(std::memory_order_relaxed);
}

AmxOperand::AmxOperand(std::size_t n, std::size_t dims)
    : bytes_(tile_offset((dims + kStep - 1) / kStep, 0,
                         (n + kGroup - 1) / kGroup)),
      n_(n),
      dims_(dims) {
  if (bytes_ == 0) return;
  constexpr std::size_t kAlign = 64;
  buf_.assign(bytes_ + kAlign - 1, 0);
  const auto addr = reinterpret_cast<std::uintptr_t>(buf_.data());
  offset_ = (kAlign - addr % kAlign) % kAlign;
}

AmxOperand::AmxOperand(const AmxOperand& other)
    : AmxOperand(other.n_, other.dims_) {
  if (!empty()) std::memcpy(buf_.data() + offset_, other.data(), bytes_);
}

AmxOperand& AmxOperand::operator=(const AmxOperand& other) {
  if (this != &other) *this = AmxOperand(other);
  return *this;
}

bool operator==(const AmxOperand& a, const AmxOperand& b) {
  return a.n_ == b.n_ && a.dims_ == b.dims_ && a.empty() == b.empty() &&
         std::equal(a.data(), a.data() + a.bytes_, b.data());
}

void AmxOperand::set_row(std::size_t c, std::span<const std::int32_t> row) {
  if (c >= n_ || row.size() != dims_)
    throw std::invalid_argument("AmxOperand::set_row: row out of shape");
  // One step at a time: split 64 values into hi and lo bytes (a loop the
  // compiler vectorizes), then store each 4-dim dword of both into its
  // tile row. A per-value offset computation costs learn_rounds ~10%.
  const std::size_t groups = (n_ + kGroup - 1) / kGroup;
  const std::size_t col = 4 * (c % kGroup);
  for (std::size_t s = 0; s * kStep < dims_; ++s) {
    const std::size_t len = std::min(kStep, dims_ - s * kStep);
    const std::int32_t* v = row.data() + s * kStep;
    std::int8_t hi[kStep] = {};
    std::int8_t lo[kStep] = {};
    for (std::size_t j = 0; j < len; ++j) {
      hi[j] = static_cast<std::int8_t>(v[j] >> 8);
      lo[j] = static_cast<std::int8_t>(v[j] & 0xFF);
    }
    // Row r of the hi tile, then of the lo tile, takes dims 4r..4r+3.
    std::int8_t* tile =
        buf_.data() + offset_ + tile_offset(s, c / kGroup, groups) + col;
    for (std::size_t r = 0; r < kTileBytes / 64; ++r) {
      std::memcpy(tile + 64 * r, hi + 4 * r, 4);
      std::memcpy(tile + kTileBytes + 64 * r, lo + 4 * r, 4);
    }
  }
}

std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
    case Backend::kAmx: return "amx";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  if (name == "amx") return Backend::kAmx;
  return std::nullopt;
}

std::vector<Backend> compiled_backends() {
  std::vector<Backend> out{Backend::kScalar};
#if defined(GENERIC_KERNELS_HAVE_AVX2)
  out.push_back(Backend::kAvx2);
#endif
#if defined(GENERIC_KERNELS_HAVE_AVX512)
  out.push_back(Backend::kAvx512);
#endif
#if defined(GENERIC_KERNELS_HAVE_AMX)
  out.push_back(Backend::kAmx);
#endif
  return out;
}

bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vbmi2") != 0 &&
             __builtin_cpu_supports("avx512vnni") != 0;
#else
      return false;
#endif
    case Backend::kAmx:
#if defined(__x86_64__)
      return cpu_supports(Backend::kAvx512) &&
             __builtin_cpu_supports("amx-tile") != 0 &&
             __builtin_cpu_supports("amx-int8") != 0 && amx_permitted();
#else
      return false;
#endif
  }
  return false;
}

bool available(Backend backend) {
  if (!cpu_supports(backend)) return false;
  for (Backend b : compiled_backends())
    if (b == backend) return true;
  return false;
}

Backend best_available() {
  for (Backend b : {Backend::kAmx, Backend::kAvx512, Backend::kAvx2})
    if (available(b)) return b;
  return Backend::kScalar;
}

const Kernels& get(Backend backend) {
  if (!available(backend))
    throw std::invalid_argument(
        "kernel backend '" + std::string(to_string(backend)) +
        "' is not available on this build/CPU (available: " +
        available_names() + ")");
  switch (backend) {
    case Backend::kScalar:
      return detail::scalar_table();
    case Backend::kAvx2:
#if defined(GENERIC_KERNELS_HAVE_AVX2)
      return detail::avx2_table();
#else
      break;
#endif
    case Backend::kAvx512:
#if defined(GENERIC_KERNELS_HAVE_AVX512)
      return detail::avx512_table();
#else
      break;
#endif
    case Backend::kAmx:
#if defined(GENERIC_KERNELS_HAVE_AMX)
      return detail::amx_table();
#else
      break;
#endif
  }
  throw std::invalid_argument("kernel backend not compiled in");
}

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k != nullptr) return *k;
  // First use: resolve GENERIC_KERNEL_BACKEND exactly once. A set_backend()
  // call that raced ahead of us wins the exchange and is kept.
  static const bool initialized = [] {
    const char* env = std::getenv("GENERIC_KERNEL_BACKEND");
    const std::string_view name = (env != nullptr && *env != '\0') ? env
                                                                   : "auto";
    const Kernels* resolved =
        (name == "auto") ? &get(best_available()) : [&] {
          const auto parsed = parse_backend(name);
          if (!parsed)
            throw std::invalid_argument(
                "GENERIC_KERNEL_BACKEND='" + std::string(name) +
                "' is not a known backend (choices: " + available_names() +
                ")");
          return &get(*parsed);
        }();
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
    return true;
  }();
  (void)initialized;
  return *g_active.load(std::memory_order_acquire);
}

Backend active_backend() { return active().backend; }

void set_backend(Backend backend) {
  const Kernels& k = get(backend);  // throws when unavailable
  g_active.store(&k, std::memory_order_release);
}

void set_backend_from_string(std::string_view name) {
  if (name == "auto") {
    set_backend(best_available());
    return;
  }
  const auto parsed = parse_backend(name);
  if (!parsed)
    throw std::invalid_argument("unknown kernel backend '" +
                                std::string(name) +
                                "' (choices: " + available_names() + ")");
  set_backend(*parsed);
}

}  // namespace generic::hdc::kernels
