#include "hdc/kernels.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels {

namespace {

std::atomic<const Kernels*> g_active{nullptr};

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

std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
    case Backend::kNeon: return "neon";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  if (name == "neon") return Backend::kNeon;
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
#if defined(GENERIC_KERNELS_HAVE_NEON)
  out.push_back(Backend::kNeon);
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
             __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
             __builtin_cpu_supports("avx512vbmi2") != 0 &&
             __builtin_cpu_supports("avx512vnni") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
      // NEON is architecturally baseline on aarch64; if the backend was
      // compiled in, the CPU has it.
#if defined(__aarch64__)
      return true;
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
  for (Backend b : {Backend::kAvx512, Backend::kAvx2, Backend::kNeon})
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
    case Backend::kNeon:
#if defined(GENERIC_KERNELS_HAVE_NEON)
      return detail::neon_table();
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
