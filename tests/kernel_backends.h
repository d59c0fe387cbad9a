// Kernel-backend sweeps shared by the suites that pin bytes across
// backends: a test sets each available backend in turn under a guard that
// restores the process-wide one however the test exits.
#pragma once

#include <vector>

#include "hdc/kernels.h"

namespace generic::test {

/// Restores the active kernel backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(hdc::kernels::active_backend()) {}
  ~BackendGuard() { hdc::kernels::set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  hdc::kernels::Backend saved_;
};

/// Every backend compiled in and supported by this CPU, scalar first.
inline std::vector<hdc::kernels::Backend> available_backends() {
  std::vector<hdc::kernels::Backend> out;
  for (hdc::kernels::Backend b : hdc::kernels::compiled_backends())
    if (hdc::kernels::available(b)) out.push_back(b);
  return out;
}

}  // namespace generic::test
