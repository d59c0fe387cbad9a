// Deterministic serving policies: the dimension ladder, retry backoff and
// the SLO-driven degradation controller (docs/serving.md).
//
// Every policy here is a pure function of its inputs plus an explicit Rng
// stream — no wall clock, no global state — so the engine's decisions
// replay identically for a fixed (trace, config, seed) regardless of how
// the surrounding computation is scheduled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "serve/types.h"

namespace generic::serve {

/// The degradation ladder: full dimensions first, then repeated halving,
/// every rung a positive multiple of `chunk`, floored at
/// max(min_dims rounded up to a chunk, chunk). For dims=4096, chunk=128,
/// min_dims=512 this is the paper's Fig. 5 ladder {4096, 2048, 1024, 512}.
std::vector<std::size_t> dims_ladder(std::size_t dims, std::size_t chunk,
                                     std::size_t min_dims);

/// Chunk mask one ladder rung scores with: the first dims / chunk of
/// `num_chunks` chunks, AND `chunk_ok` when it is non-empty (size
/// num_chunks). A full-dims rung of a healthy model is all true.
std::vector<bool> rung_mask(std::size_t dims, std::size_t chunk,
                            std::size_t num_chunks,
                            const std::vector<bool>& chunk_ok);

/// Seeded open-loop Poisson load: `n` requests (ids 0..n-1) whose
/// inter-arrival gaps on the virtual clock are exponential with mean
/// 1e6 / rate_rps us (at least 1 us), each querying a uniform draw from
/// [0, num_queries) with deadline arrival + deadline_us. The draws come
/// from Rng(seed ^ 0x0A11CE5), so a trace is a pure function of its
/// arguments.
std::vector<Request> poisson_trace(std::uint64_t seed, std::size_t n,
                                   std::size_t rate_rps,
                                   std::uint64_t deadline_us,
                                   std::size_t num_queries);

/// Exponential backoff with deterministic jitter:
///   delay(attempt) = base * 2^(attempt-1) * (1 + jitter * (2u - 1))
/// where u is drawn from the caller's per-request rng stream. attempt is
/// 1-based (the attempt that just failed).
class BackoffPolicy {
 public:
  BackoffPolicy(std::uint64_t base_us, double jitter)
      : base_us_(base_us), jitter_(jitter) {}

  std::uint64_t delay_us(std::uint32_t attempt, Rng& rng) const;

 private:
  std::uint64_t base_us_;
  double jitter_;
};

/// SLO-driven ladder controller. Tracks an EWMA of served latencies; when
/// the EWMA crosses the SLO target it steps one rung down (fewer
/// dimensions => proportionally cheaper service); when the EWMA falls
/// below step_up_frac * slo AND the queue depth observed at the decision
/// point is at or below low_water, it steps back up. A cooldown of
/// `cooldown` completions between moves keeps the ladder from thrashing.
///
/// All state is updated at completion events in virtual-time order, so the
/// rung sequence is deterministic.
class DegradeController {
 public:
  DegradeController(std::vector<std::size_t> ladder, const ServeConfig& cfg);

  /// Dimensions the next service attempt should use.
  std::size_t dims() const { return ladder_[rung_]; }
  std::size_t rung() const { return rung_; }
  const std::vector<std::size_t>& ladder() const { return ladder_; }

  /// Feed one served-request latency plus the pending-queue depth at the
  /// moment of the decision; may move the rung.
  void on_completion(std::uint64_t latency_us, std::size_t queue_depth);

  /// Step one rung down regardless of EWMA or cooldown — the graceful
  /// degradation override for events latency cannot see (an encoder that
  /// must serve masked encodings with no seed to scrub from). Resets the
  /// cooldown so the latency path does not immediately re-step. Returns
  /// false when already at the bottom rung.
  bool force_step_down();

  std::uint64_t steps_down() const { return steps_down_; }
  std::uint64_t steps_up() const { return steps_up_; }
  double ewma_us() const { return ewma_us_; }

 private:
  std::vector<std::size_t> ladder_;
  std::size_t rung_ = 0;
  double ewma_us_ = 0.0;
  bool seeded_ = false;
  double alpha_;
  double slo_us_;
  double step_up_frac_;
  std::size_t low_water_;
  std::uint32_t cooldown_;
  std::uint32_t since_change_;
  std::uint64_t steps_down_ = 0;
  std::uint64_t steps_up_ = 0;
};

}  // namespace generic::serve
