// Request/response vocabulary of the serving engine (docs/serving.md).
//
// Time in the serving layer is VIRTUAL: every timestamp below is
// microseconds on the load trace's clock, derived from the seeded arrival
// process and the deterministic service-cost model — never from the wall
// clock. That is what makes every admission, shed, retry, timeout and
// degradation decision a pure function of (trace, config, seed), and the
// generic.serve.v1 report byte-identical for any --threads value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace generic::serve {

/// Terminal state of one request. Exactly one outcome per request; the
/// precedence for served requests is degraded > retried > ok (a request
/// that was both retried and served at reduced dimensions reports
/// kDegraded — the dims_used and attempts fields keep the full story).
enum class Outcome {
  kOk,        ///< served at full dimensions, first attempt, in budget
  kRetried,   ///< served at full dimensions after >= 1 transient-fault retry
  kDegraded,  ///< served at reduced dimensions (any ladder rung below full)
  kShed,      ///< refused at admission: queue depth at the high-water mark
  kTimeout,   ///< deadline expired (in queue, or completion landed too late)
  kFailed,    ///< transient faults persisted through every retry attempt
};

inline constexpr std::size_t kNumOutcomes = 6;

/// Stable short name used in generic.serve.v1 ("ok", "retried", ...).
std::string_view outcome_name(Outcome o);

/// One inference request on the virtual timeline. The query itself is an
/// index into the query set the engine was constructed over, so requests
/// stay cheap to copy.
struct Request {
  std::uint64_t id = 0;           ///< trace-order id (also the rng stream)
  std::uint64_t arrival_us = 0;   ///< virtual arrival time
  std::uint64_t deadline_us = 0;  ///< absolute virtual deadline
  std::size_t query = 0;          ///< index into the engine's query set
  /// Labeled canary: the caller vouches for this request's ground-truth
  /// label, so the lifecycle may use it for drift accounting and replay
  /// (docs/lifecycle.md). Serving itself treats canaries like any request.
  bool canary = false;
};

/// Everything the engine reports back for one request.
struct Response {
  Outcome outcome = Outcome::kFailed;
  int predicted = -1;          ///< class label; -1 for shed/timeout/failed
  std::size_t dims_used = 0;   ///< dimensions of the serving rung (0 if unserved)
  std::uint32_t attempts = 0;  ///< service attempts consumed (0 if never started)
  std::uint64_t finish_us = 0; ///< virtual completion / rejection time
  std::uint64_t latency_us = 0;///< finish_us - arrival_us
  std::uint32_t rung = 0;      ///< ladder rung that served (0 if unserved)
  std::uint64_t version = 0;   ///< model version that served
  double margin = 0.0;         ///< winning-class margin (confidence signal)
};

/// Write-once result slot the engine resolves when a request reaches a
/// terminal outcome; try_get() reads it. Copies share one slot, so the
/// engine keeps the producer side in its own bookkeeping without a promise
/// object per request.
class ResponseFuture {
 public:
  std::optional<Response> try_get() const { return *value_; }

  /// Producer side; the engine calls this exactly once per request.
  void resolve(const Response& r) { *value_ = r; }

 private:
  std::shared_ptr<std::optional<Response>> value_ =
      std::make_shared<std::optional<Response>>();
};

/// Engine configuration. Defaults describe a small edge node: two virtual
/// service lanes, a queue that sheds at 48 pending requests, a 4 ms
/// deadline with a 2 ms SLO target the degradation ladder defends.
struct ServeConfig {
  /// Registry label for this engine's counters/gauges/histograms. Empty
  /// keeps the legacy process-global names ("serve.requests"); non-empty
  /// namespaces them as "serve.requests{model=<id>}" so several engines in
  /// one process (the fleet layer) never collide in the global registry.
  /// A pure observability label: never read by a serving decision and never
  /// rendered into generic.serve.v1.
  std::string model_id;
  std::size_t servers = 2;          ///< virtual service lanes
  /// Rendered into generic.serve.v1 for compatibility; no serving decision
  /// reads it (shedding is high_water's job).
  std::size_t queue_capacity = 64;
  std::size_t high_water = 48;      ///< shed arrivals at depth >= high_water
  std::size_t low_water = 8;        ///< rung step-up needs depth <= low_water
  std::uint64_t deadline_us = 4000; ///< per-request budget after arrival
  std::uint64_t slo_us = 2000;      ///< latency target the ladder defends
  std::uint32_t max_attempts = 3;   ///< service tries before kFailed
  std::uint64_t backoff_base_us = 100;  ///< retry backoff: base * 2^(attempt-1)
  double backoff_jitter = 0.25;     ///< +- fraction of deterministic jitter
  std::size_t min_dims = 512;       ///< floor of the degradation ladder
  std::uint64_t service_base_us = 900;  ///< mean full-dims service time
  double service_jitter = 0.2;      ///< +- fraction per-request jitter
  double fault_rate = 0.0;          ///< per-attempt transient-upset probability
  double fault_bit_rate = 1e-3;     ///< per-bit flip rate when an upset hits
  std::uint64_t seed = 0x5EB7E;     ///< service/fault rng root
  std::size_t compute_batch = 32;   ///< deferred predict flush size
  double ewma_alpha = 0.2;          ///< latency EWMA weight (controller)
  std::uint32_t cooldown = 16;      ///< completions between rung moves
  double step_up_frac = 0.5;        ///< step up when ewma < frac * slo

  // SLO burn-rate alerting (serve/burn_monitor.h). An alert fires when BOTH
  // rolling virtual-time windows burn the error budget (1 - slo_target)
  // faster than their thresholds, and clears at half the thresholds.
  double slo_target = 0.99;         ///< fraction of requests in-SLO
  std::uint64_t burn_fast_window_us = 100000;  ///< fast window span
  std::uint64_t burn_slow_window_us = 500000;  ///< slow window span
  double burn_fast_threshold = 14.0;  ///< fast-window burn to fire
  double burn_slow_threshold = 6.0;   ///< slow-window burn to fire
  std::size_t burn_min_events = 32;   ///< per-window floor before firing
};

}  // namespace generic::serve
