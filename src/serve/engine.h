// Resilient in-process serving engine (docs/serving.md).
//
// Architecture: the engine is a discrete-event loop that runs on the
// caller's thread. submit() feeds it one request (in arrival order), tick()
// advances its clock, finish() drains it. Every serving decision —
// admission / shedding, deadline expiry, transient-fault retry with backoff,
// and the SLO-driven degradation ladder — is made on the VIRTUAL clock
// carried by the requests plus the deterministic service-cost model, never
// the wall clock. Heavy compute (the actual predictions) is deferred into
// fixed-size per-rung batches. The query table is packed once into an
// hdc::QueryBatch at the model's full dims, at construction and again at
// every encoder-table swap; a flush scores its requests' rows of that table
// by index through one HdcClassifier::scan_batch call on the rung's chunk
// mask, so no flush packs a query, and the results are bit-identical at any
// pool lane count. Consequence: the generic.serve.v1 report is
// byte-identical for a fixed (trace, config, seed) regardless of --threads.
//
// Virtual-time model:
//  * cfg.servers service lanes; a request in service occupies one lane for
//    service_base_us * (active_chunks / num_chunks) * (1 +- jitter) virtual
//    microseconds — dimension reduction buys proportionally cheaper service,
//    which is the §4.3.3 mechanism the ladder exploits.
//  * Each service attempt suffers a transient upset with probability
//    cfg.fault_rate (per-request rng stream). An upset injects real bit
//    flips (resilience::FaultSpec kTransient at fault_bit_rate) into a copy
//    of the query; corruption is detected by a modeled parity check
//    (compare against the original) and retried after exponential backoff,
//    up to max_attempts, then kFailed.
//  * Arrivals at pending depth >= high_water are shed immediately; queued
//    requests whose deadline passed fail fast at dequeue; completions past
//    the deadline resolve kTimeout.
//  * A DegradeController walks the dims ladder on the served-latency EWMA.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "hdc/hypervector.h"
#include "hdc/query_batch.h"
#include "model/hdc_classifier.h"
#include "obs/obs.h"
#include "serve/burn_monitor.h"
#include "serve/encoder_hook.h"
#include "serve/lifecycle_hook.h"
#include "serve/policy.h"
#include "serve/types.h"

namespace generic::serve {

/// Per-ladder-rung serving tally (accuracy-at-degradation, Figure 5 view).
struct RungStats {
  std::size_t dims = 0;           ///< prefix dimensions of this rung
  std::size_t active_chunks = 0;  ///< ok chunks actually scored in the rung
  std::uint64_t served = 0;
  std::uint64_t correct = 0;
  obs::HistogramSnapshot latency;  ///< served latencies of this rung, virtual us
};

/// One hot-swap (or rejected-shadow rollback) on the virtual timeline.
struct SwapEvent {
  std::uint64_t vt = 0;       ///< virtual install / rejection time
  std::uint64_t version = 0;  ///< lifecycle model version
  bool rollback = false;      ///< true: shadow failed validation, not installed
};

/// Serving tally attributed to one installed model version.
struct VersionStats {
  std::uint64_t version = 0;
  std::uint64_t served = 0;
  std::uint64_t correct = 0;
};

/// One encoder-memory incident phase on the virtual timeline, as applied
/// by the engine (the report-side mirror of EncoderUpdate).
struct EncoderFaultEvent {
  std::uint64_t vt = 0;
  EncoderUpdate::Phase phase = EncoderUpdate::Phase::kDetect;
  std::size_t faulty_rows = 0;    ///< rows flagged faulty (incl. id seed)
  bool id_seed_faulty = false;
  std::size_t scrubbed_rows = 0;  ///< rows rematerialized (scrub phases)
  bool scrub_verified = false;    ///< scrubbed rows passed CRC verification
  bool stepped_ladder = false;    ///< forced one rung down on apply
};

/// Everything generic.serve.v1 reports. Deliberately free of wall-clock and
/// thread-count fields: equal inputs render to equal bytes.
struct ServeReport {
  ServeConfig config;
  std::uint64_t requests = 0;
  std::uint64_t makespan_us = 0;   ///< last virtual finish time
  double throughput_rps = 0.0;     ///< served per virtual second
  std::array<std::uint64_t, kNumOutcomes> outcomes{};
  std::uint64_t served = 0;        ///< ok + retried + degraded
  std::uint64_t attempts = 0;      ///< service attempts consumed
  std::uint64_t retries = 0;       ///< attempts beyond each request's first
  obs::HistogramSnapshot latency;  ///< served latencies, virtual us
  std::uint64_t correct = 0;       ///< served with predicted == label
  std::uint64_t steps_down = 0;
  std::uint64_t steps_up = 0;
  std::size_t final_rung = 0;
  std::vector<RungStats> rungs;
  std::vector<SwapEvent> swaps;        ///< hot-swaps/rollbacks, virtual order
  std::vector<VersionStats> versions;  ///< per-model-version tallies
  std::vector<BurnAlert> slo_alerts;   ///< burn-rate alert edges, virtual order
  std::vector<EncoderFaultEvent> encoder_faults;  ///< encoder incidents,
                                                  ///< virtual order
  std::uint64_t scrubbed_rows = 0;     ///< encoder rows rematerialized, total
};

/// Render as schema `generic.serve.v1`: fixed field order (obs/json.h).
std::string serve_report_to_json(const ServeReport& report);

/// Inline fragments of generic.serve.v1 that the chaos and fleet schemas
/// embed as well, so the three never drift apart.
void append_outcomes_json(std::string& out,
                          const std::array<std::uint64_t, kNumOutcomes>& n);
void append_alert_json(std::string& out, const BurnAlert& alert);
void append_encoder_fault_json(std::string& out,
                               const EncoderFaultEvent& event);

class ServeEngine {
 public:
  /// The engine serves `queries` by index; `labels` are the ground truth
  /// used only for the accuracy tallies in the report. Every query row
  /// must be exactly model.dims() long (std::invalid_argument otherwise,
  /// before anything is packed): flushes score a packed copy of the table,
  /// one byte per value for every Table-1 GENERIC encoding. `chunk_ok`
  /// (size model.num_chunks(), empty == all ok) marks faulty dimension
  /// blocks: serving then scores only ok chunks inside the active rung
  /// prefix (the rung's chunk mask), the graceful-degradation path of
  /// resilience::BlockGuard. Throws if any ladder rung would have no ok
  /// chunk to score.
  ///
  /// `lifecycle` (optional, not owned, must outlive the engine) receives a
  /// ServedObservation per served request and is polled for validated model
  /// updates at deterministic virtual-time points; see lifecycle_hook.h.
  /// Installed models must match the initial model's geometry exactly.
  ///
  /// `encoder` (optional, not owned, must outlive the engine) is polled at
  /// the same virtual-time points for encoder-memory incidents; a delivered
  /// update may swap the serving query table (corrupt / masked / scrubbed
  /// re-encodings of the same query set; see encoder_hook.h), which the
  /// engine then packs again. An update whose geometry, table size or row
  /// length does not match throws
  /// std::invalid_argument out of the submit(), tick() or finish() call
  /// that polled it; the engine is then only safe to destroy.
  ServeEngine(const model::HdcClassifier& model,
              std::span<const hdc::IntHV> queries, std::span<const int> labels,
              const ServeConfig& cfg, ThreadPool& pool,
              std::vector<bool> chunk_ok = {},
              ModelLifecycle* lifecycle = nullptr,
              EncoderMemory* encoder = nullptr);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admit one request: run every event scheduled at or before its
  /// arrival, poll the lifecycle/encoder hooks there, then admit, shed or
  /// queue it. Requests must be submitted in non-decreasing arrival_us
  /// order with distinct ids; a query index past the table throws
  /// std::out_of_range before anything runs. The future resolves when the
  /// request reaches a terminal outcome; after finish() it comes back
  /// already resolved as kShed.
  ResponseFuture submit(const Request& req);

  /// Drain everything in flight and return the final report. Call exactly
  /// once, after the last submit(); every future is resolved when this
  /// returns.
  ServeReport finish();

  /// Advance the engine's virtual clock to `vt`: every completion/retry
  /// scheduled at or before `vt` is processed, the lifecycle/encoder hooks
  /// are polled, and every deferred prediction batch is flushed (so
  /// futures of requests finishing <= vt resolve before this returns). Returns the virtual time of the next scheduled
  /// internal event, or kNoEvent when the engine is idle — the handle a
  /// discrete-event coordinator (fleet::run_closed_loop) needs to
  /// interleave several engines deterministically. Requests submitted
  /// after a tick keep the non-decreasing-arrival contract relative to
  /// other REQUESTS only; the tick itself imposes no ordering.
  std::uint64_t tick(std::uint64_t vt);

  /// tick() return value when no internal event is scheduled.
  static constexpr std::uint64_t kNoEvent = ~0ull;

  const std::vector<std::size_t>& ladder() const { return ladder_; }

 private:
  struct InFlight {
    Request req;
    ResponseFuture future;
    Rng rng;
    std::uint32_t attempts = 0;
    std::size_t rung = 0;    ///< ladder rung of the (last) service attempt
    bool upset = false;      ///< current attempt drew a transient upset
    Outcome outcome = Outcome::kFailed;  ///< set when terminal
    std::uint64_t finish_us = 0;
    std::uint64_t epoch = 0;  ///< model epoch at deferral (swap invariant)
  };
  struct Event {
    std::uint64_t vt = 0;
    std::uint64_t seq = 0;  ///< schedule order: deterministic tie-break
    enum Kind { kCompletion, kRetry } kind = kCompletion;
    InFlight* f = nullptr;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.vt != b.vt) return a.vt > b.vt;
      return a.seq > b.seq;  // min-heap on (vt, seq)
    }
  };
  void advance_to(std::uint64_t vt_limit);
  void on_arrival(const Request& req, ResponseFuture future);
  void start_service(InFlight* f, std::uint64_t now);
  void on_completion(InFlight* f, std::uint64_t now);
  void on_retry_timer(InFlight* f, std::uint64_t now);
  void pull_pending(std::uint64_t now);
  void resolve_unserved(InFlight* f, Outcome o, std::uint64_t now);
  void defer_served(InFlight* f, std::uint64_t now);
  void flush_rung(std::size_t rung);
  void feed_controller(std::uint64_t now, std::uint64_t latency_us);
  void feed_burn(std::uint64_t vt, bool good);
  void poll_lifecycle(std::uint64_t now);
  void poll_encoder(std::uint64_t now);

  /// Current serving model. Starts at the constructor-provided reference;
  /// after a hot-swap it points into owned_model_ (the engine co-owns every
  /// installed version so in-flight readers can never dangle).
  const model::HdcClassifier* model_;
  std::shared_ptr<const model::HdcClassifier> owned_model_;
  /// The serving query table: the caller's rows (read by the transient
  /// fault model) and their packed copy (scored by every flush).
  std::span<const hdc::IntHV> queries_;
  hdc::QueryBatch table_;
  std::span<const int> labels_;
  ServeConfig cfg_;
  ThreadPool& pool_;
  ModelLifecycle* lifecycle_ = nullptr;
  EncoderMemory* encoder_ = nullptr;

  std::vector<std::size_t> ladder_;
  /// Per rung: the chunk mask every flush of the rung scores with (ok AND
  /// inside the rung prefix; see HdcClassifier::prefix_mask()) and its
  /// count of active chunks.
  std::vector<std::vector<bool>> rung_mask_;
  std::vector<std::size_t> rung_active_;

  // ---- Discrete-event state ----
  std::vector<std::unique_ptr<InFlight>> inflight_;
  std::vector<Event> events_;  // heap ordered by EventAfter
  std::uint64_t next_seq_ = 0;
  std::deque<InFlight*> pending_;
  std::size_t free_servers_ = 0;
  std::uint64_t clock_us_ = 0;
  BackoffPolicy backoff_;
  DegradeController controller_;
  BurnMonitor burn_;
  std::vector<std::vector<InFlight*>> batch_;  // deferred predicts per rung
  obs::Histogram latency_;                     // served latency, virtual us
  std::vector<obs::Histogram> rung_latency_;   // per-rung served latency
  std::uint64_t model_epoch_ = 0;   // bumped at every install
  std::uint64_t model_version_ = 0; // lifecycle version currently serving
  ServeReport report_;
  bool finished_ = false;

  /// Registry metrics resolved once at construction, namespaced by
  /// cfg.model_id ("serve.requests{model=<id>}"; empty id keeps the legacy
  /// process-global "serve.requests") so several engines in one process
  /// tally independently. All null when instrumentation is compiled out.
  struct Metrics {
    obs::Counter* requests = nullptr;
    obs::Counter* upsets = nullptr;
    obs::Counter* swaps = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* slo_alerts = nullptr;
    obs::Counter* encoder_faults = nullptr;
    obs::Counter* encoder_scrubs = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  Metrics metrics_;
};

}  // namespace generic::serve
