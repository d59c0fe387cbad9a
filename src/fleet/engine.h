// FleetEngine: multi-model, multi-tenant routing over shared compute
// (docs/fleet.md).
//
// One FleetEngine owns a per-model serve::ServeEngine fleet, all sharing a
// single common::thread_pool for the heavy batched predictions. Every
// parsed request passes three gates, in order, all on the virtual clock:
//
//   1. TENANT QUOTA — an exact integer token bucket per tenant
//      (micro-tokens, quota_rps refill, quota_burst cap). Empty bucket ->
//      kQuotaRejected, rtrace kFleetQuota.
//   2. WEIGHTED SHEDDING — a per-model virtual backlog estimator
//      (busy_until advances by service-cost/lanes per admitted request).
//      If the projected delay exceeds the request's priority-class budget
//      (shed_budget_us) the request is shed, rtrace kFleetShed: under a
//      flood, batch traffic turns away ~16x earlier than critical traffic,
//      which is what keeps a high-priority tenant's latency flat while a
//      low-priority tenant storms (chaos tenant_storm pins this).
//   3. MODEL ENGINE — admitted requests become serve::Requests on the
//      model's ServeEngine, which applies its own high-water shedding,
//      deadlines, retries and degradation ladder; rtrace kFleetRoute.
//
// All route/complete/tick calls happen on the single coordinator thread
// (fleet/simulator.h), so fleet state needs no locks, and every tally lands
// in deterministic virtual-time order — the generic.fleet.v1 report is a
// pure function of (FleetConfig, seed).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fleet/types.h"
#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"
#include "serve/burn_monitor.h"
#include "serve/engine.h"

namespace generic::fleet {

/// One model's servable world: classifier + encoded query set + labels.
struct ModelWorld {
  std::shared_ptr<model::HdcClassifier> classifier;
  std::vector<hdc::IntHV> queries;
  std::vector<int> labels;
};

/// Build a model's world from its spec: seeded drift-stream dataset,
/// fitted GenericEncoder, fit classifier, encoded query set. Pure function
/// of (spec, pool-invariant kernels) — identical for any lane count.
ModelWorld build_world(const ModelSpec& spec, ThreadPool& pool);

/// Per-tenant or per-model serving tally (report view).
struct PartyStats {
  std::uint64_t requests = 0;
  std::array<std::uint64_t, kNumFleetStatuses> statuses{};
  std::uint64_t served = 0;   ///< ok + retried + degraded
  std::uint64_t correct = 0;  ///< served with predicted == ground truth
  obs::HistogramSnapshot latency;  ///< served latency, virtual us
};

/// Everything generic.fleet.v1 reports. Free of wall-clock and
/// thread-count fields: equal inputs render to equal bytes.
struct FleetReport {
  FleetConfig config;
  std::uint64_t requests = 0;
  std::uint64_t makespan_us = 0;
  std::array<std::uint64_t, kNumFleetStatuses> statuses{};
  std::vector<PartyStats> tenants;  ///< by tenant index
  std::vector<PartyStats> models;   ///< by model index
  std::vector<serve::ServeReport> model_reports;  ///< per-model engine view
  std::vector<serve::BurnAlert> slo_alerts;  ///< fleet-level burn edges
};

/// Render as schema `generic.fleet.v1`: fixed field order (obs/json.h).
std::string fleet_report_to_json(const FleetReport& report);

/// Shared exporter fragments: the per-status tally object, and one
/// PartyStats object (statuses, accuracy, latency percentiles) laid out
/// for an element of a block list at indent 4. Used by the fleet and
/// tenant_storm renderers so the two schemas never drift.
void append_statuses_json(
    std::string& out,
    const std::array<std::uint64_t, kNumFleetStatuses>& statuses);
void append_party_json(std::string& out, const PartyStats& s);

class FleetEngine {
 public:
  /// `worlds` must align with cfg.models. The per-model ServeEngines start
  /// immediately, all sharing `pool`.
  FleetEngine(const FleetConfig& cfg, std::vector<ModelWorld> worlds,
              ThreadPool& pool);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Route one send at virtual time s.send_us. Admitted: returns the
  /// engine future (resolve via the coordinator's tick protocol). Refused:
  /// returns nullopt and fills `rejection` with the terminal
  /// kQuotaRejected / kPriorityShed response (already tallied).
  std::optional<serve::ResponseFuture> route(const Send& s,
                                             FleetResponse& rejection);

  /// Convert a resolved engine response into the client-facing
  /// FleetResponse and tally it (statuses, accuracy, latency, burn).
  FleetResponse complete(const Send& s, const serve::Response& r);

  /// Advance model m's engine to `vt` (serve::ServeEngine::tick) and
  /// refresh its cached next-event time.
  void tick_model(std::size_t m, std::uint64_t vt);

  /// Cached next internal event of model m's engine
  /// (serve::ServeEngine::kNoEvent when idle).
  std::uint64_t next_event(std::size_t m) const { return next_event_[m]; }

  std::size_t num_models() const { return engines_.size(); }

  /// Servable query-set sizes, by model (the HELLO_ACK payload).
  std::vector<std::uint32_t> model_queries() const;

  /// Finish every model engine and assemble the fleet report. Call once,
  /// after the closed loop has fully drained.
  FleetReport finish();

 private:
  struct Tenant {
    std::uint64_t tokens_micro = 0;  ///< 1e6 micro-tokens per request
    std::uint64_t last_refill_us = 0;
    std::uint64_t quota_rps = 0;
    std::uint64_t cap_micro = 0;  ///< quota_burst * 1e6
    PriorityClass priority = PriorityClass::kStandard;
  };
  struct Model {
    std::uint64_t busy_until_us = 0;  ///< virtual backlog estimator
    std::uint64_t cost_us = 0;        ///< per-request backlog cost estimate
  };

  /// Live counting twin of PartyStats (histogram still recording).
  struct Tally {
    std::uint64_t requests = 0;
    std::array<std::uint64_t, kNumFleetStatuses> statuses{};
    std::uint64_t served = 0;
    std::uint64_t correct = 0;
    obs::Histogram latency;
  };
  void tally(Tally& t, FleetStatus s, bool served, bool correct,
             std::uint64_t latency_us);
  static PartyStats snapshot(const Tally& t);

  FleetConfig cfg_;
  std::vector<ModelWorld> worlds_;
  std::vector<std::unique_ptr<serve::ServeEngine>> engines_;
  std::vector<std::uint64_t> next_event_;
  std::vector<Tenant> tenants_;
  std::vector<Model> models_;
  std::vector<Tally> tenant_tally_;
  std::vector<Tally> model_tally_;
  std::uint64_t next_engine_id_ = 0;  ///< distinct serve::Request ids
  FleetReport report_;
  serve::BurnMonitor burn_;
  bool finished_ = false;
};

}  // namespace generic::fleet
