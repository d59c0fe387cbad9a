#include "chaos/tenant_storm.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "fleet/engine.h"
#include "fleet/simulator.h"

namespace generic::chaos {

using fleet::FleetStatus;
using fleet::PartyStats;

fleet::FleetConfig tenant_storm_config(bool quick) {
  fleet::FleetConfig cfg = fleet::default_fleet_config(quick);
  // Turn the batch tenant into the storm: a dense client population with
  // tiny think times, all pinned on the fastest model. Offered load is
  // ~6 clients / ~250us ≈ 24000 rps — over 10x the 1000 rps quota. The
  // burst capacity (32 requests) is sized to blow straight past the
  // pinned model's 4 ms batch shed budget (~11 requests of projected
  // backlog), so the OPENING burst is absorbed by the weighted-shed gate,
  // and the SUSTAINED flood is capped by the token bucket once the burst
  // allowance is spent — both refusal mechanisms must visibly engage
  // while critical traffic rides its 64 ms budget untouched.
  fleet::TenantSpec& flood = cfg.tenants.back();
  flood.quota_rps = 1000;
  flood.quota_burst = 32;
  flood.clients = 6;
  flood.think_mean_us = 250;
  flood.requests_per_client = quick ? 80 : 200;
  flood.model_pin = 0;
  return cfg;
}

namespace {

double served_frac(const PartyStats& s) {
  return s.requests == 0 ? 1.0
                         : static_cast<double>(s.served) /
                               static_cast<double>(s.requests);
}

double accuracy(const PartyStats& s) {
  return s.served == 0 ? 0.0
                       : static_cast<double>(s.correct) /
                             static_cast<double>(s.served);
}

double status_frac(const PartyStats& s, FleetStatus status) {
  return s.requests == 0
             ? 0.0
             : static_cast<double>(
                   s.statuses[static_cast<std::size_t>(status)]) /
                   static_cast<double>(s.requests);
}

InvariantResult check_ge(const std::string& name, double value, double bound) {
  return InvariantResult{name, true, value >= bound, value, bound};
}

InvariantResult check_le(const std::string& name, double value, double bound) {
  return InvariantResult{name, true, value <= bound, value, bound};
}

}  // namespace

ChaosReport run_tenant_storm(const ScenarioSpec& spec, const RunOptions& opt) {
  fleet::FleetConfig cfg = *spec.fleet;
  cfg.seed = opt.seed;

  ThreadPool pool(opt.threads);
  std::vector<fleet::ModelWorld> worlds;
  worlds.reserve(cfg.models.size());
  for (const fleet::ModelSpec& m : cfg.models)
    worlds.push_back(fleet::build_world(m, pool));

  fleet::FleetEngine engine(cfg, std::move(worlds), pool);
  auto owned = fleet::make_sim_ports(cfg, engine);
  std::vector<fleet::ClientPort*> ports;
  ports.reserve(owned.size());
  for (auto& p : owned) ports.push_back(p.get());
  fleet::run_closed_loop(engine, ports);

  ChaosReport report;
  report.scenario = spec.name;
  report.seed = opt.seed;
  report.quick = spec.quick;
  report.fleet = engine.finish();
  report.requests = report.fleet->requests;
  const std::vector<PartyStats>& tenants = report.fleet->tenants;
  const std::size_t flood_tenant = tenants.size() - 1;

  // The storm is refused: the flood tenant's quota + weighted-shed refusal
  // fraction must dominate its request stream.
  const PartyStats& flood = tenants[flood_tenant];
  const double quota_frac = status_frac(flood, FleetStatus::kQuotaRejected);
  const double shed_frac = status_frac(flood, FleetStatus::kPriorityShed);
  report.invariants.push_back(
      check_ge("flood_refused_frac", quota_frac + shed_frac, 0.60));
  // BOTH refusal mechanisms must engage: the token bucket caps the
  // sustained rate, and the weighted shed gate absorbs what leaks past it.
  report.invariants.push_back(check_ge("flood_shed_frac", shed_frac, 0.10));

  // The victims are protected: every non-flood tenant keeps serving and
  // keeps answering correctly.
  double victim_served = 1.0;
  double victim_accuracy = 1.0;
  for (std::size_t t = 0; t < flood_tenant; ++t) {
    victim_served = std::min(victim_served, served_frac(tenants[t]));
    victim_accuracy = std::min(victim_accuracy, accuracy(tenants[t]));
  }
  report.invariants.push_back(
      check_ge("victim_served_frac", victim_served, 0.90));
  report.invariants.push_back(
      check_ge("victim_accuracy", victim_accuracy, 0.60));

  // The critical tenant's tail latency stays flat: priority budgets keep
  // the storm's backlog from ever reaching gold's admitted requests.
  report.invariants.push_back(check_le(
      "critical_p99_us",
      static_cast<double>(tenants[0].latency.percentile(0.99)),
      static_cast<double>(cfg.models[0].serve.deadline_us * 2)));

  report.passed = std::all_of(
      report.invariants.begin(), report.invariants.end(),
      [](const InvariantResult& inv) { return inv.passed; });
  return report;
}

}  // namespace generic::chaos
