// tenant_storm: the fleet campaign of the chaos registry (docs/chaos.md,
// docs/fleet.md).
//
// One low-priority tenant ("bronze", batch class) floods the fleet at
// roughly 10x its admission quota — a dense client population with tiny
// think times, all pinned on the fastest model. The scenario pins the two
// fairness stories the fleet's admission pipeline exists to tell:
//
//   - the storm is REFUSED: most of the flood dies at the token bucket or
//     the weighted shed gate, never reaching a model engine;
//   - the victims are PROTECTED: the other tenants' served fraction,
//     accuracy and (for the critical tenant) p99 latency stay within the
//     bounds they enjoy in calm weather.
//
// Like every chaos campaign the run is pure virtual time: the report is a
// byte-stable function of (quick, seed), pinned by the golden fixture
// tests/chaos/golden/tenant_storm.json and compared across --threads in CI.
#pragma once

#include "chaos/orchestrator.h"
#include "fleet/types.h"

namespace generic::chaos {

/// The storm topology: default_fleet_config(quick) with its last tenant,
/// the batch one, turned into a flood (6 clients, ~250us think, quota
/// 1000 rps, pinned on model 0) — offered load over 10x its quota.
fleet::FleetConfig tenant_storm_config(bool quick);

/// Run a fleet campaign (spec.fleet set) on the simulated ingress path and
/// judge the storm invariants; run_scenario() dispatches here.
ChaosReport run_tenant_storm(const ScenarioSpec& spec, const RunOptions& opt,
                             ThreadPool& pool);

}  // namespace generic::chaos
